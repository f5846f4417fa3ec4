"""Call counts and self times of the package's public functions, from outside.

The modules import each other's functions by name (``pingpong`` binds
``bell_measure`` from ``quantum_core``, and so on), so wrapping a
function means replacing every binding of it: each ``pingpong_qkd``
module attribute that is the function, or, for a method, the class
attribute.  A span is the wall time of one call; a function's self time
is its spans minus the spans of the wrapped calls made inside them.
A listed name that does not resolve, or whose function is never called,
is reported as not measured.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable

# module -> public functions whose cost the end-to-end metrics depend on
LAYERS: dict[str, tuple[str, ...]] = {
    "quantum_core": (
        "measure_computational",
        "measure_in_basis",
        "bell_measure",
        "apply_noise",
        "apply_pauli_z",
    ),
    "attacks": ("intercept_resend", "return_discrimination_basis", "omega_state"),
    "pingpong": ("run_round", "run_session"),
    "css_qkd": ("run_qkd_block", "assign_positions", "encode", "syndrome_decode", "coset_key"),
    "infotheory": ("JointCounts2x2.add", "empirical_mutual_information"),
}

PACKAGE = "pingpong_qkd"


def _bindings(module: str, dotted: str) -> tuple[Callable, list[tuple[object, str]]] | None:
    """The function behind ``module.dotted`` and every (owner, name) bound to it."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    original = vars(owner)[name]
    if path:
        return original, [(owner, name)]
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            sites += [(mod, attr) for attr, value in vars(mod).items() if value is original]
    return original, sites


class CallTracer:
    """Context manager that wraps the ``LAYERS`` functions while active.

    Counts and self times accumulate over every activation.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._wrapped: list[tuple[object, str, Callable, Callable]] = []
        # child-span accumulators; the bottom entry collects top-level spans
        self._stack = [0.0]
        for module, names in LAYERS.items():
            for dotted in names:
                key = f"{module}.{dotted}"
                self.calls[key] = 0
                self.self_s[key] = 0.0
                found = _bindings(module, dotted)
                if found is None:
                    continue
                original, sites = found
                wrapper = self._wrap(key, original)
                self._wrapped += [(owner, name, original, wrapper) for owner, name in sites]

    def _wrap(self, key: str, fn: Callable) -> Callable:
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stack[-1] += span
                self_s[key] += span - child
                calls[key] += 1

        return traced

    def __enter__(self) -> "CallTracer":
        for owner, name, _, wrapper in self._wrapped:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, _ in self._wrapped:
            setattr(owner, name, original)

    def measured(self, key: str) -> bool:
        return self.calls[key] > 0

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-function calls and mean self time, and each module's share of ``wall_s``.

        A function that was not measured reports 0 calls and 0 us.
        """
        out: dict[str, tuple[float, str]] = {}
        for module, names in LAYERS.items():
            module_self = 0.0
            for dotted in names:
                key = f"{module}.{dotted}"
                n = self.calls[key]
                module_self += self.self_s[key]
                out[f"{key}.calls"] = (n, "count")
                out[f"{key}.self_us"] = (self.self_s[key] / n * 1e6 if n else 0.0, "us")
            out[f"{module}.self_share"] = (module_self / wall_s if wall_s > 0 else 0.0, "ratio")
        return out
