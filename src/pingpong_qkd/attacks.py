"""Eavesdropping strategies against the two-way entanglement protocol.

Two concrete attacks are modeled:

* measure-resend: project the travel qubit onto the computational basis
  on the way out, substitute a polarized qubit at polar angle theta, and
  later discriminate the two possible returns with the optimal
  two-outcome measurement;
* symmetric entangling: replace the travel qubit so the pair sits in
  cos(alpha) |psi-> + sin(alpha) |phi+>, which is detected with
  probability sin^2(alpha) in either protocol mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantum_core import (
    TRAVEL,
    PureState,
    TwoQubitState,
    _trusted_state,
    apply_pauli_z,
    discrimination_basis,
    measure_computational,
    prepare_polarized,
)

# angles given as rounded literals (1.5708 for pi/2) land slightly past
# the bound; accept within this grace and clamp to the exact domain
_ANGLE_TOL = 1e-4

# entries kept by each cache keyed by an attack angle.  A state keeps
# what the kernels derived from it, so these caches hold every state an
# angle's rounds reach; evicting an angle frees them, and memory stays
# bounded over a sweep of angles.
_ANGLE_CACHE = 64


def _canonical_angle(value: float, hi: float, what: str) -> float:
    if not -_ANGLE_TOL <= value <= hi + _ANGLE_TOL:
        raise ValueError(f"{what} {value!r} outside [0, {hi:.6g}]")
    return min(max(float(value), 0.0), hi)


@dataclass(frozen=True)
class NoEve:
    """Passive channel, no interception."""


@dataclass(frozen=True)
class MeasureResend:
    """Computational-basis interception with resend angle theta in [0, pi/2]."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta", _canonical_angle(self.theta, np.pi / 2.0, "resend angle")
        )


@dataclass(frozen=True)
class SymmetricEntangle:
    """Entangling substitution with mixing angle alpha in [0, pi/4]."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "alpha", _canonical_angle(self.alpha, np.pi / 4.0, "mixing angle")
        )


EveStrategy = NoEve | MeasureResend | SymmetricEntangle


@dataclass(frozen=True)
class EveRecord:
    """What the eavesdropper learned in one round.

    ``intercept_bit`` is the outgoing-leg measurement result and
    ``guess_bit`` the returning-leg discrimination verdict; either is
    None when that step did not happen (no attack, or a control round
    that never came back).
    """

    intercept_bit: int | None = None
    guess_bit: int | None = None


# the record of an interception, by its outcome; records are frozen, so
# every round shares one of these
_INTERCEPTED = (EveRecord(intercept_bit=0), EveRecord(intercept_bit=1))


@lru_cache(maxsize=_ANGLE_CACHE)
def resend_state(theta: float, intercept_bit: int) -> PureState:
    """Qubit substituted for intercept outcome ``intercept_bit``.

    Outcome 0 is resent as cos(theta/2)|0> + sin(theta/2)|1> and outcome
    1 as its mirror sin(theta/2)|0> + cos(theta/2)|1>, so theta = 0
    reproduces honest forwarding and theta = pi/2 erases the bit.
    """
    if intercept_bit not in (0, 1):
        raise ValueError(f"intercept bit must be 0 or 1, got {intercept_bit!r}")
    up = prepare_polarized(_canonical_angle(theta, np.pi / 2.0, "resend angle"))
    if intercept_bit == 0:
        return up
    return _trusted_state(up.amps[::-1].copy(), 1)


def intercept_resend(
    joint: TwoQubitState, theta: float, rng: np.random.Generator
) -> tuple[EveRecord, TwoQubitState]:
    """Measure the travel qubit in the computational basis and substitute.

    Returns the eavesdropper record and the post-attack pair, which is a
    product of the collapsed home qubit with the resent qubit.  Both are
    shared: one record per outcome, one pair per collapsed state, angle
    and outcome.
    """
    bit, collapsed = measure_computational(joint, TRAVEL, rng)
    return _INTERCEPTED[bit], _forged(collapsed, theta, bit)


@lru_cache(maxsize=_ANGLE_CACHE)
def _forged(collapsed: TwoQubitState, theta: float, bit: int) -> TwoQubitState:
    # ``resend_rows`` of the one pair.  The key holds the collapsed state
    # by identity, which is stable: the memo of the pair it collapsed
    # from returns the same object every round.
    return _trusted_state(resend_rows(collapsed.amps[None], np.array([bit]), theta)[0], 2)


def resend_rows(collapsed: np.ndarray, bits: np.ndarray, theta: float) -> np.ndarray:
    """The pairs forwarded after intercepting each row's travel qubit.

    Row r of ``collapsed`` is a (home, travel) pair whose travel qubit
    was found to be ``bits[r]``; its home qubit is paired with
    ``resend_state(theta, bits[r])``.
    """
    rows = collapsed.shape[0]
    home = collapsed.reshape(rows, 2, 2)[np.arange(rows), :, bits]
    resent = np.array([resend_state(theta, bit).amps for bit in (0, 1)])[bits]
    return (home[:, :, None] * resent[:, None, :]).reshape(rows, 4)


@lru_cache(maxsize=_ANGLE_CACHE)
def return_discrimination_basis(
    theta: float, intercept_bit: int
) -> tuple[PureState, PureState] | None:
    """Optimal basis for reading the encoded bit off the returning qubit.

    Discriminates the resent state from its phase-flipped image.  None
    when the two coincide up to phase (theta = 0), where no measurement
    helps.
    """
    s0 = resend_state(theta, intercept_bit)
    s1 = apply_pauli_z(s0, 0)
    return discrimination_basis(s0, s1)


@lru_cache(maxsize=_ANGLE_CACHE)
def omega_state(alpha: float) -> TwoQubitState:
    """Pair state cos(alpha)|psi-> + sin(alpha)|phi+> left by the symmetric attack."""
    alpha = _canonical_angle(alpha, np.pi / 4.0, "mixing angle")
    c = np.cos(alpha)
    s = np.sin(alpha)
    inv = 1.0 / np.sqrt(2.0)
    amps = np.array([s * inv, c * inv, -c * inv, s * inv], dtype=np.complex128)
    return _trusted_state(amps, 2)


def detection_probability_measurement(theta: float) -> float:
    """Control-mode detection probability sin^2(theta/2) of measure-resend."""
    theta = _canonical_angle(theta, np.pi, "angle")
    return float(np.sin(0.5 * theta) ** 2)
