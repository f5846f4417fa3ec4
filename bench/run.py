"""Benchmark of pingpong_qkd: one workload, one process, one thread.

    python3 bench/run.py --workload session-intercept --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory and never from an installed copy.  The
run times many short repeats of the workload for ``--seconds`` seconds,
checks the pooled outputs against rates computed apart from the program
(``checks.py``), and prints one JSON object as its last line.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``rounds_per_s``: pair rounds per second of wall time at a fixed
  machine speed: each repeat's time is divided by the time of a
  reference kernel run right after it, and the median ratio is scaled
  to the kernel's nominal time (see README.md for why);
* ``setup_s``: from the script's first statement, before numpy or the
  package is imported, to the end of a fixed warm-up call, scaled by
  the cold set-up of a reference program timed right after it;
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` untraced and traced repeats alternate, and the
metrics are the per-layer ones from ``tracer.py``, plus
``css_qkd.completed_per_block`` and ``trace.overhead``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("session-intercept", "session-depolarizing", "qkd-depolarizing")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# stderr gets the first few tracebacks of failed repeats, not all of them
MAX_TRACEBACKS = 3
# the reference kernel's fastest time, and the reference program's cold
# set-up, on an idle 2-vCPU Intel Xeon VM; they only set the scale of
# rounds_per_s and setup_s (see README.md)
REF_NOMINAL_S = 0.0025
REF_SETUP_NOMINAL_S = 0.1
REF_SETUP_RUNS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_package() -> None:
    """Import pingpong_qkd from this checkout's src/, single-threaded."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "pingpong_qkd" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'pingpong_qkd'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pingpong_qkd

    if not Path(pingpong_qkd.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported {pingpong_qkd.__file__}, not the checkout's copy")


class Throughput:
    """Repeat times, each scaled by the reference kernel's time right after it.

    ``t_ref / t_repeat`` is the repeat's speed in units of the machine's
    current speed; its median over the run, times the rounds of a repeat
    over ``REF_NOMINAL_S``, is rounds per second at the nominal machine
    speed.
    """

    def __init__(self) -> None:
        self.ratios: list[float] = []

    def add(self, repeat_s: float, reference_s: float) -> None:
        self.ratios.append(reference_s / repeat_s)

    def rate(self, rounds: int) -> float:
        return statistics.median(self.ratios) * rounds / REF_NOMINAL_S


def reference_setup_s() -> float:
    """Median cold set-up of ``setup_reference.py`` over fresh interpreters."""
    script = Path(__file__).resolve().parent / "setup_reference.py"
    times = []
    for _ in range(REF_SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_package()
    from reference import reference_kernel
    from tracer import CallTracer
    from workloads import WORKLOADS, repeat_seed, warm_up

    warm_up()
    setup_s = time.perf_counter() - START
    if not args.trace:
        setup_s *= REF_SETUP_NOMINAL_S / reference_setup_s()
    reference_kernel()

    workload = WORKLOADS[args.workload]
    rounds = workload.spec.rounds
    pool = workload.pool()
    tracer = CallTracer() if args.trace else None
    plain, traced = Throughput(), Throughput()
    pooled = {"blocks": 0, "completed": 0, "rounds": 0, "message": 0}
    attempted = failed = 0
    traced_s = 0.0
    problems: list[str] = []

    deadline = time.perf_counter() + args.seconds
    while attempted < 2 or time.perf_counter() < deadline:
        k = attempted
        attempted += 1
        config = workload.config(repeat_seed(args.seed, k))
        use_tracer = tracer is not None and k % 2 == 1
        try:
            with tracer if use_tracer else nullcontext():
                t0 = time.perf_counter()
                report = workload.run(config)
                elapsed = time.perf_counter() - t0
            errors = workload.repeat_errors(report)
        except Exception:
            failed += 1
            if failed <= MAX_TRACEBACKS:
                traceback.print_exc()
            continue
        if errors:
            failed += 1
            for e in errors:
                print(f"bench: repeat {k} failed: {e}", file=sys.stderr)
            continue
        t0 = time.perf_counter()
        reference_kernel()
        (traced if use_tracer else plain).add(elapsed, time.perf_counter() - t0)
        pool.add(report)
        if use_tracer:
            traced_s += elapsed
            pooled["rounds"] += rounds
            pooled["message"] += getattr(report, "n_message", 0)
            pooled["blocks"] += getattr(report, "n_blocks", 0)
            pooled["completed"] += getattr(report, "n_completed", 0)

    problems += pool.errors()
    if tracer is None:
        metrics = {
            "rounds_per_s": (plain.rate(rounds), "rounds/s") if plain.ratios else None,
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics(traced_s)
        problems += cross_check(args.workload, tracer, pooled)
        blocks = pooled["blocks"]
        metrics["css_qkd.completed_per_block"] = (
            pooled["completed"] / blocks if blocks else 0.0,
            "ratio",
        )
        metrics["trace.overhead"] = (
            plain.rate(rounds) / traced.rate(rounds) if plain.ratios and traced.ratios else None,
            "ratio",
        )
        unmeasured = sorted(
            name.removesuffix(".calls")
            for name, (value, _) in metrics.items()
            if name.endswith(".calls") and value == 0
        )
        if not blocks:
            unmeasured.append("css_qkd.completed_per_block")
        print("not measured (reported as 0): " + (", ".join(unmeasured) or "none"))

    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value[0], "unit": value[1]}
            for name, value in metrics.items()
            if value is not None
        },
    }
    print(json.dumps(result))
    return 0


def cross_check(workload: str, tracer, pooled: dict[str, int]) -> list[str]:
    """Traced call counts against totals the reports counted themselves."""
    expected = {"css_qkd.syndrome_decode": pooled["completed"]}
    if workload.startswith("session-"):
        expected["pingpong.run_round"] = pooled["rounds"]
        expected["quantum_core.bell_measure"] = pooled["message"]
    if workload == "session-intercept":
        expected["attacks.intercept_resend"] = pooled["rounds"]
    return [
        f"traced {key}.calls = {tracer.calls[key]}, the reports count {n}"
        for key, n in expected.items()
        if tracer.measured(key) and tracer.calls[key] != n
    ]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
