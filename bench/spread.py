"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 bench/spread.py --seeds 10 --seconds 20 [--workload NAME ...] [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed and workload, one process
at a time, and prints for each metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json.
Run it from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, help="also write every run's result as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for name in args.workload or names:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"] = seed
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

        results = runs[name]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{name}: correct={correct}, failed {failed}/{attempted}")
        print("| metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{(q3 - q1) / med:.4f} | {bounds[metric]} |")
        print(flush=True)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
