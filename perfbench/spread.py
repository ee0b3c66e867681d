"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads qmm,cli --seeds 1-10

Runs ``perfbench/run.py`` once per seed and workload, one run at a
time, and prints for each end-to-end metric its median and the distance
between the first and third quartile as a share of the median, next to
the bound fixed in BENCHMARK.json.  A spread below a third of the bound
is reported as steady.  ``--json FILE`` also writes every value.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, plants=()) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    for target in plants:
        argv += ["--plant", target]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(workload: str, seeds: list, seconds: float, plants=()) -> dict:
    """metric name -> list of values, one per seed; failed runs abort."""
    values: dict = {}
    for seed in seeds:
        result = run_once(workload, seed, seconds, plants)
        if not result["correct"]:
            raise RuntimeError(f"{workload} seed {seed}: {result['failed']} checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list) -> tuple:
    """(median, quartile distance / median), as the acceptance rule takes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--json", help="write every value to this file")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        values = collect(workload, parse_seeds(args.seeds), args.seconds)
        report[workload] = values
        for name, bound in BOUNDS.items():
            med, s = spread(values[name])
            verdict = "steady" if s < bound / 3 else "within bound" if s <= bound else "UNSTEADY"
            print(f"{workload:<10} {name:<12} median {med:10.4f}  spread {s:6.3f}  bound {bound}  {verdict}")
        sys.stdout.flush()
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
