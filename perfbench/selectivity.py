"""Check that each workload isolates the layer it claims to.

Usage, from the root of a checkout:

    python3 perfbench/selectivity.py --seeds 1-3

Plants a delay from the benchmark side (``run.py --plant``: the function
takes twice as long) and compares medians over the seeds with an
unplanted baseline of the same seeds:

* a delay in ``formal_star.c_operator`` must move ``verify_s`` on
  ``qmm`` by more than its bound and leave every metric of
  ``structure`` within its bound;
* a delay in ``lie_core.jacobi_report`` must move ``setup_s`` on
  ``qmm`` by more than its bound and leave ``verify_s`` within it.

Exits 0 when every expectation holds.
"""
from __future__ import annotations

import argparse
import statistics
import sys

from spread import BENCH, BOUNDS, collect, parse_seeds

# (planted function, workload, metric, should the metric move?)
EXPECTATIONS = [
    ("formal_star.c_operator", "qmm", "verify_s", True),
    ("formal_star.c_operator", "structure", "verify_s", False),
    ("formal_star.c_operator", "structure", "setup_s", False),
    ("formal_star.c_operator", "structure", "peak_rss_mb", False),
    ("lie_core.jacobi_report", "qmm", "setup_s", True),
    ("lie_core.jacobi_report", "qmm", "verify_s", False),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    runs: dict = {}

    def medians(plant, workload):
        key = (plant, workload)
        if key not in runs:
            plants = [plant] if plant else []
            values = collect(workload, seeds, args.seconds, plants)
            runs[key] = {name: statistics.median(v) for name, v in values.items()}
        return runs[key]

    ok = True
    for plant, workload, metric, should_move in EXPECTATIONS:
        base = medians(None, workload)[metric]
        planted = medians(plant, workload)[metric]
        change = planted / base - 1
        moved = change > BOUNDS[metric]
        good = moved == should_move
        ok = ok and good
        expect = "moves" if should_move else "stays"
        print(
            f"{plant:<24} {workload:<10} {metric:<12} {base:9.4f} -> {planted:9.4f}"
            f"  {100 * change:+7.1f}% (bound {100 * BOUNDS[metric]:.0f}%)  expected {expect}:"
            f" {'ok' if good else 'FAILED'}",
            flush=True,
        )
    print("selectivity:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
