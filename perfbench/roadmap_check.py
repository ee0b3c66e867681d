"""Re-time the entries of the ROADMAP baseline table that overlap the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/roadmap_check.py

Times, once each and cold: ``build_su1n`` at N = 3 and 4,
``verify_qmm`` at N = 3, order 12, all pairs, alpha = 1, and the CLI
command ``verify --suite qmm --N 3 --alpha 1`` in a fresh interpreter.
Prints one JSON object with the raw wall time of each and, for the
in-process ones, the time speed-corrected as in ``run.py``.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from ballquant import ball_quantization as bq, su1n_model as sm
    from run import Clock
    from workloads import child_env

    out = {}
    with Clock() as clock:
        for n in (3, 4):
            sm.build_su1n.cache_clear()
            corrected, wall, _ = clock.run(lambda: sm.build_su1n(n))
            out[f"build_su1n_N{n}"] = {"raw_s": wall, "corrected_s": corrected}
        table = bq.build_qmm(3, Fraction(1))
        corrected, wall, report = clock.run(lambda: bq.verify_qmm(table, order=12, pairs="all"))
        out["verify_qmm_N3"] = {"raw_s": wall, "corrected_s": corrected}
    if not report.ok:
        sys.stderr.write("verify_qmm failed at N = 3\n")
        return 1
    argv = [sys.executable, "-m", "ballquant.cli", "verify", "--suite", "qmm", "--N", "3", "--alpha", "1"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(ROOT), capture_output=True, check=False)
    out["cli_verify_qmm_N3"] = {"raw_s": time.perf_counter() - start}
    if proc.returncode != 0:
        sys.stderr.write("CLI verify --suite qmm --N 3 failed\n")
        return 1
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
