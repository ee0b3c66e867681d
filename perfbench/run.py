"""ballquant benchmark: exact objects built cold, then verification passes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qmm --seed 1 --seconds 10 --trace 0

Workloads: qmm, structure, retract, cli (BENCHMARK.json says why each
exists).  With ``--trace 0`` the run sets up the workload's objects
several times from cold (``setup_s``, median), then runs verification
passes until ``--seconds`` have passed (``verify_s``, median) and reports
the peak resident memory of the process that did the work
(``peak_rss_mb``).  With ``--trace 1`` it runs one traced setup and
pass, with the public functions of the package wrapped, between two
untraced ones, and reports per-layer times and counts, the tracing
overhead, and whether the traced pass produced the same outputs.

Times are corrected for the speed of the machine while they were taken.
Every ``SAMPLE_INTERVAL_S`` a timer signal interrupts the work and
times a fixed exact-arithmetic loop that does not touch ballquant (for
``cli``, whose work runs in child processes, blocks of the loop run
between the commands instead; see ``Clock``).  A step's reported time
is its wall time, less the samples, scaled by ``REFERENCE_LOOP_S`` over
the mean loop time inside the step: seconds at the speed at which the
loop takes ``REFERENCE_LOOP_S``.  On a shared
machine the wall time of the same pass drifts by half within minutes;
the loop drifts with it.  Raw wall medians are printed in the report.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it are a
readable report.  Every check compares an output with what this commit
is known to produce; ``failed`` counts the checks that did not match.

``--plant module.function`` (repeatable) makes that function take twice
as long by spinning after each call; ``perfbench/selectivity.py`` uses
it to show which workload and metric a slower layer moves.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRUNCATION_ENV = "BALLQUANT_TRUNCATION_ORDER"

WORKLOADS = ["qmm", "structure", "retract", "cli"]
# Cold set-ups per untraced run; setup_s is their median.
SETUPS = {"qmm": 3, "structure": 4, "retract": 4, "cli": 15}
# Passes are repeated until --seconds have passed, and at least this
# often.  A qmm pass takes 5 to 11 s of wall time, so a qmm run is three
# passes whatever --seconds is; that and the set-ups keep every run well
# inside its time limit when the machine is slow.
MIN_PASSES = 3
# The layer each workload exists to exercise, checked against the trace.
EXPECTED_DOMINANT = {
    "qmm": "formal_star",
    "structure": "lie_core",
    "retract": "retract_pde",
    "cli": "process start",
}
# Nominal time of the reference loop, near its typical time on the
# machine where baseline.json was recorded (it ran from about 1 ms when
# the machine was idle to 7 ms under load).  Only ratios between runs
# matter.
REFERENCE_LOOP_S = 0.0016
# Seconds between two runs of the reference loop while a step runs.
SAMPLE_INTERVAL_S = 0.05
# When the work runs in child processes the timer cannot interrupt it,
# and sampling in the parent would compete with the children.  Instead a
# block of BLOCK_LOOPS loops runs after every step, and a step is scaled
# by the median of the last BLOCK_WINDOW blocks.
BLOCK_LOOPS = 25
BLOCK_WINDOW = 9


def reference_loop() -> float:
    """Wall time of a fixed loop of Fraction and dict work."""
    start = time.perf_counter()
    acc: dict = {}
    zero = Fraction(0)
    for i in range(1, 400):
        k = i % 97
        acc[k] = acc.get(k, zero) + Fraction(i % 13 + 1, i % 7 + 1) * Fraction(3, i % 5 + 1)
    return time.perf_counter() - start


class Clock:
    """Times steps at the speed the machine had while they ran.

    While the clock is started, a SIGALRM every ``SAMPLE_INTERVAL_S``
    interrupts the running step between two bytecodes and times the
    reference loop.  A step's corrected time is its wall time minus the
    samples taken inside it, scaled by ``REFERENCE_LOOP_S`` over their
    mean.  With a tracer, each sample is a ``bench.sample`` span, so its
    time is not charged to the function it interrupted.
    """

    def __init__(self, sample_inside: bool = True):
        self.sample_inside = sample_inside
        self.samples: list = []
        self.tracer = None

    def _sample(self, signum, frame) -> None:
        if self.tracer is None:
            self.samples.append(reference_loop())
        else:
            self.samples.append(self.tracer.span("bench.sample", reference_loop))

    def __enter__(self):
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        else:
            self._sample_block()
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample_block(self) -> None:
        self.samples.append(statistics.mean(reference_loop() for _ in range(BLOCK_LOOPS)))

    def run(self, fn) -> tuple:
        """(corrected seconds, wall seconds, result) of fn()."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        if not self.sample_inside:
            self._sample_block()
            speed = REFERENCE_LOOP_S / statistics.median(self.samples[-BLOCK_WINDOW:])
            return wall * speed, wall, result
        inside = self.samples[first:]
        if not inside:  # a step shorter than the interval
            inside = [reference_loop()]
        speed = REFERENCE_LOOP_S / statistics.mean(inside)
        return (wall - sum(self.samples[first:])) * speed, wall, result

    def run_pass(self, w) -> tuple:
        corrected = wall = 0.0
        checks = []
        for step in w.steps():
            c, t, out = self.run(lambda: guarded(step))
            corrected += c
            wall += t
            checks += out
        return corrected, wall, checks


def log(text: str) -> None:
    print(text, flush=True)


def tail_note(values: list) -> str:
    """Median plus the highest percentile with at least ten samples
    beyond it, when the run took enough samples to have one."""
    n = len(values)
    med = statistics.median(values)
    q = 100 * (n - 10) // n if n > 10 else 0
    if q <= 50:
        return f"median {med:.4f} (n={n}; no percentile above the median has 10 samples beyond it)"
    ordered = sorted(values)
    return f"median {med:.4f}, p{q} {ordered[(n * q) // 100 - 1]:.4f} (n={n})"


def guarded(step) -> list:
    try:
        return step()
    except Exception:  # a crashing step is a failed check, not a lost run
        traceback.print_exc()
        return [("step.error", False, "exception")]


def untraced(w, name: str, seconds: float) -> tuple:
    checks = []
    setups, setups_wall, passes, passes_wall = [], [], [], []
    with Clock(sample_inside=name != "cli") as clock:
        for _ in range(SETUPS[name]):
            c, t, out = clock.run(w.setup)
            setups.append(c)
            setups_wall.append(t)
            checks += out
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            c, t, out = clock.run_pass(w)
            passes.append(c)
            passes_wall.append(t)
            checks += out
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    log(f"reference loop: {len(clock.samples)} samples, median {statistics.median(clock.samples):.6f} s")
    log(f"setup_s   {tail_note(setups)}; raw wall median {statistics.median(setups_wall):.4f}")
    log(f"verify_s  {tail_note(passes)}; raw wall median {statistics.median(passes_wall):.4f}")
    log(f"peak_rss_mb {peak_mb:.2f} ({'largest child' if name == 'cli' else 'this process'})")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verify_s": {"value": statistics.median(passes), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return checks, metrics


def traced(w, name: str) -> tuple:
    """One traced setup and pass between two untraced ones.

    The overhead is the speed-corrected traced time minus the mean of
    the speed-corrected untraced times; layer self times, the gap and
    trace.setup_s / trace.verify_s are raw wall times of the traced
    setup and pass.
    """
    import tracer
    import workloads

    tr = tracer.Tracer()
    clock = Clock(sample_inside=name != "cli")

    def setup_and_pass(traced_now: bool):
        if traced_now:
            c_setup, t_setup, setup_checks = clock.run(lambda: tr.span("bench.setup", w.setup))
            c_pass, t_pass, pass_checks = tr.span("bench.verify", clock.run_pass, w)
        else:
            c_setup, t_setup, setup_checks = clock.run(w.setup)
            c_pass, t_pass, pass_checks = clock.run_pass(w)
        return c_setup + c_pass, t_setup, t_pass, setup_checks + pass_checks

    with clock:
        # The first set-up in a process runs slower than later ones; keep
        # it out of the comparison.
        checks = w.setup()
        before = setup_and_pass(False)
        w.traced = True
        clock.tracer = tr
        tr.install()
        try:
            traced_c, t_setup, t_verify, t_checks = setup_and_pass(True)
        finally:
            tr.uninstall()
        clock.tracer = None
        w.traced = False
        after = setup_and_pass(False)
    summary = tr.summary()
    for child in getattr(w, "trace_summaries", []):
        summary = tracer.merge(summary, child)
    same = all(workloads.digest(u[3]) == workloads.digest(t_checks) for u in (before, after))
    checks += before[3] + t_checks + after[3] + [("trace.same_outputs", same, "")]

    untraced_c = (before[0] + after[0]) / 2
    overhead = traced_c - untraced_c
    traced_s = t_setup + t_verify
    layer_self = summary["layer_self"]
    accounted = sum(layer_self.get(layer, 0.0) for layer in tracer.LAYERS)
    sampled = summary["self"].get("bench.sample", 0.0)
    gap = traced_s - accounted - sampled
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in tracer.layer_metrics(summary).items()}
    if name == "cli":
        metrics["cli.startup_s"]["value"] = (before[1] + after[1]) / 2
        metrics["cli.stdout_bytes"]["value"] = w.stdout_bytes
    extra = {
        "trace.setup_s": (t_setup, "s"),
        "trace.verify_s": (t_verify, "s"),
        "trace.untraced_s": (untraced_c, "s"),
        "trace.traced_s": (traced_c, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.hook_s": (layer_self.get("trace", 0.0), "s"),
        "trace.sample_s": (sampled, "s"),
        "trace.gap_s": (gap, "s"),
        "trace.spans": (sum(summary["calls"].values()), "count"),
    }
    for k, (v, unit) in extra.items():
        metrics[k] = {"value": v, "unit": unit}

    log(f"traced setup {t_setup:.4f} s + pass {t_verify:.4f} s = {traced_s:.4f} s raw wall")
    log(f"speed-corrected: untraced {untraced_c:.4f} s (mean of 2), traced {traced_c:.4f} s")
    log(
        f"tracing overhead {overhead:.4f} s speed-corrected"
        f" ({100 * overhead / traced_c:.1f}%), of which counter hooks"
        f" {layer_self.get('trace', 0.0):.4f} s"
    )
    log("functions by self time (calls, busy s, self s):")
    by_self = sorted(summary["self"].items(), key=lambda kv: -kv[1])
    for fn_name, own in by_self[:12]:
        busy = summary["busy"].get(fn_name, 0.0)
        log(f"  {fn_name:<44} {summary['calls'][fn_name]:7d} {busy:9.4f} {own:9.4f}")
    log("layer self time (traced setup + pass):")
    ranked = sorted(tracer.LAYERS, key=lambda layer: -layer_self.get(layer, 0.0))
    for layer in ranked:
        v = layer_self.get(layer, 0.0)
        log(f"  {layer:<18} {v:9.4f} s  {100 * v / traced_s:5.1f}%")
    log(f"  {'(speed samples)':<18} {sampled:9.4f} s  {100 * sampled / traced_s:5.1f}%")
    log(f"  {'(outside layers)':<18} {gap:9.4f} s  {100 * gap / traced_s:5.1f}%")
    if gap > max(overhead, 0.0):
        what = "interpreter start and imports of the children" if name == "cli" else "benchmark code"
        log(f"gap {gap:.4f} s outside the layers exceeds the tracing overhead: {what}")
    dominant = ranked[0]
    if name == "cli":
        # A command is dominated by process start when its traced main()
        # takes less than a bare interpreter plus the import.
        mains = [c.get("busy", {}).get("cli.main", 0.0) for c in w.trace_summaries]
        started = sum(1 for t in mains if t < metrics["cli.startup_s"]["value"])
        log(f"process start dominates {started} of {len(mains)} commands")
        if 2 * started > len(mains):
            dominant = "process start"
    verdict = "as expected" if dominant == EXPECTED_DOMINANT[name] else "NOT as expected"
    log(f"dominant: {dominant} ({verdict}; the workload targets {EXPECTED_DOMINANT[name]})")
    return checks, metrics


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("bits"):
        return "bits"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--plant", action="append", default=[], metavar="module.function")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ballquant" / "__init__.py").is_file():
        sys.stderr.write(f"no ballquant sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    stray = os.environ.pop(TRUNCATION_ENV, None)
    log(f"workload {args.workload}, seed {args.seed}, python {sys.version.split()[0]}")
    log(f"{TRUNCATION_ENV} was {'unset' if stray is None else repr(stray)}; unset for this run")

    import tracer
    import workloads

    undo = []
    for target in args.plant:
        undo += tracer.plant_delay(target, 1.0)
        log(f"planted delay: {target} takes twice as long")
    w = workloads.make(args.workload, args.seed, ROOT)
    if args.trace:
        checks, metrics = traced(w, args.workload)
    else:
        checks, metrics = untraced(w, args.workload, args.seconds)
    tracer.restore(undo)

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        log(f"FAILED {name}: {detail}")
    log(f"checks: {len(checks)} attempted, {len(failed)} failed")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
