"""The benchmark's tracer binds package functions by name.

``perfbench/tracer.py`` wraps every ``(module, attr)`` in its ``TARGETS``
and ``COUNT_ONLY`` lists; a refactor that renames or removes one of them
breaks traced benchmark runs.  This test fails first.  ``verify_qmm``
reaches the star product through ``formal_star.half_commutator``, one
call per row of moments, so a traced ``qmm`` run charges the walk to
that name; ``c_operator`` is no longer on its path, and the selectivity
row that plants a delay there to move ``qmm`` cannot move.  The in-process
workloads of ``perfbench/workloads.py`` call package functions directly
(``solve_in_span``, ``k_basis``, the table basis) and check every answer;
one pass of each at seed 1 must report every check ok, and a second
``qmm`` pass must find every bracket of every chart already read.
"""
from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_tracer():
    """Execute the tracer source without importing perfbench as a package
    (and without writing a bytecode cache next to it)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = load_tracer()


def load_workloads():
    """Execute the workload source the same way, with the tracer loaded
    above standing in for the ``tracer`` module it imports."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    saved = sys.modules.get("tracer")
    sys.modules["tracer"] = tracer
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        if saved is None:
            del sys.modules["tracer"]
        else:
            sys.modules["tracer"] = saved
    return module


@pytest.mark.parametrize(
    "module, attr",
    tracer.TARGETS + tracer.COUNT_ONLY,
    ids=[f"{m}.{a}" for m, a in tracer.TARGETS + tracer.COUNT_ONLY],
)
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module(f"ballquant.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(owner.__dict__.get(name))


def test_every_hook_has_a_traced_function():
    traced = {f"{m}.{a}" for m, a in tracer.TARGETS + tracer.COUNT_ONLY}
    assert set(tracer.HOOKS) <= traced


def test_verify_qmm_calls_the_rebound_half_commutator_once_per_row():
    """verify_qmm lands each pair's commutator through half_commutator,
    reached by its module name once per row, the moment of the row
    against every later one, so the rows cover every checked pair once
    and a traced qmm run charges the row walk to formal_star."""
    from ballquant.ball_quantization import build_qmm, verify_qmm

    calls = []

    def make_wrapper(original):
        def wrapper(*args, **kwargs):
            calls.append(args[:2])
            return original(*args, **kwargs)

        return wrapper

    undo = tracer.rebind("formal_star", "half_commutator", make_wrapper)
    try:
        report = verify_qmm(build_qmm(2), 6)
    finally:
        tracer.restore(undo)
    assert report.ok and report.exact
    assert [len(row) for _, row in calls] == [7, 6, 5, 4, 3, 2, 1]
    assert sum(len(row) for _, row in calls) == report.checked == 28


def test_h2_dimension_builds_its_rows_through_the_rebound_d2_row():
    """On a fresh algebra h2_dimension builds one degree-two row per triple
    of lie_core.bracket_triples through ce_cohomology._d2_row, by module
    name, so the tracer's ce_cohomology.d2_rows counter sees every row."""
    from ballquant.ce_cohomology import h2_dimension
    from ballquant.lie_core import bracket_triples
    from ballquant.psd_builder import PsdSpec, build_psd

    g = build_psd(PsdSpec(3, [2, 1, 2])).algebra
    rows = []

    def make_wrapper(original):
        def wrapper(*args, **kwargs):
            rows.append(original(*args, **kwargs))
            return rows[-1]

        return wrapper

    undo = tracer.rebind("ce_cohomology", "_d2_row", make_wrapper)
    try:
        h2 = h2_dimension(g)
    finally:
        tracer.restore(undo)
    assert h2 == 3
    assert len(rows) == len(list(bracket_triples(g.rows))) and any(rows)


def test_warm_qmm_pass_reads_no_structure_constants():
    """Each chart keeps the brackets it has read: after one qmm pass at
    seed 1, a second pass calls LieAlgebra.bracket zero times, still
    reports every check ok and still reaches the rebound
    formal_star.half_commutator."""
    work = load_workloads().make("qmm", 1, ROOT)
    checks = work.setup()
    for step in work.steps():
        checks += step()
    bracket_calls, star_calls = [], []

    def counting(calls):
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            return wrapper

        return make_wrapper

    undo = tracer.rebind("lie_core", "LieAlgebra.bracket", counting(bracket_calls))
    undo += tracer.rebind("formal_star", "half_commutator", counting(star_calls))
    try:
        for step in work.steps():
            checks += step()
    finally:
        tracer.restore(undo)
    assert not bracket_calls and star_calls
    assert len(checks) == 9 and all(check[1] for check in checks)


@pytest.mark.parametrize("name", ["qmm", "structure", "retract"])
def test_in_process_workload_checks_pass(name):
    work = load_workloads().make(name, 1, ROOT)
    checks = work.setup()
    for step in work.steps():
        checks += step()
    failed = [check for check in checks if not check[1]]
    assert checks and not failed
