"""Tests for the normalized chart, group law, moments and their star
product covariance.

Frozen values are hand computed for N = 2, where the chart basis has
Gram matrix diag(1, 1/4), the compact centralizer generator Y acts on V
by A = [[0, 3/2], [-6, 0]] and the linear correction functional takes
the value 1 on Y.
"""
from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from ballquant.ball_quantization import (
    GroupElement,
    IntegrabilityError,
    TruncationOrderError,
    _solve_zeta,
    build_chart,
    build_qmm,
    calibrate,
    classical_moment,
    field_bracket,
    fundamental_field,
    group_identity,
    group_inverse,
    group_mul,
    integrate_exact_gradient,
    mutate_add_nu_const,
    mutate_drop_nu2,
    poisson_structure,
    qmm_labels,
    qmm_table_to_json,
    resolve_truncation_order,
    verify_qmm,
)
from ballquant.formal_star import CoefFn, poisson
from ballquant.lie_core import LieAlgebra, structure_in
from ballquant.linalg import Frame, solve_in_span, vec_add, vec_scale
from ballquant.su1n_model import build_su1n, model_to_json

from oracles import field_bracket_oracle, leading_principal_minors, verify_qmm_oracle


def m_action(chart, k: int) -> list:
    """The matrix A by which the m vector basis[k] acts on V, read from
    the chart's brackets: A[i][j] is the f_i coordinate of
    [basis[k], f_j] = -[f_j, basis[k]]."""
    cols = [chart.bracket(1 + j, k) for j in range(chart.nv)]
    return [[-col.get(1 + i, 0) for col in cols] for i in range(chart.nv)]


def test_chart_frozen_n2():
    chart = build_chart(2)
    assert chart.nv == 2
    assert chart.omega == [[F(0), F(1)], [F(-1), F(0)]]
    assert chart.gram == [[F(1), F(0)], [F(0), F(1, 4)]]
    assert [dict(chart.bracket(1 + j, 4)) for j in range(2)] == [{2: F(6)}, {1: F(-3, 2)}]
    assert m_action(chart, 4) == [[F(0), F(3, 2)], [F(-6), F(0)]]


def test_chart_shapes():
    for n in (1, 2, 3):
        chart = build_chart(n)
        assert chart.nv == 2 * (n - 1)
        assert len(chart.m_basis) == (n - 1) ** 2
        # positive definite Gram
        if chart.nv:
            assert all(m > 0 for m in leading_principal_minors(chart.gram))
        # every m action is symplectic for omega
        for y in range(2 + chart.nv, 2 + chart.nv + len(chart.m_basis)):
            a = m_action(chart, y)
            for i in range(chart.nv):
                for j in range(chart.nv):
                    lhs = sum(chart.omega[i][k] * a[k][j] for k in range(chart.nv))
                    rhs = sum(chart.omega[j][k] * a[k][i] for k in range(chart.nv))
                    assert lhs == rhs


def test_group_law_frozen():
    chart = build_chart(2)
    g1 = GroupElement(F(1), (F(0), F(0)), F(5))
    g2 = GroupElement(F(3), (F(0), F(0)), F(0))
    prod = group_mul(chart, g1, g2)
    assert prod == GroupElement(F(3), (F(0), F(0)), F(45))


def test_group_law_axioms():
    rng = random.Random(11)
    chart = build_chart(2)
    e = group_identity(chart)

    def rand_el():
        return GroupElement(
            F(rng.randint(1, 5), rng.randint(1, 5)),
            (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
            F(rng.randint(-4, 4)),
        )

    for _ in range(12):
        g, h, k = rand_el(), rand_el(), rand_el()
        assert group_mul(chart, g, e) == g
        assert group_mul(chart, e, g) == g
        assert group_mul(chart, g, group_inverse(chart, g)) == e
        assert group_mul(chart, group_inverse(chart, g), g) == e
        assert group_mul(chart, group_mul(chart, g, h), k) == group_mul(
            chart, g, group_mul(chart, h, k)
        )


def test_fundamental_fields_frozen():
    chart = build_chart(2)
    fH = fundamental_field(chart, chart.H)
    assert fH[0].terms == {(0, (0, 0), 0, 0): F(-1)}
    assert all(c.is_zero() for c in fH[1:])
    fE = fundamental_field(chart, chart.E)
    assert fE[3].terms == {(-2, (0, 0), 0, 0): F(-1)}
    assert all(c.is_zero() for c in fE[:3])
    f1 = fundamental_field(chart, chart.fs[0])
    assert f1[1].terms == {(-1, (0, 0), 0, 0): F(-1)}
    assert f1[2].is_zero()
    assert f1[3].terms == {(-1, (0, 1), 0, 0): F(-1, 2)}
    fY = fundamental_field(chart, chart.m_basis[0])
    assert fY[0].is_zero() and fY[3].is_zero()
    assert fY[1].terms == {(0, (0, 1), 0, 0): F(-3, 2)}
    assert fY[2].terms == {(0, (1, 0), 0, 0): F(6)}


def test_fundamental_field_rejects_outside_sm():
    chart = build_chart(2)
    sigma_e = chart.model.apply_sigma(chart.E)
    with pytest.raises(ValueError):
        fundamental_field(chart, sigma_e)


def test_chart_basis_is_the_table_basis_in_label_order():
    for n in (1, 2, 3):
        chart = build_chart(n)
        nv, dm = chart.nv, len(chart.m_basis)
        sigma = [chart.model.apply_sigma(x) for x in chart.fs + [chart.E]]
        assert chart.basis == (chart.H, *chart.fs, chart.E, *chart.m_basis, *sigma)
        assert len(chart.basis) == len(qmm_labels(n)) == chart.model.algebra.dim
        assert chart.frame.basis == Frame(chart.basis).basis
        assert chart.basis[0] is chart.H and chart.basis[1 + nv] is chart.E
        assert chart.basis[2 + nv : 2 + nv + dm] == tuple(chart.m_basis)
        table = build_qmm(n)
        assert table.basis is table.chart.basis and table.frame is table.chart.frame


@pytest.mark.parametrize("N", [1, 2, 3])
def test_chart_and_table_cannot_change_the_cached_model(N):
    """The table basis holds the cached model's read-only vectors (H, m)
    and read-only vectors the chart owns (f, E, sigma images): a write
    through any table vector raises, the model's vectors are not wrapped
    a second time, and the cached model stays as built."""
    model = build_su1n(N)
    before = (model_to_json(model), dict(model.H0), qmm_table_to_json(build_qmm(N)))
    table = build_qmm(N)
    assert table.chart.H is model.H0
    roots = [x for r in model.roots for x in r.space.basis]
    shared = [model.H0] + list(model.m_space.basis) + roots
    sevens = {j: F(7) for j in range(model.algebra.dim)}
    for v in table.basis:
        with pytest.raises((TypeError, AttributeError)):
            v.update(sevens)
        with pytest.raises(TypeError):
            v[0] = F(7)
    owned = [v for v in table.basis if not any(v is w for w in shared)]
    assert len(owned) >= table.chart.nv + 2
    model = build_su1n(N)
    assert (model_to_json(model), model.H0, qmm_table_to_json(build_qmm(N))) == before


def test_chart_reads_name_the_block_a_vector_left():
    """Brackets are read by position in the chart basis, so a chart whose
    basis holds vectors of the wrong block at those positions raises each
    check by name."""
    chart = build_chart(2)
    H, f1, f2, E, y, sf1, sf2, sE = chart.basis
    with pytest.raises(ValueError, match="^element lies outside the solvable part plus m$"):
        fundamental_field(chart, sE)
    with pytest.raises(ValueError, match="^m does not preserve the short root space$"):
        fundamental_field(replace(chart, basis=(H, f1, f2, E, sE, sf1, sf2, sE)), y)
    m_left = replace(chart, m_basis=[f1, f2], basis=(H, f1, f2, E, f1, f2, sf1, sf2, sE))
    with pytest.raises(ValueError, match=r"^\[m, m\] left m$"):
        _solve_zeta(m_left)
    with pytest.raises(ValueError, match=r"^\[V, sigma V\] left a \+ m$"):
        _solve_zeta(replace(chart, basis=(H, H, E, E, y, sf1, sf2, sE)))
    repeated = replace(chart, m_basis=[y, y], basis=(H, f1, f2, E, y, y, sf1, sf2, sE))
    with pytest.raises(ValueError, match="^correction functional is underdetermined$"):
        _solve_zeta(repeated)


def test_field_homomorphism():
    rng = random.Random(19)
    chart = build_chart(2)
    basis = [chart.H] + chart.fs + [chart.E] + chart.m_basis
    for _ in range(8):
        x, y = {}, {}
        for b in basis:
            cx, cy = rng.randint(-2, 2), rng.randint(-2, 2)
            x = vec_add(x, vec_scale(b, cx))
            y = vec_add(y, vec_scale(b, cy))
        lhs = field_bracket(fundamental_field(chart, x), fundamental_field(chart, y))
        rhs = fundamental_field(chart, chart.model.algebra.bracket(x, y))
        assert all(a.sub(b).is_zero() for a, b in zip(lhs, rhs))


def test_classical_moments_frozen():
    chart = build_chart(2)
    P = poisson_structure(chart)
    assert classical_moment(chart, chart.H, P).terms == {(0, (0, 0), 0, 1): F(2)}
    assert classical_moment(chart, chart.E, P).terms == {(-2, (0, 0), 0, 0): F(1)}
    assert classical_moment(chart, chart.fs[0], P).terms == {(-1, (0, 1), 0, 0): F(1)}
    assert classical_moment(chart, chart.fs[1], P).terms == {(-1, (1, 0), 0, 0): F(-1)}
    lam_y = classical_moment(chart, chart.m_basis[0], P)
    assert lam_y.terms == {(0, (2, 0), 0, 0): F(3), (0, (0, 2), 0, 0): F(3, 4)}


def test_classical_moment_reads_h_x_through_the_kept_brackets(monkeypatch):
    """[H, x], which decides whether the constant is pinned, used to be a
    fresh algebra bracket per moment; once the chart keeps row 0 (and the
    m action the field reads), the moments of s + m make no
    LieAlgebra.bracket call and keep their values."""
    chart = build_chart(2)
    P = poisson_structure(chart)
    xs = [chart.H, *chart.fs, chart.E, *chart.m_basis]
    first = [classical_moment(chart, x, P).terms for x in xs]
    assert all((0, k) in chart._brackets for k in range(1, len(xs)))
    calls = count_brackets(monkeypatch)
    assert [classical_moment(chart, x, P).terms for x in xs] == first and calls == []


def test_classical_covariance():
    for n in (1, 2):
        chart = build_chart(n)
        P = poisson_structure(chart)
        basis = [chart.H] + chart.fs + [chart.E] + chart.m_basis
        lams = [classical_moment(chart, x, P) for x in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                br = chart.model.algebra.bracket(basis[i], basis[j])
                coords = solve_in_span(basis, br)
                rhs = CoefFn.zero(chart.nv)
                for c, lam in zip(coords, lams):
                    rhs = rhs.add(lam.scale(c))
                assert poisson(lams[i], lams[j], P).sub(rhs).is_zero()


def test_integrate_gradient_error():
    comps = [
        CoefFn.zero(2),
        CoefFn.monomial(2, 0, (0, 1), 0, 0, F(1)),
        CoefFn.zero(2),
        CoefFn.zero(2),
    ]
    with pytest.raises(IntegrabilityError) as exc:
        integrate_exact_gradient(comps)
    assert any(not r.is_zero() for r in exc.value.residuals)


def test_build_qmm_n1_frozen():
    table = build_qmm(1)
    assert table.labels == ["H", "E", "sE"]
    mu_se = table.moments[2]
    assert mu_se.coeffs[0].terms == {(2, (), 0, 2): F(4), (2, (), 2, 0): F(1)}
    assert mu_se.coeffs[1].is_zero() and mu_se.coeffs[2].is_zero()
    rep = verify_qmm(table, order=6)
    assert rep.ok and rep.exact and rep.checked == 3


def test_build_qmm_n2_frozen():
    table = build_qmm(2)
    assert table.labels == ["H", "f1", "f2", "E", "m1", "sf1", "sf2", "sE"]
    mu_y = table.moments[4]
    assert mu_y.coeffs[0].terms == {
        (0, (2, 0), 0, 0): F(3),
        (0, (0, 2), 0, 0): F(3, 4),
        (0, (0, 0), 1, 0): F(1),
    }
    mu_sf1 = table.moments[5]
    assert mu_sf1.coeffs[0].terms == {
        (1, (1, 0), 0, 1): F(4),
        (1, (2, 1), 0, 0): F(-1),
        (1, (0, 3), 0, 0): F(-1, 4),
        (1, (0, 1), 1, 0): F(-1),
    }
    mu_se = table.moments[7]
    assert mu_se.coeffs[1].is_zero()
    assert mu_se.coeffs[2].terms == {(2, (0, 0), 0, 0): F(1)}


def test_verify_qmm_n2():
    table = build_qmm(2)
    rep = verify_qmm(table, order=10)
    assert rep.ok and rep.exact and rep.checked == 28


def test_verify_qmm_rejects_an_unknown_pair_selection():
    with pytest.raises(ValueError, match="pairs"):
        verify_qmm(build_qmm(1), order=1, pairs="x")


def test_verify_qmm_numeric_alpha():
    table = build_qmm(2, alpha=F(2))
    rep = verify_qmm(table, order=10)
    assert rep.ok and rep.exact


def test_calibrate():
    res = calibrate(2)
    assert res.passing == [(F(1, 2), F(1, 2))]
    res1 = calibrate(1)
    assert res1.passing == [(F(1, 2), F(1, 2))]


def test_mutation_drop_nu2_breaks():
    table = mutate_drop_nu2(build_qmm(2, alpha=F(1)))
    rep = verify_qmm(table, order=10)
    assert not rep.ok
    labels = {(a, b) for a, b, _ in rep.failures}
    assert ("sf1", "sE") in labels or ("sf2", "sE") in labels
    # the damage shows at second order in the deformation parameter
    assert any(not res.coeffs[2].is_zero() for _, _, res in rep.failures)


def test_mutation_nu_const_on_top_root_breaks_s_pairs():
    table = mutate_add_nu_const(build_qmm(2, alpha=F(1)), "E", F(1))
    rep = verify_qmm(table, order=6, pairs="s")
    assert not rep.ok
    res = next(r for a, b, r in rep.failures if (a, b) == ("H", "E"))
    assert res.coeffs[1].terms == {(0, (0, 0), 0, 0): F(2)}


def test_mutation_nu_const_on_a_preserves_s_pairs():
    table = mutate_add_nu_const(build_qmm(2, alpha=F(1)), "H", F(1))
    rep = verify_qmm(table, order=6, pairs="s")
    assert rep.ok and rep.checked == 6
    full = verify_qmm(table, order=6, pairs="all")
    assert not full.ok


def test_qmm_json():
    import json

    table = build_qmm(1, alpha=F(1))
    payload = qmm_table_to_json(table)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert payload["N"] == 1 and payload["labels"] == ["H", "E", "sE"]
    sym = qmm_table_to_json(build_qmm(1))
    assert sym["alpha"] == "symbolic"


def test_verify_qmm_exact_flag_is_sound():
    """A report exact at order K fails on the same pairs as the report at
    K + 4, with residuals that agree up to K and vanish beyond."""
    exact_orders = set()
    base = build_qmm(2, alpha=F(1))
    tables = [base, build_qmm(2), mutate_drop_nu2(base), mutate_add_nu_const(base, "m1", F(1))]
    for table in tables:
        for K in range(5):
            small = verify_qmm(table, K)
            if not small.exact:
                continue
            exact_orders.add(K)
            big = verify_qmm(table, K + 4)
            assert [f[:2] for f in big.failures] == [f[:2] for f in small.failures]
            for (_, _, res), (_, _, res_big) in zip(small.failures, big.failures):
                assert all(a.terms == b.terms for a, b in zip(res_big.coeffs, res.coeffs))
                assert all(c.is_zero() for c in res_big.coeffs[K + 1 :])
    assert exact_orders == {2, 3, 4}


def assert_same_report(rep, ref):
    """Equal ok, order, exact, checked, failure labels and residuals,
    compared coefficient by coefficient."""
    assert (rep.ok, rep.order, rep.exact, rep.checked) == (
        ref.ok,
        ref.order,
        ref.exact,
        ref.checked,
    )
    assert [f[:2] for f in rep.failures] == [f[:2] for f in ref.failures]
    for (_, _, res), (_, _, res_ref) in zip(rep.failures, ref.failures):
        assert (res.order, res.exact) == (res_ref.order, res_ref.exact)
        assert [c.terms for c in res.coeffs] == [c.terms for c in res_ref.coeffs]


def oracle_tables(N: int) -> dict:
    """The symbolic and alpha = 1 tables and two mutations of the latter;
    N = 1 has no m1, so its constant shift lands on H."""
    base = build_qmm(N, alpha=F(1))
    return {
        "symbolic": build_qmm(N),
        "alpha1": base,
        "drop-nu2": mutate_drop_nu2(base),
        "add-nu-const": mutate_add_nu_const(base, "m1" if N >= 2 else "H", F(1)),
    }


@pytest.mark.parametrize("N", [1, 2])
def test_verify_qmm_matches_per_pair_oracle(N):
    for table in oracle_tables(N).values():
        for K in range(7):
            for pairs in ("all", "s"):
                rep = verify_qmm(table, K, pairs)
                assert_same_report(rep, verify_qmm_oracle(table, K, pairs))


def test_verify_qmm_matches_per_pair_oracle_n3():
    table = build_qmm(3)
    assert_same_report(verify_qmm(table, 12), verify_qmm_oracle(table, 12))


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("alpha", [None, F(-2, 3)], ids=["symbolic", "alpha=-2/3"])
def test_verify_qmm_matches_the_two_sum_oracle(N, alpha):
    """One residual sum per pair, the commutator landed first and the left
    side added to it, reports what a left side minus a separate
    commutator series reports: ok, exact, checked, failing pairs and
    every residual series, on the unmutated table and both mutations, at
    orders 0, 1, 2 and 12.  The low orders give inexact commutators."""
    base = build_qmm(N, alpha)
    tables = [base, mutate_drop_nu2(base), mutate_add_nu_const(base, "m1", F(1))]
    flags, oks = set(), set()
    for table in tables:
        for K in (0, 1, 2, 12):
            rep = verify_qmm(table, K)
            assert_same_report(rep, verify_qmm_oracle(table, K))
            flags.add(rep.exact)
            oks.add(rep.ok)
    assert flags == oks == {True, False}


def test_verify_qmm_keeps_no_state_between_calls():
    """Interleaved calls on a table, on its mutations (which share CoefFn
    objects with it) and on the symbolic table (the same positions with
    other coefficients) report what fresh tables do."""
    base = build_qmm(2, alpha=F(1))
    calls = [
        ("symbolic", build_qmm(2)),
        ("alpha1", base),
        ("add-nu-const", mutate_add_nu_const(base, "m1", F(1))),
        ("drop-nu2", mutate_drop_nu2(base)),
        ("alpha1", base),
    ]
    for name, table in calls:
        rep = verify_qmm(table, 6)
        fresh = oracle_tables(2)[name]
        assert_same_report(rep, verify_qmm(fresh, 6))
        assert_same_report(rep, verify_qmm_oracle(fresh, 6))
    # Each table is dropped after its call, so the next one may reuse the
    # addresses of its objects: a memo keyed by id() would read stale walks.
    for alpha in (F(1), F(2), F(1), F(-3), F(1, 2), None, F(1)):
        rep = verify_qmm(build_qmm(2, alpha), 6)
        assert rep.ok and rep.exact and rep.checked == 28


def count_brackets(monkeypatch) -> list:
    """Record the arguments of every LieAlgebra.bracket call from now on."""
    calls, bracket = [], LieAlgebra.bracket

    def counted(self, x, y):
        calls.append((x, y))
        return bracket(self, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", counted)
    return calls


def test_verify_qmm_reads_the_chart_structure_once(monkeypatch):
    """The left sides are the chart's brackets, each pair read at most
    once per chart: build_qmm, a table, both of its mutations (which
    share its chart) and both pair sets read every pair once between
    them, and each report is still the oracle's."""
    table = build_qmm(2, alpha=F(1))
    chart = table.chart
    kept = set(chart._brackets)
    runs = [
        (table, "all"),
        (mutate_drop_nu2(table), "all"),
        (mutate_add_nu_const(table, "E", F(1)), "all"),
        (table, "s"),
        (mutate_add_nu_const(table, "E", F(1)), "s"),
    ]
    calls = count_brackets(monkeypatch)
    reports = [verify_qmm(t, 6, pairs) for t, pairs in runs]
    monkeypatch.undo()
    position = {id(x): k for k, x in enumerate(chart.basis)}
    read = [(position[id(x)], position[id(y)]) for x, y in calls]
    assert len(set(read)) == len(read) and not kept & set(read)
    assert kept | set(read) == set(chart._brackets)
    assert set(chart._brackets) == set(combinations(range(len(chart.basis)), 2))
    assert [rep.ok for rep in reports] == [True, False, False, True, False]
    for rep, (t, pairs) in zip(reports, runs):
        assert_same_report(rep, verify_qmm_oracle(t, 6, pairs))


def test_cold_s_pairs_read_only_the_brackets_of_the_solvable_part(monkeypatch):
    """On a fresh table the s pairs read no bracket outside the solvable
    part beyond those build_qmm read, a later s check reads none, and the
    reports are those read once every pair of the chart is kept."""
    table = build_qmm(4, alpha=F(1))
    chart, nv = table.chart, table.chart.nv
    kept = set(chart._brackets)
    tables = [table, mutate_add_nu_const(table, "E", F(1))]
    calls = count_brackets(monkeypatch)
    cold = [verify_qmm(t, 4, "s") for t in tables]
    s_pairs = set(combinations(range(2 + nv), 2))
    assert set(chart._brackets) - kept == s_pairs - kept and len(calls) == len(s_pairs - kept)
    assert verify_qmm(table, 0).ok and len(chart._brackets) == comb(len(table.basis), 2)
    count = len(calls)
    warm = [verify_qmm(t, 4, "s") for t in tables]
    assert len(calls) == count and [rep.ok for rep in cold] == [True, False]
    assert cold[0].checked == comb(2 + nv, 2)
    for c, w in zip(cold, warm):
        assert_same_report(c, w)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_chart_structure_is_the_structure_of_its_basis(N):
    """Every pair read through bracket is the structure constant of the
    basis in its frame, read-only, with one empty mapping for the zeros."""
    chart = build_chart(N)
    pairs = combinations(range(len(chart.basis)), 2)
    got = {(i, j): chart.bracket(i, j) for i, j in pairs}
    want = structure_in(Frame(chart.basis), chart.basis, chart.model.algebra.bracket)
    assert {ij: c for ij, c in got.items() if c} == want
    assert len({id(c) for c in got.values() if not c}) == (N > 1)
    for c in got.values():
        with pytest.raises(TypeError):
            c[0] = F(7)


def test_replaced_chart_reads_its_own_structure():
    """The chart is frozen; a chart made by replace starts with no pair
    read and reads its own."""
    chart = build_chart(2)
    with pytest.raises(FrozenInstanceError):
        chart.basis = ()
    pairs = list(combinations(range(len(chart.basis)), 2))
    table = [chart.bracket(i, j) for i, j in pairs]
    same, flipped = replace(chart), replace(chart, basis=chart.basis[::-1])
    assert "_brackets" not in vars(same) and "_brackets" not in vars(flipped)
    again = [same.bracket(i, j) for i, j in pairs]
    assert again == table and all(a is not b for a, b in zip(again, table) if a)
    bracket = chart.model.algebra.bracket
    want = structure_in(chart.frame, flipped.basis, bracket)
    got = [flipped.bracket(i, j) for i, j in pairs]
    assert {ij: c for ij, c in zip(pairs, got) if c} == want and got != table
    assert all(chart.bracket(i, j) is c for (i, j), c in zip(pairs, table))


@pytest.mark.parametrize("N, pairs", [(3, 105), (4, 276)])
def test_full_moment_identity_at_default_order(N, pairs):
    rep = verify_qmm(build_qmm(N))
    assert rep.ok and rep.exact and rep.order == 12 and rep.checked == pairs


@pytest.mark.parametrize("bad", [True, False, -1, 1.5, "3"])
def test_resolve_truncation_order_rejects(bad):
    with pytest.raises(TruncationOrderError):
        resolve_truncation_order(bad)


def test_resolve_truncation_order_accepts():
    assert resolve_truncation_order(None) == 12
    assert resolve_truncation_order(0) == 0
    assert resolve_truncation_order(12) == 12


def test_qmm_labels_name_the_table_basis():
    for N in (1, 2):
        table = build_qmm(N, alpha=F(1))
        assert table.labels == qmm_labels(N)
        assert len(table.basis) == len(table.labels) == build_su1n(N).algebra.dim
    assert len(set(qmm_labels(3))) == build_su1n(3).algebra.dim == 15


def test_field_bracket_matches_the_oracle_loop():
    chart = build_chart(3)
    basis = [chart.H] + chart.fs + [chart.E] + chart.m_basis
    fields = [fundamental_field(chart, x) for x in basis]
    for a in fields:
        for b in fields:
            got = field_bracket(a, b)
            want = field_bracket_oracle(a, b)
            assert [c.terms for c in got] == [c.terms for c in want]
