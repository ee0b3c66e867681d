"""Tests for the normalized chart, group law, moments and their star
product covariance.

Frozen values are hand computed for N = 2, where the chart basis has
Gram matrix diag(1, 1/4), the compact centralizer generator Y acts on V
by A = [[0, 3/2], [-6, 0]] and the linear correction functional takes
the value 1 on Y.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ballquant.ball_quantization import (
    GroupElement,
    IntegrabilityError,
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
    verify_qmm,
)
from ballquant.formal_star import CoefFn, poisson
from ballquant.linalg import leading_principal_minors, solve_in_span
from ballquant.su1n_model import build_su1n


def test_chart_frozen_n2():
    chart = build_chart(2)
    assert chart.nv == 2
    assert chart.omega == [[F(0), F(1)], [F(-1), F(0)]]
    assert chart.gram == [[F(1), F(0)], [F(0), F(1, 4)]]
    assert chart.m_actions == [[[F(0), F(3, 2)], [F(-6), F(0)]]]


def test_chart_shapes():
    for n in (1, 2, 3):
        chart = build_chart(n)
        assert chart.nv == 2 * (n - 1)
        assert len(chart.m_basis) == (n - 1) ** 2
        # positive definite Gram
        if chart.nv:
            assert all(m > 0 for m in leading_principal_minors(chart.gram))
        # every m action is symplectic for omega
        for a in chart.m_actions:
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


def test_field_homomorphism():
    rng = random.Random(19)
    chart = build_chart(2)
    basis = [chart.H] + chart.fs + [chart.E] + chart.m_basis
    dim = chart.model.algebra.dim
    for _ in range(8):
        x = [F(0)] * dim
        y = [F(0)] * dim
        for b in basis:
            cx, cy = rng.randint(-2, 2), rng.randint(-2, 2)
            x = [xi + cx * bi for xi, bi in zip(x, b)]
            y = [yi + cy * bi for yi, bi in zip(y, b)]
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


def test_qmm_labels_name_the_table_basis():
    for N in (1, 2):
        table = build_qmm(N, alpha=F(1))
        assert table.labels == qmm_labels(N)
        assert len(table.basis) == len(table.labels) == build_su1n(N).algebra.dim
    assert len(set(qmm_labels(3))) == build_su1n(3).algebra.dim == 15
