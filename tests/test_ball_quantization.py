"""Tests for the normalized chart, group law, moments and their star
product covariance.

Frozen values are hand computed for N = 2, where the chart basis has
Gram matrix diag(1, 1/4), the compact centralizer generator Y acts on V
by A = [[0, 3/2], [-6, 0]] and the linear correction functional takes
the value 1 on Y.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, lcm
from sys import maxsize

import pytest

from ballquant.ball_quantization import (
    BallChart,
    CALIBRATION_GRID,
    GroupElement,
    IntegrabilityError,
    TruncationOrderError,
    _in_z,
    build_chart,
    build_qmm,
    calibrate,
    classical_moment,
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
from ballquant import ball_quantization, formal_star
from ballquant.formal_star import CoefFn, NuSeries, NuSum, c_operator, key_layout, series_to_json
from ballquant.formal_star import half_commutator, moyal, star_commutator
from ballquant.lie_core import LieAlgebra, structure_in
from ballquant.linalg import Frame, solve_in_span, vec_add, vec_scale
from ballquant.su1n_model import build_su1n, gaussian, model_to_json

from oracles import field_bracket_oracle, leading_principal_minors, poisson_covariance_failures
from oracles import integration_moments_oracle, solve_zeta, substitute_alpha
from oracles import verify_qmm_oracle


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
    assert fH[0].decoded() == {(0, (0, 0), 0, 0): F(-1)}
    assert all(c.is_zero() for c in fH[1:])
    fE = fundamental_field(chart, chart.E)
    assert fE[3].decoded() == {(-2, (0, 0), 0, 0): F(-1)}
    assert all(c.is_zero() for c in fE[:3])
    f1 = fundamental_field(chart, chart.fs[0])
    assert f1[1].decoded() == {(-1, (0, 0), 0, 0): F(-1)}
    assert f1[2].is_zero()
    assert f1[3].decoded() == {(-1, (0, 1), 0, 0): F(-1, 2)}
    fY = fundamental_field(chart, chart.m_basis[0])
    assert fY[0].is_zero() and fY[3].is_zero()
    assert fY[1].decoded() == {(0, (0, 1), 0, 0): F(-3, 2)}
    assert fY[2].decoded() == {(0, (1, 0), 0, 0): F(6)}


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
        fundamental_field(chart.replace(basis=(H, f1, f2, E, sE, sf1, sf2, sE)), y)
    m_left = chart.replace(m_basis=[f1, f2], basis=(H, f1, f2, E, f1, f2, sf1, sf2, sE))
    with pytest.raises(ValueError, match=r"^\[m, m\] left m$"):
        solve_zeta(m_left)
    with pytest.raises(ValueError, match=r"^\[V, sigma V\] left a \+ m$"):
        solve_zeta(chart.replace(basis=(H, H, E, E, y, sf1, sf2, sE)))
    repeated = chart.replace(m_basis=[y, y], basis=(H, f1, f2, E, y, y, sf1, sf2, sE))
    with pytest.raises(ValueError, match="^correction functional is underdetermined$"):
        solve_zeta(repeated)


ALPHAS = [None, F(1), F(-437, 911)]


def nu0_terms(table) -> list:
    return [s.coeffs[0].terms for s in table.moments]


def oracle_terms(table, alpha) -> list:
    return [f.terms for f in integration_moments_oracle(table.chart, table.P, alpha)]


@pytest.mark.parametrize("N", range(1, 9))
def test_orbit_table_is_the_integration_oracle(N):
    """The nu^0 table that build_qmm reads off the coadjoint orbit is,
    term by term and moment by moment, the one made by integrating each
    fundamental field (classical_moment), adding alpha zeta on m and
    writing the sigma moments out, with alpha symbolic, 1 and -437/911;
    only the nu^2 term (N - 1) e^{2a} of sigma E lies past nu^0."""
    for alpha in ALPHAS:
        table = build_qmm(N, alpha)
        assert nu0_terms(table) == oracle_terms(table, alpha)
        moments = table.moments
        past = [(k, t) for k, s in enumerate(moments) for t, f in enumerate(s.coeffs) if f.terms]
        assert [(k, t) for k, t in past if t] == ([(len(moments) - 1, 2)] if N > 1 else [])
        nu2 = {(2, (0,) * table.chart.nv, 0, 0): N - 1} if N > 1 else {}
        assert moments[-1].coeffs[2].decoded() == nu2


@pytest.mark.parametrize("N", range(1, 9))
def test_zeta_is_the_imaginary_part_of_the_corner_entry(N):
    """The correction functional solved from the chart's brackets is
    zeta(Y) = Im Y_00 on the matrix of each basis vector Y of m, the value
    the orbit gives it."""
    chart = build_chart(N)
    mats = chart.model.matrices
    corner = [
        sum((c * mats[t].get((0, 0), (0, 0))[1] for t, c in y.items()), F(0))
        for y in chart.m_basis
    ]
    assert solve_zeta(chart) == corner


@pytest.mark.parametrize("N", range(1, 7))
def test_table_is_hamiltonian_for_the_fundamental_fields(N):
    """X* = -Lambda grad mu_X^(0) for every basis vector X of s + m, so for
    every X there by linearity: the orbit's moments generate the
    fundamental fields of left translation."""
    table = build_qmm(N)
    chart, P = table.chart, table.P
    dim = chart.nv + 2
    for k in range(2 + chart.nv + len(chart.m_basis)):
        mu = table.moments[k].coeffs[0]
        grad = [mu.diff_coord(w) for w in range(dim)]
        for u, comp in enumerate(fundamental_field(chart, chart.basis[k])):
            want = CoefFn.zero(chart.nv)
            for w, c in enumerate(P.matrix[u]):
                if c:
                    want = want.sub(grad[w].scale(c))
            assert comp.sub(want).is_zero(), (table.labels[k], u)


@pytest.mark.parametrize("N", [2, 3])
def test_a_sign_flip_in_z_fails_the_oracle_and_the_identity(N, monkeypatch):
    """With the sign of the (0, 1) entry of Z(alpha) flipped, the orbit
    table differs from the integration oracle and verify_qmm fails at
    order 1, with alpha symbolic and -437/911.  At alpha = 1 that entry,
    -i (1 - alpha^2) / 2, is zero, and the flip changes nothing."""
    real = ball_quantization._z_entries

    def flipped(plus, minus):
        z = real(plus, minus)
        z[0, 1] = z[0, 1].neg()
        return z

    monkeypatch.setattr(ball_quantization, "_z_entries", flipped)
    for alpha in (None, F(-437, 911)):
        table = build_qmm(N, alpha)
        assert nu0_terms(table) != oracle_terms(table, alpha)
        assert not verify_qmm(table, 1).ok
    table = build_qmm(N, F(1))
    assert nu0_terms(table) == oracle_terms(table, F(1)) and verify_qmm(table, 1).ok


@pytest.mark.parametrize("N", range(1, 9))
def test_the_one_series_and_its_conjugate_rows_invert_on_e0_and_e1(N):
    """The two facts the orbit rests on: every f commutes with E, so
    n = exp(v) exp(zE) is the one series exp(v + zE); and n is J-unitary,
    so the rows J_bb J_rr conj(n_rb) of n^-1 times the columns of S n
    give S^2 times the identity on e_0 and e_1."""
    chart = build_chart(N)
    nv = chart.nv
    assert all(not chart.bracket(1 + i, nv + 1) for i in range(nv))
    units, read = key_layout(nv).units, lambda x: gaussian(chart.model.matrices, x)
    gens = [(units[1 + i], *read(f)) for i, f in enumerate(chart.fs)]
    gens.append((units[nv + 1], *read(chart.E)))
    S, cols = ball_quantization._exp_apply(nv, N + 1, gens)
    for b, k in product((0, 1), repeat=2):
        acc = ({}, {})
        for r, (re, im) in cols[b].items():
            if r in cols[k]:
                sign = (-1) ** ((b == 0) + (r == 0))
                ball_quantization._cmul(acc, (re.scale(sign), im.scale(-sign)), cols[k][r])
        assert acc == ({0: S * S} if b == k else {}, {}), (b, k)


def test_build_runs_one_exponential_series(monkeypatch):
    """build_qmm takes the columns of n once and reads the rows of n^-1
    off them."""
    calls, real = [], ball_quantization._exp_apply

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ball_quantization, "_exp_apply", counted)
    assert verify_qmm(build_qmm(3), 2).ok and len(calls) == 1


def test_build_reads_no_bracket_and_integrates_nothing(monkeypatch):
    """build_qmm has one route, the orbit: it reads no bracket of the chart
    and calls no integration, and its table still verifies."""
    def refuse(*args):
        raise AssertionError("integration on the build path")

    monkeypatch.setattr(ball_quantization, "classical_moment", refuse)
    monkeypatch.setattr(ball_quantization, "integrate_exact_gradient", refuse)
    table = build_qmm(3)
    assert not table.chart._brackets
    assert verify_qmm(table, 4).ok


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
        lhs = field_bracket_oracle(fundamental_field(chart, x), fundamental_field(chart, y))
        rhs = fundamental_field(chart, chart.model.algebra.bracket(x, y))
        assert all(a.sub(b).is_zero() for a, b in zip(lhs, rhs))


def test_classical_moments_frozen():
    chart = build_chart(2)
    P = poisson_structure(chart)
    assert classical_moment(chart, chart.H, P).decoded() == {(0, (0, 0), 0, 1): F(2)}
    assert classical_moment(chart, chart.E, P).decoded() == {(-2, (0, 0), 0, 0): F(1)}
    assert classical_moment(chart, chart.fs[0], P).decoded() == {(-1, (0, 1), 0, 0): F(1)}
    assert classical_moment(chart, chart.fs[1], P).decoded() == {(-1, (1, 0), 0, 0): F(-1)}
    lam_y = classical_moment(chart, chart.m_basis[0], P)
    assert lam_y.decoded() == {(0, (2, 0), 0, 0): F(3), (0, (0, 2), 0, 0): F(3, 4)}


def test_classical_moment_reads_the_m_action_through_the_kept_brackets(monkeypatch):
    """The m action the field reads comes from the chart's kept brackets;
    once they are read, the moments of s + m read no bracket
    (BallChart._read) and keep their values."""
    chart = build_chart(2)
    P = poisson_structure(chart)
    xs = [chart.H, *chart.fs, chart.E, *chart.m_basis]
    first = [classical_moment(chart, x, P).terms for x in xs]
    calls = count_brackets(monkeypatch)
    assert [classical_moment(chart, x, P).terms for x in xs] == first and calls == []


def a_plus_m(chart, seed: int) -> list:
    """H, each m basis vector and three seeded combinations of them."""
    rng = random.Random(seed)
    xs = [chart.H, *chart.m_basis]
    mixed = []
    for _ in range(3):
        x = {}
        for b in xs:
            x = vec_add(x, vec_scale(b, F(rng.randint(-3, 3), rng.randint(1, 3))))
        mixed.append(x)
    return xs + mixed


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_moments_of_a_plus_m_have_no_constant_term(N):
    """The gauge of the moments of H and m is already fixed: no term has
    v exponent 0 and z exponent 0, at the calibrated scales and at every
    grid point whose moments integrate, so no normalization at the
    identity is needed."""
    points = [(az, inner) for az in CALIBRATION_GRID for inner in CALIBRATION_GRID]
    zero_k, checked = (0,) * (2 * (N - 1)), 0
    chart = build_chart(N)
    for az, inner in [(F(1, 2), F(1, 2)), *points]:
        P = poisson_structure(chart, az, inner)
        try:
            moments = [classical_moment(chart, x, P) for x in a_plus_m(chart, N)]
        except IntegrabilityError:
            continue
        assert not any(k == zero_k and not q for m in moments for (_, k, _, q) in m.decoded())
        checked += 1
    assert checked > 1


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
                assert c_operator(lams[i], lams[j], P, 1).sub(rhs).is_zero()


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
    assert mu_se.coeffs[0].decoded() == {(2, (), 0, 2): F(4), (2, (), 2, 0): F(1)}
    assert mu_se.coeffs[1].is_zero() and mu_se.coeffs[2].is_zero()
    rep = verify_qmm(table, order=6)
    assert rep.ok and rep.exact and rep.checked == 3


def test_build_qmm_n2_frozen():
    table = build_qmm(2)
    assert table.labels == ["H", "f1", "f2", "E", "m1", "sf1", "sf2", "sE"]
    mu_y = table.moments[4]
    assert mu_y.coeffs[0].decoded() == {
        (0, (2, 0), 0, 0): F(3),
        (0, (0, 2), 0, 0): F(3, 4),
        (0, (0, 0), 1, 0): F(1),
    }
    mu_sf1 = table.moments[5]
    assert mu_sf1.coeffs[0].decoded() == {
        (1, (1, 0), 0, 1): F(4),
        (1, (2, 1), 0, 0): F(-1),
        (1, (0, 3), 0, 0): F(-1, 4),
        (1, (0, 1), 1, 0): F(-1),
    }
    mu_se = table.moments[7]
    assert mu_se.coeffs[1].is_zero()
    assert mu_se.coeffs[2].decoded() == {(2, (0, 0), 0, 0): F(1)}


# sha256 of json.dumps(qmm_table_to_json(build_qmm(N, alpha)), sort_keys=True)
QMM_DIGESTS = {
    (1, None): "86a20c80b311911826528f4370bd8eff8feb51b71761638fd7a665f4710f7d1a",
    (1, 1): "d604e509b283b5b8aabb054af964752d3a2978ee17b391245d318eabe034ac1d",
    (1, 0): "247f1498067dad5bd046cdeb3017c6a66c3347b3b551557bb14c92e471f9feb3",
    (1, F(-1, 2)): "f5a84103b722cf33eab1c169441fc25ae15f7e9618f8b9f340d1c5a600a046ca",
    (2, None): "47f5c40dd0c7657c2ed8516133c0f6c68991c38c7f1c5c53fdc0ba3eac181fd9",
    (2, 1): "738fa888ddcdb5e95c4c93d64f7be6a817e50928208da365086362b872143d1b",
    (2, 0): "062aaf044343b7334b143b26451d569ec3335945e40f4e057acb6254c5cb671a",
    (2, F(-1, 2)): "81634ddd36509a6998e7c54637d54fc724fff7b03403af08f9698e2c9fbc43ba",
    (3, None): "331745d546d06b92d580fed1ef5e42e0888d5a36eefd12e7de465af22012cc40",
    (3, 1): "522d899f9c302677dba53979a7f0e8182a2e8fe7ecacae6f0744ca981139efa9",
    (3, 0): "540c7476d9ff279380c22b161cbeb002f9fcc07307ef5f570921a3170de4288b",
    (3, F(-1, 2)): "3fbbbf8e43760800fd060a89b4f03463b289c893fbb8ffef512f95e3b12836fe",
}


@pytest.mark.parametrize("N, alpha", list(QMM_DIGESTS), ids=str)
def test_qmm_table_to_json_bytes_are_frozen(N, alpha):
    doc = json.dumps(qmm_table_to_json(build_qmm(N, alpha)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == QMM_DIGESTS[N, alpha]


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0, 1, F(-1, 2), F(3, 7)], ids=str)
def test_numeric_alpha_table_is_the_symbolic_one_substituted(N, alpha):
    """A number entering as a constant builds each moment in its final
    form, the symbolic table with alpha substituted after the fact."""
    got, symbolic = build_qmm(N, alpha), build_qmm(N)
    assert got.alpha == alpha and got.labels == symbolic.labels
    for s, t in zip(got.moments, symbolic.moments, strict=True):
        assert (s.order, s.exact) == (t.order, t.exact)
        assert [c.terms for c in s.coeffs] == [substitute_alpha(c, alpha).terms for c in t.coeffs]


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


def test_calibrate(monkeypatch):
    """Only (1/2, 1/2) verifies; only the Poisson structure changes over
    the grid, so each run builds one table."""
    calls, real = [], ball_quantization.build_qmm
    monkeypatch.setattr(ball_quantization, "build_qmm", lambda *args: calls.append(args) or real(*args))
    for N in (1, 2, 3):
        calls.clear()
        assert calibrate(N).passing == [(F(1, 2), F(1, 2))]
        assert calls == [(N,)]


def test_verify_qmm_weight_stops_growing_with_the_order(monkeypatch):
    """The weight's factorial is taken at most at twice the largest sum of
    v and z caps of a moment coefficient, since no walk of a pair is
    longer, so an order of a million checks what order 12 checks."""
    table = build_qmm(2)
    # caps of fresh copies: the table's own coefficients keep none
    largest = max(sum(CoefFn(f.nv, f.terms).caps[1:]) for s in table.moments for f in s.coeffs)
    args, real = [], ball_quantization.factorial
    monkeypatch.setattr(ball_quantization, "factorial", lambda n: args.append(n) or real(n))
    rep = verify_qmm(table, 10**6)
    assert rep.ok and rep.exact and rep.checked == verify_qmm(table, 12).checked
    assert args and max(args) <= 2 * largest


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
    assert res.coeffs[1].decoded() == {(0, (0, 0), 0, 0): F(2)}


def test_mutation_nu_const_on_a_preserves_s_pairs():
    table = mutate_add_nu_const(build_qmm(2, alpha=F(1)), "H", F(1))
    rep = verify_qmm(table, order=6, pairs="s")
    assert rep.ok and rep.checked == 6
    full = verify_qmm(table, order=6, pairs="all")
    assert not full.ok


def test_mutation_nu_const_refuses_an_unknown_label():
    with pytest.raises(ValueError, match="^'X' is not a moment label of this table$"):
        mutate_add_nu_const(build_qmm(1, alpha=F(1)), "X", F(1))


def single_term_perturbations(table):
    """(moment index, nu power, term) for each one-term change of the
    table: every term of every moment doubled, and a unit monomial
    e^{pa} v_i z^q (p = 0..2, q = 0..1, at most one v_i) added at nu^0,
    nu^1 and nu^2 of every moment."""
    nv = table.chart.nv
    vs = [(0,) * nv] + [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    for k, s in enumerate(table.moments):
        for i, f in enumerate(s.coeffs):
            yield from ((k, i, CoefFn(nv, {key: c})) for key, c in f.terms.items())
        for i, p, v, q in product(range(3), range(3), vs, range(2)):
            yield k, i, CoefFn.monomial(nv, p, v, 0, q, 1)


@pytest.mark.parametrize("N, cases", [(2, 455), (3, 1410)])
def test_every_single_term_perturbation_fails_verify_qmm(N, cases):
    """The moment identity at order 4 pins each term of the table: no
    single-term change of it still verifies.  A survivor would be a
    finding (a gauge of the star product, or a blind spot of the check),
    not a case to skip."""
    table = build_qmm(N)
    assert all(s.order == 2 for s in table.moments)
    survivors, count = [], 0
    for k, i, term in single_term_perturbations(table):
        count += 1
        moments = list(table.moments)
        changed = NuSum(table.chart.nv, 2).add(moments[k])
        changed.land(i, term.terms.items())
        moments[k] = changed.series()
        if verify_qmm(table.replace(moments=moments), order=4).ok:
            survivors.append((table.labels[k], i, term.decoded()))
    assert count == cases and not survivors


@pytest.mark.parametrize("N", [1, 2, 3])
def test_order_zero_is_the_poisson_covariance_check(N):
    """verify_qmm at order 0 checks the classical limit {mu_X, mu_Y} =
    mu_[X,Y] of the nu^0 moments: with four of them perturbed (all three
    at N = 1) it fails on exactly the pairs of the Poisson-covariance
    oracle, with its residuals.  From N = 2 on the unperturbed report is
    not exact, since the nu^2 term of mu_sigma(E) lies past order 0."""
    rng = random.Random(N)
    base = build_qmm(N, alpha=F(3, 7))
    nv = base.chart.nv
    moments = list(base.moments)
    for k in rng.sample(range(len(moments)), min(4, len(moments))):
        s = moments[k]
        exps = [rng.randint(0, 1) for _ in range(nv)]
        p, q, c = rng.randint(-1, 1), rng.randint(0, 1), F(rng.randint(1, 5), 3)
        bump = CoefFn.monomial(nv, p, exps, 0, q, c)
        moments[k] = s.add(NuSeries.from_coef(bump, s.order))
    perturbed = base.replace(moments=moments)
    for table in (base, perturbed):
        rep = verify_qmm(table, order=0)
        want = poisson_covariance_failures(table)
        assert {(a, b): r.coeffs[0].terms for a, b, r in rep.failures} == {
            pair: f.terms for pair, f in want.items()
        }
        assert rep.checked == len(moments) * (len(moments) - 1) // 2
    rep = verify_qmm(base, order=0)
    assert rep.ok and rep.exact == (N == 1) and want


def test_qmm_json():
    import json

    table = build_qmm(1, alpha=F(1))
    payload = qmm_table_to_json(table)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert payload["N"] == 1 and payload["labels"] == ["H", "E", "sE"]
    sym = qmm_table_to_json(build_qmm(1))
    assert sym["alpha"] == "symbolic"


def test_a_failing_residual_stores_only_its_nonzero_powers():
    """At order 100000 each failing residual of the drop-nu2 mutation at
    N = 2 stores one power, nu^2, and the coefficient its order-12 report
    holds there: no part of a failed report grows with the order."""
    table = mutate_drop_nu2(build_qmm(2))
    rep, small = verify_qmm(table, 100000), verify_qmm(table, 12)
    assert not rep.ok and [f[:2] for f in rep.failures] == [f[:2] for f in small.failures]
    for (_, _, res), (_, _, want) in zip(rep.failures, small.failures):
        assert (res.order, res.exact, list(res.terms)) == (100000, True, [2])
        assert res.terms[2] == want.terms[2] and res.terms[2].terms


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


@pytest.mark.parametrize("N", [1, 2, 4])
def test_verify_qmm_matches_per_pair_oracle(N, monkeypatch):
    """verify_qmm reports what the per-pair oracle reports, at orders 0
    to 6 for N = 1 and 2.  At N = 4 the alpha = 1 table and its two
    mutations are checked at orders 0, 1, 2 and 12, where a sum turns
    inexact.  Every two-sided walk that verify_qmm, moyal,
    star_commutator and half_commutator start, inexact sums included,
    takes no size limit (maxsize; counted by wrapping
    transvection_terms): only NuSum.land drops a term past the order."""
    limits, walk = [], formal_star.transvection_terms

    def spy(f, gs, P, limit, odd=False):
        if gs is not None:
            limits.append(limit)
        return walk(f, gs, P, limit, odd)

    monkeypatch.setattr(formal_star, "transvection_terms", spy)
    tables = oracle_tables(N)
    if N == 4:
        del tables["symbolic"]
    for table in tables.values():
        for K in range(7) if N < 4 else (0, 1, 2, 12):
            for pairs in ("all", "s"):
                rep = verify_qmm(table, K, pairs)
                assert_same_report(rep, verify_qmm_oracle(table, K, pairs))
            first, *rest = table.moments
            for star in (moyal, star_commutator, half_commutator):
                assert len(star(first, rest, table.P, K)) == len(rest)
    assert limits and set(limits) == {maxsize}


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


def report_json(rep) -> str:
    """The whole report as JSON text, each residual as series_to_json
    writes it."""
    failures = [[a, b, series_to_json(res)] for a, b, res in rep.failures]
    return json.dumps([rep.ok, rep.order, rep.exact, rep.checked, failures])


def seeded_alpha(N: int) -> F:
    """A rational alpha drawn from a seed, with a three-digit denominator."""
    rng = random.Random(700 + N)
    alpha = F(rng.randint(-999, 999), rng.randint(100, 999))
    assert 100 <= alpha.denominator <= 999
    return alpha


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_verify_qmm_reports_what_the_unpruned_fraction_oracle_reports(N):
    """verify_qmm, checked in integers, reports what the oracle computes
    in Fractions from the unpruned enumeration of every C_m, JSON text
    of every residual included: symbolic, unit and seeded alpha, each
    table and both mutations, orders 0, 1, 4 and 12, both pair sets.
    Passing, failing, exact and inexact reports all occur."""
    seen = set()
    for alpha in (None, F(1), seeded_alpha(N)):
        base = build_qmm(N, alpha)
        label = "m1" if N >= 2 else "H"
        for table in (base, mutate_drop_nu2(base), mutate_add_nu_const(base, label, F(1))):
            for K in (0, 1, 4, 12):
                for pairs in ("all", "s"):
                    rep = verify_qmm(table, K, pairs)
                    assert report_json(rep) == report_json(verify_qmm_oracle(table, K, pairs))
                    seen.add((rep.ok, rep.exact))
    assert {ok for ok, _ in seen} == {exact for _, exact in seen} == {True, False}


def test_verify_qmm_lands_only_int_coefficients(monkeypatch):
    """Every coefficient NuSum.land receives while verify_qmm checks a
    table with alpha = -437/911, and its mutations, at orders 0, 1, 4 and
    12, is an int, never a Fraction or a float; only the reported
    residuals are Fractions."""
    base = build_qmm(3, F(-437, 911))
    tables = [base, mutate_drop_nu2(base), mutate_add_nu_const(base, "E", F(1))]
    landed, land = [], NuSum.land

    def recording(self, t, items):
        items = list(items)
        landed.extend(c for _, c in items)
        land(self, t, items)

    monkeypatch.setattr(NuSum, "land", recording)
    reports = [verify_qmm(t, K) for t in tables for K in (0, 1, 4, 12)]
    monkeypatch.undo()
    assert reports[3].ok and reports[3].exact and not reports[-1].ok
    assert landed and all(type(c) is int for c in landed)
    residuals = [res for r in reports for *_, res in r.failures]
    coefs = [c for res in residuals for f in res.coeffs for c in f.terms.values()]
    assert coefs and all(type(c) is F for c in coefs)


def mutations(table) -> list:
    """The table and both mutations, which share its chart and CoefFns."""
    return [table, mutate_drop_nu2(table), mutate_add_nu_const(table, "E", F(1))]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_lift_truncates_without_padding(N):
    """verify_qmm's lift of a moment s is D s.resize(K) power by power,
    with its exact flag, in fresh int coefficients, of order
    min(K, s.order): it truncates below s's own order, never pads up to
    K, and stores only the powers that s.resize(K) stores."""
    for table in mutations(build_qmm(N)):
        coefs = [c for s in table.moments for f in s.terms.values() for c in f.terms.values()]
        D = lcm(*(c.denominator for c in coefs))
        for K in (0, 1, 2, 3, 4, 12):
            for s in table.moments:
                lifted, want = _in_z(s, D, K), s.resize(K)
                assert lifted.order == min(K, s.order) and lifted.exact == want.exact
                assert list(lifted.terms) == list(want.terms)
                for t, f in want.terms.items():
                    got = lifted.terms[t].terms
                    assert got == {k: D * c for k, c in f.terms.items()}
                    assert all(type(c) is int for c in got.values())
                assert not {id(f) for f in lifted.terms.values()} & {id(f) for f in s.terms.values()}


@pytest.mark.parametrize("N", [1, 2])
def test_verify_qmm_leaves_no_memo_or_caps_on_the_table(N):
    """verify_qmm walks int copies of the moments, even where their
    coefficients are ints already (N = 1), so after it has checked a table
    and both of its mutations no CoefFn of any of their moments holds a
    derivative memo or exponent caps, not even an empty one."""
    tables = mutations(build_qmm(N, F(1)))
    for table in tables:
        for order in (1, 12):
            verify_qmm(table, order)
    held = [
        key
        for table in tables
        for s in table.moments
        for f in s.coeffs
        for key in ("_derivatives", "caps")
        if key in vars(f)
    ]
    assert held == []


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
    """Record the pair (i, j) of every bracket a chart reads
    (BallChart._read) from now on."""
    calls, read = [], BallChart._read

    def counted(self, i, j):
        calls.append((i, j))
        return read(self, i, j)

    monkeypatch.setattr(BallChart, "_read", counted)
    return calls


def sharing_pairs(chart) -> set:
    """The pairs i < j of the chart basis whose vectors share a matrix index."""
    mats = chart.model.matrices
    touched = [{a for t in x for e in mats[t] for a in e} for x in chart.basis]
    return {(i, j) for i, j in combinations(range(len(touched)), 2) if touched[i] & touched[j]}


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
    assert len(set(calls)) == len(calls) and not kept & set(calls)
    assert kept | set(calls) == set(chart._brackets)
    # at N = 2 every pair of basis vectors shares a matrix index
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
    assert verify_qmm(table, 0).ok and set(chart._brackets) == sharing_pairs(chart)
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


@pytest.mark.parametrize("N", range(1, 7))
def test_every_chart_bracket_is_the_frame_read_of_the_algebra_bracket(N):
    """Each pair, pruned or read in integers, is LieAlgebra.bracket read by
    Frame.coords; only the pairs that share a matrix index are kept, and
    from N = 3 on some pairs share none."""
    chart = build_chart(N)
    bracket, basis = chart.model.algebra.bracket, chart.basis
    pairs = list(combinations(range(len(basis)), 2))
    for i, j in pairs:
        want = chart.frame.require(bracket(basis[i], basis[j]), "outside the span")
        assert dict(chart.bracket(i, j)) == want
        assert all(type(c) is F for c in chart.bracket(i, j).values())
    assert set(chart._brackets) == sharing_pairs(chart)
    assert (len(sharing_pairs(chart)) < len(pairs)) == (N > 2)


def test_a_chart_frame_that_does_not_span_is_refused():
    chart = build_chart(3)
    short = chart.replace(frame=Frame(chart.basis[:-1]))
    with pytest.raises(ValueError, match="^the chart frame does not span the algebra$"):
        short.bracket(0, 1)


def test_replaced_chart_reads_its_own_structure():
    """The chart is frozen; a chart made by replace starts with no pair
    read and reads its own."""
    chart = build_chart(2)
    with pytest.raises(AttributeError):
        chart.basis = ()
    pairs = list(combinations(range(len(chart.basis)), 2))
    table = [chart.bracket(i, j) for i, j in pairs]
    same, flipped = chart.replace(), chart.replace(basis=chart.basis[::-1])
    assert "_brackets" not in vars(same) and "_brackets" not in vars(flipped)
    again = [same.bracket(i, j) for i, j in pairs]
    assert again == table and all(a is not b for a, b in zip(again, table) if a)
    bracket = chart.model.algebra.bracket
    want = structure_in(chart.frame, flipped.basis, bracket)
    got = [flipped.bracket(i, j) for i, j in pairs]
    assert {ij: c for ij, c in zip(pairs, got) if c} == want and got != table
    assert all(chart.bracket(i, j) is c for (i, j), c in zip(pairs, table))


@pytest.mark.parametrize("N", range(1, 5))
def test_each_basis_matrix_is_read_once_per_chart(N, monkeypatch):
    """Building the table, reading every bracket, verifying it and its
    two mutations on both pair sets and exporting it read each chart
    basis vector's matrix once."""
    calls = []
    read = ball_quantization.gaussian
    monkeypatch.setattr(ball_quantization, "gaussian", lambda *a: calls.append(a) or read(*a))
    table = build_qmm(N)
    chart = table.chart
    for i, j in combinations(range(len(chart.basis)), 2):
        chart.bracket(i, j)
    for t in (table, mutate_drop_nu2(table), mutate_add_nu_const(table, "E", 1)):
        for pairs in ("all", "s"):
            verify_qmm(t, 2, pairs)
    qmm_table_to_json(table)
    assert len(calls) == len(chart.basis)


@pytest.mark.parametrize("N", range(1, 9))
def test_gram_is_the_identity_on_v1_and_a_quarter_on_v2(N):
    """(f_i|f_j) at the calibrated scale is diag(I, I / 4), each block of
    size N - 1."""
    chart, k = build_chart(N), N - 1
    want = [[F(int(i == j), 4 if i >= k else 1) for j in range(2 * k)] for i in range(2 * k)]
    assert chart.gram == want


def test_a_replaced_chart_reads_its_own_gram():
    """gram is read off the chart's own basis: doubling f1 and sigma f1
    scales (f1|f1) by 4, where a gram kept from the old chart reads 1."""
    chart = build_chart(2)
    basis = list(chart.basis)
    for k in (1, 2 + chart.nv + len(chart.m_basis)):  # f1 and sigma f1
        basis[k] = vec_scale(basis[k], 2)
    doubled = chart.replace(basis=tuple(basis))
    assert chart.gram[0][0] == 1 and doubled.gram[0][0] == 4


def test_verifying_a_table_reads_no_gram():
    table = build_qmm(3)
    assert verify_qmm(table, 2).ok
    assert "gram" not in vars(table.chart)
    assert qmm_table_to_json(table)["gram"] and "gram" in vars(table.chart)


@pytest.mark.parametrize("N", range(1, 6))
def test_chart_brackets_do_not_read_the_stored_table(N):
    """The chart reads each bracket off its basis matrices: on a model
    whose stored structure table is empty, every pair reads the same
    items, in the same order, as on the real model."""
    chart = build_chart(N)
    model = chart.model
    blank = chart.replace(model=model.replace())
    vars(blank.model)["algebra"] = LieAlgebra.written(model.algebra.labels, {})
    pairs = list(combinations(range(len(chart.basis)), 2))
    items = lambda c: [list(c.bracket(i, j).items()) for i, j in pairs]
    assert items(blank) == items(chart)


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


@pytest.mark.parametrize("zero", [0, F(0)])
def test_zero_scales_are_refused_by_name(zero):
    chart = build_chart(2)
    with pytest.raises(ValueError, match="^inner_scale must be nonzero$"):
        poisson_structure(chart, inner_scale=zero)
    with pytest.raises(ValueError, match="^inner_scale must be nonzero$"):
        poisson_structure(chart, F(1, 2), zero)
    with pytest.raises(ValueError, match="^az_weight must be nonzero$"):
        poisson_structure(chart, az_weight=zero)
    with pytest.raises(ValueError, match="^az_weight must be nonzero$"):
        poisson_structure(chart, zero)
    assert zero not in CALIBRATION_GRID


def _indices_touched(label: str, N: int) -> set:
    """The indices 2 .. N of the basis matrix named label: D_j is
    i(E_jj - E_j+1,j+1), P_k and Q_k sit in row and column k, and R_j_k
    and S_j_k in rows and columns j and k."""
    if label[0] == "D":
        touched = {int(label[1:]), int(label[1:]) + 1}
    elif label[0] in "PQ":
        touched = {int(label[1:])}
    else:
        touched = set(map(int, label[1:].split("_")))
    return touched & set(range(2, N + 1))


@pytest.mark.parametrize("N", range(2, 11))
def test_each_chart_basis_vector_touches_at_most_two_indices(N):
    """The precondition of reading the moment identity by orbit types of
    the permutations of 2 .. N: every vector of the chart basis (H, f, E,
    m, sigma f, sigma E) touches at most two of the indices 2 .. N, and
    each f exactly one."""
    chart = build_chart(N)
    labels = chart.model.algebra.labels
    touched = [set().union(*(_indices_touched(labels[i], N) for i in x)) for x in chart.basis]
    assert max(map(len, touched)) <= 2
    assert [len(t) for t in touched[1 : 1 + chart.nv]] == [1] * chart.nv
