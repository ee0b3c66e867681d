"""Tests for the radial reduction machinery.

The frozen expected values below were worked out by hand: the closure
dimensions from the restricted-root decomposition, the residual of the
radial operator on the constant function and on r^2 directly from the
displayed coefficient groups, and the nu^0 part of the radial operator
transcribed independently in oracles.oracle_wv0 / oracle_om0.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from operator import le

import pytest

from ballquant.ball_quantization import (
    TruncationOrderError,
    build_chart,
    build_qmm,
    fundamental_field,
    inner_square,
)
from ballquant.formal_star import CoefFn, NuSeries, half_commutator
from ballquant.linalg import solve_in_span
from ballquant import retract_pde as rp
from ballquant.retract_pde import (
    XiFn,
    _binomial_terms,
    apply_operator,
    check_reduction_closure,
    k_basis,
    m_invariance_residuals,
    radial_pde_residual,
    radial_reduce,
    retract_operator,
    xifn_from_json,
    xifn_to_json,
)
from ballquant.scalars import GScalar
from ballquant.lie_core import Subspace
from ballquant.su1n_model import build_su1n, model_to_json

from oracles import (
    apply_operator_oracle,
    binom_oracle,
    nu_series,
    oracle_om0,
    oracle_wv0,
    radial_pde_residual_oracle,
    retract_exact_oracle,
)


def term(k=0, m=0, n=0, h=0, j=0, re=0, im=0):
    return XiFn({(k, m, n, h, j): GScalar.of(re, im)})


ONE = term(re=1)
S = term(h=1, re=1)


def rand_xifn(rng: random.Random) -> XiFn:
    out = XiFn({})
    for _ in range(3):
        key = (
            rng.randint(-1, 1),
            rng.randint(-1, 2),
            rng.randint(0, 2),
            rng.choice([0, 1]),
            rng.choice([0, 2]),
        )
        val = GScalar.of(rng.choice([-2, -1, 1, 2]), rng.randint(-1, 1))
        out = out.add(XiFn({key: val}))
    return out


def test_xifn_product_and_square_root_relation():
    """S * S equals 1 - nu^2 xi^2 after canonicalization."""
    lhs = S.mul(S)
    rhs = ONE.sub(term(n=2, j=2, re=1))
    assert lhs.sub(rhs).is_zero()
    assert not lhs.sub(ONE).is_zero()


def test_xifn_odd_half_power_relation():
    """S equals (1 - nu^2 xi^2) S^{-1}."""
    rhs = ONE.sub(term(n=2, j=2, re=1)).mul(term(h=-1, re=1))
    assert S.sub(rhs).is_zero()


def test_xifn_diff_xi_on_half_power():
    """d/dxi of xi S is S - nu^2 xi^2 S^{-1}."""
    f = term(n=1, h=1, re=1)
    expected = {
        (0, 0, 0, 1, 0): GScalar.of(1),
        (0, 0, 2, -1, 2): GScalar.of(-1),
    }
    assert f.diff_xi().terms == expected


def test_xifn_diff_r_and_a():
    f = term(k=2, m=-1, re=1)
    assert f.diff_r().terms == {(2, -2, 0, 0, 0): GScalar.of(-1)}
    assert f.diff_a().terms == {(2, -1, 0, 0, 0): GScalar.of(2)}
    assert term(re=1).diff_r().is_zero()


def test_expand_nu_binomial():
    """(1 - x)^{1/2} = 1 - x/2 - x^2/8 and (1 - x)^{-1/2} = 1 + x/2 + ..."""
    assert S.expand_nu(4).terms == {
        (0, 0, 0, 0, 0): GScalar.of(1),
        (0, 0, 2, 0, 2): GScalar.of(Fraction(-1, 2)),
        (0, 0, 4, 0, 4): GScalar.of(Fraction(-1, 8)),
    }
    inv = term(h=-1, re=1)
    assert inv.expand_nu(2).terms == {
        (0, 0, 0, 0, 0): GScalar.of(1),
        (0, 0, 2, 0, 2): GScalar.of(Fraction(1, 2)),
    }


def test_xifn_json_roundtrip():
    f = rand_xifn(random.Random(7)).add(term(k=-1, m=-2, n=1, h=-1, j=3, im=5))
    assert xifn_from_json(xifn_to_json(f)).sub(f).is_zero()


def test_xifn_from_json_sums_terms_and_checks_exponents():
    one = [0, 0, 0, 0, 0, "1", "0"]
    zero, tenth = [1, 2, 0, 1, 0, "0", "0"], [0, 1, 0, 0, 0, "0.1", "-2"]
    f = xifn_from_json({"terms": [one, one, zero, tenth]})
    assert f.terms == {
        (0, 0, 0, 0, 0): GScalar.of(2),
        (0, 1, 0, 0, 0): GScalar.of(Fraction(1, 10), -2),
    }
    assert xifn_from_json({"terms": [one, [0, 0, 0, 0, 0, "-1", "0"]]}).terms == {}
    for bad in (
        [True, 0, 0, 0, 0, "1", "0"],
        [0, 0, 1.0, 0, 0, "1", "0"],
        [0, 0, 0, 0, "1", "0"],
        [0, 0, 0, 0, 0, 0.1, "0"],
        [0, 0, 0, 0, 0, "1", False],
    ):
        with pytest.raises(ValueError):
            xifn_from_json({"terms": [bad]})
    with pytest.raises(ValueError, match=r"nu power >= 0, got \[0, 0, 0, 1, -1\]"):
        xifn_from_json({"terms": [[0, 0, 0, 1, -1, "1", "0"]]})


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"terms": 5}, "terms must be a list"),
        ({"terms": [7]}, "a term must be a list"),
        ({"terms": ["0000011"]}, "a term must be a list"),
        ([], "an XiFn must be a dict"),
    ],
)
def test_xifn_from_json_refuses_a_scalar_in_place_of_a_container(payload, message):
    with pytest.raises(ValueError, match=message):
        xifn_from_json(payload)


def test_reduction_closure_dimensions():
    """W = s + m + (negative short root space) is ad_s stable and W + [W, W]
    fills the algebra: dimensions 7 -> 8 for N = 2 and 14 -> 15 for N = 3."""
    rep2 = check_reduction_closure(build_su1n(2))
    assert rep2.ok and rep2.dim_w == 7 and rep2.dim_filled == 8
    rep3 = check_reduction_closure(build_su1n(3))
    assert rep3.ok and rep3.dim_w == 14 and rep3.dim_filled == 15


def test_reduction_closure_fails_without_m():
    """[n_1, n_-1] lands in a + m, so W without m is not ad_s stable."""
    model = build_su1n(2)
    fresh = model_to_json(model)
    rep = check_reduction_closure(model.replace(m_space=Subspace(model.algebra, [])))
    assert not rep.ok and rep.failures and rep.dim_w == 6
    assert model_to_json(build_su1n(2)) == fresh
    assert check_reduction_closure(build_su1n(2)).ok


def test_m_invariance_residuals():
    chart = build_chart(2)
    u = inner_square(chart)
    for r in m_invariance_residuals(chart, u):
        assert r.is_zero()
    zu = u.mul(CoefFn.monomial(2, -2, (0, 0), 0, 1, Fraction(1)))
    for r in m_invariance_residuals(chart, zu):
        assert r.is_zero()
    v1 = CoefFn.monomial(2, 0, (1, 0), 0, 0, Fraction(1))
    assert any(not r.is_zero() for r in m_invariance_residuals(chart, v1))


def test_radial_reduce_frozen():
    chart = build_chart(2)
    u = inner_square(chart)
    z_e2a = CoefFn.monomial(2, -2, (0, 0), 0, 1, Fraction(1))
    f = u.mul(u).add(u.mul(z_e2a))
    assert radial_reduce(chart, f) == {
        (0, 2, 0): Fraction(1),
        (-2, 1, 1): Fraction(1),
    }


def test_radial_reduce_rank_one_case():
    chart = build_chart(1)
    f = CoefFn.monomial(0, -2, (), 0, 1, Fraction(3))
    assert radial_reduce(chart, f) == {(-2, 0, 1): Fraction(3)}


def test_radial_reduce_rejects_nonradial():
    chart = build_chart(2)
    v1 = CoefFn.monomial(2, 0, (1, 0), 0, 0, Fraction(1))
    with pytest.raises(ValueError):
        radial_reduce(chart, v1)


def test_radial_reduce_rejects_alpha_and_odd_degree():
    chart = build_chart(2)
    alpha_u = inner_square(chart).mul(CoefFn.monomial(2, 0, (0, 0), 1, 0, Fraction(1)))
    with pytest.raises(ValueError, match="alpha parameter"):
        radial_reduce(chart, alpha_u)
    # without m every polynomial passes the invariance test, so v1 reaches the degree check
    flat = chart.replace(m_basis=[])
    with pytest.raises(ValueError, match="odd v-degree"):
        radial_reduce(flat, CoefFn.monomial(2, 0, (1, 0), 0, 0, Fraction(1)))


def test_k_basis_is_sigma_fixed():
    chart = build_chart(2)
    labels, vecs = k_basis(chart)
    assert labels == ["m1", "kf1", "kf2", "kE"]
    for x in vecs:
        assert chart.model.apply_sigma(x) == x
    assert len(k_basis(build_chart(1))[1]) == 1


def test_retract_operator_on_m_is_the_fundamental_field():
    """For Y in m the operator has no nu corrections and agrees with the
    classical field: a pure first order operator in the v directions."""
    table = build_qmm(2, alpha=Fraction(1))
    y = table.chart.m_basis[0]
    op = retract_operator(table, y, order=4)
    comps = fundamental_field(table.chart, y)
    expected_keys = set()
    for coord, comp in enumerate(comps):
        if comp.is_zero():
            continue
        key = tuple(1 if c == coord else 0 for c in range(4))
        expected_keys.add(key)
        series = op[key]
        assert series.coeffs[0].sub(comp).is_zero()
        assert all(c.is_zero() for c in series.coeffs[1:])
    assert set(op) == expected_keys


def test_retract_operator_annihilates_constants():
    table = build_qmm(2, alpha=Fraction(1))
    one = NuSeries.from_coef(CoefFn.const(2, Fraction(3)), 4)
    zero_key = (0, 0, 0, 0)
    for x in k_basis(table.chart)[1]:
        op = retract_operator(table, x, order=4)
        assert zero_key not in op
        assert apply_operator(op, one, 4).is_zero()


def test_retract_operator_commutators():
    """Composition of the operators represents the bracket: checked on
    random chart polynomials at truncation order 6."""
    table = build_qmm(2, alpha=Fraction(1))
    algebra = table.chart.model.algebra
    _, kvecs = k_basis(table.chart)
    order = 6
    ops = [retract_operator(table, x, order=order) for x in kvecs]
    rng = random.Random(11)

    def rand_series():
        f = CoefFn.zero(2)
        for _ in range(3):
            f = f.add(
                CoefFn.monomial(
                    2,
                    rng.randint(-2, 2),
                    (rng.randint(0, 1), rng.randint(0, 1)),
                    0,
                    rng.randint(0, 1),
                    Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])),
                )
            )
        return NuSeries.from_coef(f, order)

    pairs = [(0, 1), (1, 2), (1, 3), (0, 3)]
    for i, j in pairs:
        bracket_op = retract_operator(
            table, algebra.bracket(kvecs[i], kvecs[j]), order=order
        )
        for _ in range(2):
            theta = rand_series()
            lhs = apply_operator(ops[i], apply_operator(ops[j], theta, order), order)
            lhs = lhs.sub(
                apply_operator(ops[j], apply_operator(ops[i], theta, order), order)
            )
            rhs = apply_operator(bracket_op, theta, order)
            assert lhs.sub(rhs).is_zero()


def test_retract_operator_exact_flag_is_sound():
    """exact at order K means the recomputation at K + 4 has the same
    keys, equal coefficients up to K and zeros beyond."""
    table = build_qmm(2, alpha=Fraction(1))
    labels, kvecs = k_basis(table.chart)
    exact_labels = set()
    for K in (0, 1, 2, 4):
        for label, x in zip(labels, kvecs):
            op = retract_operator(table, x, order=K)
            if not all(s.exact for s in op.values()):
                continue
            exact_labels.add((label, K))
            big = retract_operator(table, x, order=K + 4)
            assert set(big) == set(op)
            for key, series in op.items():
                coeffs = big[key].coeffs
                assert all(a.terms == b.terms for a, b in zip(coeffs, series.coeffs))
                assert all(c.is_zero() for c in coeffs[K + 1 :])
    assert ("m1", 2) in exact_labels and ("kf1", 2) not in exact_labels


@pytest.mark.parametrize("N", [2, 3])
def test_retract_operator_exact_flag_follows_the_walk_rule(N):
    """The flag the NuSums give is the one the walk rule gives: exact iff
    no power of mu_x has a multiset of the first odd size past the order.
    The low orders are where the two could differ; both values occur."""
    table = build_qmm(N)
    flags = set()
    for K in range(9):
        for x in k_basis(table.chart)[1]:
            op = retract_operator(table, x, order=K)
            want = retract_exact_oracle(table, x, K)
            assert op and {s.exact for s in op.values()} == {want}
            flags.add(want)
    assert flags == {True, False}


def test_apply_operator_is_the_half_commutator():
    table = build_qmm(2, alpha=Fraction(1))
    order = 4
    rng = random.Random(17)
    theta = CoefFn.zero(2)
    for _ in range(4):
        k = (rng.randint(0, 2), rng.randint(0, 2))
        theta = theta.add(
            CoefFn.monomial(2, rng.randint(-2, 2), k, 0, rng.randint(0, 3), Fraction(rng.randint(1, 5)))
        )
    theta = NuSeries.from_coef(theta, order)
    for x in k_basis(table.chart)[1]:
        coords = solve_in_span(table.basis, x)
        mu = NuSeries.zero(2, order)
        for c, mom in zip(coords, table.moments):
            if c:
                mu = mu.add(mom.resize(order).scale(c))
        got = apply_operator(retract_operator(table, x, order), theta, order)
        want, = half_commutator(mu, [theta], table.P, order)
        assert all(a.terms == b.terms for a, b in zip(got.coeffs, want.coeffs))


@pytest.mark.parametrize("op_n, theta_nv", [(2, 4), (3, 2)])
def test_apply_operator_refuses_a_series_on_another_chart(op_n, theta_nv):
    """An operator from the table of su(1, op_n) acts on series over its
    own 2 (op_n - 1) v coordinates only; either mismatch names both."""
    table = build_qmm(op_n, alpha=Fraction(1))
    op = retract_operator(table, table.chart.H, 2)
    theta = NuSeries.from_coef(CoefFn.monomial(theta_nv, 0, (1,) * theta_nv, 0, 1, 1), 2)
    op_nv = table.chart.nv
    with pytest.raises(ValueError, match=f"operator on {op_nv} v .* series on {theta_nv}"):
        apply_operator(op, theta, 2)


def rand_series(rng: random.Random, nv: int, order: int, top: int) -> NuSeries:
    """A series of the given order with a nonzero chart polynomial at every
    power of nu up to top and zeros past it."""
    coeffs = []
    for t in range(order + 1):
        f = CoefFn.zero(nv)
        while t <= top and len(f.terms) < 2:
            k = tuple(rng.randint(0, 2) for _ in range(nv))
            c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            p, alpha, q = rng.randint(-2, 2), rng.randint(0, 1), rng.randint(0, 2)
            f = f.add(CoefFn.monomial(nv, p, k, alpha, q, c))
        coeffs.append(f)
    return nu_series(coeffs)


@pytest.mark.parametrize("n", [2, 3])
def test_apply_operator_matches_oracle(n):
    """Term by term and on exact, against whole-series resize, product and
    sum, for operators built at order 8 and at the application order K,
    on series that fill nu^0 .. nu^K or reach one power past K.  The kE
    operators are also taken with every series marked exact, so that a
    coefficient or a product past K is the only thing that clears the
    flag."""
    table = build_qmm(n, alpha=None)
    nv = table.chart.nv
    kvecs = k_basis(table.chart)[1]
    high = [retract_operator(table, x, order=8) for x in kvecs]
    rng = random.Random(29 + n)
    flags = set()
    for K in range(9):
        low = [retract_operator(table, x, order=K) for x in kvecs]
        full = rand_series(rng, nv, K, K)
        over = rand_series(rng, nv, K + 1, K + 1)
        marked = [
            {k: nu_series(v.coeffs) for k, v in op.items()} for op in (high[-1], low[-1])
        ]
        cases = [(op, full) for op in high + low + marked]
        cases += [(op, over) for op in high[:2]] + [({}, over)]
        for op, theta in cases:
            got = apply_operator(op, theta, K)
            want = apply_operator_oracle(op, theta, K)
            assert got.order == want.order == K
            assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]
            assert got.exact == want.exact
            flags.add(got.exact)
    assert flags == {True, False}


def test_apply_operator_flags_an_argument_past_the_order():
    """A nonzero coefficient of the argument past the order clears exact,
    as resizing the argument first would, even when every key of the
    operator annihilates it and no product falls past the order."""
    table = build_qmm(2, alpha=None)
    nv, K = table.chart.nv, 2
    op = retract_operator(table, k_basis(table.chart)[1][-1], order=K)
    op = {key: nu_series(s.coeffs) for key, s in op.items()}
    mu = table.moments[0].coeffs[0]
    for past, exact in ((CoefFn.zero(nv), True), (CoefFn.const(nv, Fraction(3)), False)):
        theta = nu_series([mu] + [CoefFn.zero(nv)] * K + [past])
        got, want = apply_operator(op, theta, K), apply_operator_oracle(op, theta, K)
        assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]
        assert got.exact == want.exact == exact


def test_apply_operator_is_the_moment_action_n3():
    """D_X mu_Y = mu_[X, Y] for every k basis vector X and every table
    moment mu_Y at N = 3, order 8."""
    table = build_qmm(3, alpha=None)
    algebra = table.chart.model.algebra
    nv = table.chart.nv
    order = 8
    lifted = [m.resize(order) for m in table.moments]
    for x in k_basis(table.chart)[1]:
        op = retract_operator(table, x, order=order)
        for y, mom in zip(table.basis, table.moments):
            want = NuSeries.zero(nv, order)
            for k, c in table.frame.coords(algebra.bracket(x, y)).items():
                want = want.add(lifted[k].scale(c))
            assert apply_operator(op, mom, order).sub(want).is_zero()


def _capped_series(rng, nv, order, p_range, v_top):
    """A series to nu^order whose terms have p in p_range and every v
    exponent at most v_top."""
    coeffs = []
    for _ in range(order + 1):
        f = CoefFn.zero(nv)
        for _ in range(4):
            k = tuple(rng.randint(0, v_top) for _ in range(nv))
            c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            f = f.add(CoefFn.monomial(nv, rng.choice(p_range), k, 0, rng.randint(0, 2), c))
        coeffs.append(f)
    return nu_series(coeffs)


def test_apply_operator_skips_keys_past_the_caps_as_the_oracle_does():
    """Keys the argument's exponent caps rule out are skipped, and the
    result is still the oracle's: a p = 0 argument under operators with
    a-derivative keys, and an argument of degree at most 1 in each v
    under operators with second v-derivatives."""
    table = build_qmm(3, alpha=None)
    nv, K = table.chart.nv, 4
    ops = [retract_operator(table, x, order=K) for x in k_basis(table.chart)[1]]
    keys = {key for op in ops for key in op}
    assert any(key[0] for key in keys) and any(max(key[1:-1]) >= 2 for key in keys)
    rng = random.Random(41)
    thetas = [
        _capped_series(rng, nv, K, [0], 2),
        _capped_series(rng, nv, K, [-1, 0, 1, 2], 1),
    ]
    assert thetas[0].coeffs[0].caps[0] == 0 and max(thetas[1].coeffs[0].caps[1:-1]) == 1
    for theta in thetas:
        for op in ops:
            got, want = apply_operator(op, theta, K), apply_operator_oracle(op, theta, K)
            assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]
            assert got.exact == want.exact


def test_apply_operator_differentiates_only_within_the_caps(monkeypatch):
    """On the N = 3 moment action at order 8, every derivative that
    apply_operator takes has its key within the caps of the coefficient
    it differentiates, and most (key, coefficient) pairs are skipped."""
    table = build_qmm(3, alpha=None)
    ops = [retract_operator(table, x, order=8) for x in k_basis(table.chart)[1]]
    calls = []
    diff = CoefFn.diff

    def counted(self, index):
        calls.append(all(map(le, index, self.caps)))
        return diff(self, index)

    monkeypatch.setattr(CoefFn, "diff", counted)
    for op in ops:
        for mom in table.moments:
            apply_operator(op, mom, 8)
    unpruned = sum(
        len(op) * sum(1 for c in mom.coeffs if c.terms) for op in ops for mom in table.moments
    )
    assert calls and all(calls) and len(calls) < unpruned // 2


def test_apply_operator_exact_flag_is_sound():
    """exact at order K means the recomputation at K + 4 agrees up to nu^K
    and vanishes past it."""
    table = build_qmm(2, alpha=Fraction(1))
    labels, kvecs = k_basis(table.chart)
    rng = random.Random(31)
    flags = set()
    for K in (0, 1, 2, 4):
        for top in (0, K):
            theta = rand_series(rng, 2, K, top)
            for label, x in zip(labels, kvecs):
                got = apply_operator(retract_operator(table, x, order=K), theta, K)
                flags.add((label, got.exact))
                if not got.exact:
                    continue
                big = apply_operator(retract_operator(table, x, order=K + 4), theta, K + 4)
                assert all(a.terms == b.terms for a, b in zip(big.coeffs, got.coeffs))
                assert all(c.is_zero() for c in big.coeffs[K + 1 :])
    assert ("m1", True) in flags and ("kf1", False) in flags


@pytest.mark.parametrize("e2", range(-7, 8))
def test_binomial_terms_follow_the_oracle(e2):
    """The recurrence gives (-1)^t binom(e, t) for e = e2 / 2."""
    e = Fraction(e2, 2)
    key, c = (1, 2, 3, 5, 4), GScalar.of(2, -3)
    for count in range(11):
        want = [
            ((1, 2, 3 + 2 * t, 1, 4 + 2 * t), c.scale(binom_oracle(e, t) * (-1) ** t))
            for t in range(count)
        ]
        assert _binomial_terms(key, c, e, 1, count) == want


def test_binom_oracle_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for e2 in range(-7, 8):
        for t in range(10):
            b = sympy.binomial(sympy.Rational(e2, 2), t)
            assert binom_oracle(Fraction(e2, 2), t) == Fraction(int(b.p), int(b.q))


FROZEN_SYMBOLS = {
    "one": ONE,
    "r2": term(m=2, re=1),
    "mixed": term(k=1, m=2, n=1, h=1, re=3)
    .add(term(k=-1, m=1, h=-1, j=2, im=Fraction(1, 2)))
    .add(term(n=2, h=3, re=-2, im=1)),
}

# sha256 prefixes of the JSON of (wv, om) at order 12, as computed with the
# falling-factorial binomials of binom_oracle.
FROZEN_PDE_DIGESTS = {
    ("one", 2): "ef93d0c7400f0dc6",
    ("one", 3): "ef93d0c7400f0dc6",
    ("one", 4): "ef93d0c7400f0dc6",
    ("one", 5): "ef93d0c7400f0dc6",
    ("r2", 2): "148494256aeb864a",
    ("r2", 3): "a07a598a8fb6684f",
    ("r2", 4): "31614d621c8e3dbc",
    ("r2", 5): "a3a352c9101c546d",
    ("mixed", 2): "7c1ff3747becad16",
    ("mixed", 3): "0f19e25ebb004eee",
    ("mixed", 4): "a5e96c6ae8b4dac9",
    ("mixed", 5): "0acdce4da5e0aebb",
}


@pytest.mark.parametrize("name,n", sorted(FROZEN_PDE_DIGESTS))
def test_radial_pde_truncated_output_is_frozen(name, n):
    wv, om = radial_pde_residual(FROZEN_SYMBOLS[name], n, order=12)
    doc = json.dumps([xifn_to_json(wv), xifn_to_json(om)], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == FROZEN_PDE_DIGESTS[(name, n)]


def test_radial_pde_zero_and_linearity():
    zero = XiFn({})
    wv, om = radial_pde_residual(zero, 3)
    assert wv.is_zero() and om.is_zero()
    rng = random.Random(23)
    for _ in range(4):
        f, g = rand_xifn(rng), rand_xifn(rng)
        wf, of_ = radial_pde_residual(f, 4)
        wg, og = radial_pde_residual(g, 4)
        ws, os_ = radial_pde_residual(f.add(g), 4)
        assert ws.sub(wf.add(wg)).is_zero()
        assert os_.sub(of_.add(og)).is_zero()


def test_radial_pde_on_constant_frozen():
    """Residual of the constant function, computed by hand from the
    coefficient groups: only the zeroth order groups survive."""
    wv, om = radial_pde_residual(ONE, 3)
    expected_wv = {
        (1, 2, 1, 1, 0): GScalar.of(0, 1),
        (1, 2, 1, 0, 0): GScalar.of(0, 1),
        (1, 0, 1, 0, 0): GScalar.of(0, 2),
        (0, 0, 2, 0, 0): GScalar.of(-2),
    }
    expected_om = {
        (1, 0, 0, 0, 0): GScalar.of(-1),
        (1, 0, 0, 1, 0): GScalar.of(-1),
    }
    assert wv.sub(XiFn(expected_wv)).is_zero()
    assert om.sub(XiFn(expected_om)).is_zero()


def test_radial_pde_on_r_squared_frozen():
    """theta = r^2 by hand: the omega part is n-independent because the
    second derivative group cancels, the (w|v) part keeps 4(n-1)."""
    r2 = term(m=2, re=1)
    wv, om = radial_pde_residual(r2, 3)
    expected_om = XiFn(
        {
            (1, 2, 0, 0, 0): GScalar.of(-2),
            (1, 2, 0, 1, 0): GScalar.of(2),
            (-1, 1, 0, 0, 0): GScalar.of(-2),
            (1, 0, 0, 0, 0): GScalar.of(2),
        }
    )
    expected_wv = XiFn(
        {
            (1, 4, 1, 1, 0): GScalar.of(0, 1),
            (1, 4, 1, 0, 0): GScalar.of(0, 1),
            (1, 2, 1, 0, 0): GScalar.of(0, 2),
            (0, 2, 2, 0, 0): GScalar.of(-2),
            (1, 0, -1, 0, 0): GScalar.of(0, 8),
            (1, 0, -1, 1, 0): GScalar.of(0, -8),
        }
    )
    assert om.sub(expected_om).is_zero()
    assert wv.sub(expected_wv).is_zero()
    om5 = radial_pde_residual(r2, 5)[1]
    assert om5.sub(expected_om).is_zero()


def test_radial_pde_truncated_output():
    wv0, om0 = radial_pde_residual(ONE, 3, order=0)
    assert wv0.terms == {
        (1, 2, 1, 0, 0): GScalar.of(0, 2),
        (1, 0, 1, 0, 0): GScalar.of(0, 2),
        (0, 0, 2, 0, 0): GScalar.of(-2),
    }
    assert om0.terms == {(1, 0, 0, 0, 0): GScalar.of(-2)}


def test_radial_pde_nu0_oracle():
    """The nu^0 part of the residual matches the independently transcribed
    zeroth order operator on 20 random inputs."""
    rng = random.Random(101)
    for _ in range(20):
        theta = rand_xifn(rng)
        n = rng.choice([2, 3, 4])
        wv, om = radial_pde_residual(theta, n)
        theta0 = theta.expand_nu(0)
        assert wv.expand_nu(0).sub(oracle_wv0(theta0)).is_zero()
        assert om.expand_nu(0).sub(oracle_om0(theta0)).is_zero()


def rand_symbol(rng: random.Random) -> XiFn:
    """Up to five monomials with exponents of either sign, odd and even
    half powers, nonzero nu powers and complex rational coefficients."""
    out = XiFn({})
    for _ in range(rng.randint(1, 5)):
        key = (
            rng.randint(-2, 2),
            rng.randint(-3, 3),
            rng.randint(-3, 3),
            rng.randint(-3, 3),
            rng.randint(0, 4),
        )
        val = GScalar.of(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        out = out.add(XiFn({key: val}))
    return out


ORACLE_SYMBOLS = [rand_symbol(random.Random(seed)) for seed in range(40)] + [XiFn({})]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [None, 0, 1, 2, 12])
def test_radial_pde_matches_the_chained_oracle(n, order):
    """The coefficient table gives the very terms the term-by-term chain
    of products gives, exact and expanded."""
    for theta in ORACLE_SYMBOLS:
        wv, om = radial_pde_residual(theta, n, order)
        want_wv, want_om = radial_pde_residual_oracle(theta, n, order)
        assert wv.terms == want_wv.terms
        assert om.terms == want_om.terms


def test_radial_table_is_built_once_per_n(monkeypatch):
    """A second call at the same n builds no coefficient of the radial
    table and gives the same output, byte for byte."""
    built, xt = [], rp._xt

    def counted(**kw):
        built.append(kw)
        return xt(**kw)

    monkeypatch.setattr(rp, "_xt", counted)
    rp._radial_table.cache_clear()
    counts, docs = [], []
    for _ in range(2):
        pair = radial_pde_residual(ORACLE_SYMBOLS[0], 6, order=4)
        docs.append(json.dumps([xifn_to_json(f) for f in pair], sort_keys=True))
        counts.append(len(built))
    assert counts[0] and counts[1] == counts[0] and docs[0] == docs[1]


@pytest.mark.parametrize("order", [-1, True, 1.5, "3"])
def test_radial_pde_rejects_a_bad_order(order):
    with pytest.raises(TruncationOrderError):
        radial_pde_residual(ONE, 3, order=order)


@pytest.mark.parametrize("n", [True, 2.0, 1.5, "3"])
def test_radial_pde_rejects_a_non_integer_dimension(n):
    with pytest.raises(ValueError, match="dimension"):
        radial_pde_residual(ONE, n)



@pytest.mark.parametrize("n", [1, 0, -4])
def test_radial_pde_rejects_a_dimension_below_two(n):
    # v0 lies in V of dimension 2(n - 1): for n < 2 there is no direction
    with pytest.raises(ValueError, match="dimension"):
        radial_pde_residual(ONE, n)
