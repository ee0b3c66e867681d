"""Tests for the exponential-polynomial function ring and the star product.

Frozen oracles are hand computed for the constant Poisson structure
with Lambda(a, z) = 1/2 and Lambda restricted to the v block equal to
the standard symplectic matrix.
"""
from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from math import factorial
from sys import maxsize

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballquant.ball_quantization import (
    build_chart,
    build_qmm,
    mutate_drop_nu2,
    poisson_structure,
    verify_qmm,
)
from ballquant import formal_star
from ballquant.formal_star import (
    CoefFn,
    NuSeries,
    NuSum,
    PoissonStructure,
    c_operator,
    coef_from_json,
    coef_to_json,
    half_commutator,
    key_layout,
    moyal,
    series_from_json,
    series_to_json,
    star_commutator,
    transvection_terms,
)
from ballquant.retract_pde import apply_operator, k_basis, retract_operator
from ballquant.scalars import collect

from oracles import degree, poisson_pairs, substitute_alpha, transvection_oracle
import oracles
from oracles import nu_series, pair_walk_oracle, uncapped_walk_oracle


def std_structure(nv: int, p=F(1, 2), vv=F(1)) -> PoissonStructure:
    dim = nv + 2
    m = [[F(0)] * dim for _ in range(dim)]
    m[0][dim - 1] = p
    m[dim - 1][0] = -p
    half = nv // 2
    for i in range(half):
        m[1 + i][1 + half + i] = vv
        m[1 + half + i][1 + i] = -vv
    return PoissonStructure(nv, m)


def mono(nv, p=0, k=None, alpha=0, q=0, c=F(1)):
    return CoefFn.monomial(nv, p, tuple(k or [0] * nv), alpha, q, c)


def rand_fn(nv, rng, terms=3):
    f = CoefFn.zero(nv)
    for _ in range(terms):
        k = tuple(rng.randint(0, 2) for _ in range(nv))
        t = mono(nv, rng.randint(-2, 2), k, 0, rng.randint(0, 2), F(rng.randint(-3, 3)))
        f = f.add(t)
    return f


def test_coef_arithmetic_and_diff():
    f = mono(2, p=-1, k=(1, 0))  # e^{-a} v1
    g = mono(2, q=2)  # z^2
    fg = f.mul(g)
    assert fg.decoded() == {(-1, (1, 0), 0, 2): F(1)}
    assert fg.diff_coord(0).decoded() == {(-1, (1, 0), 0, 2): F(-1)}
    assert fg.diff_coord(3).decoded() == {(-1, (1, 0), 0, 1): F(2)}
    assert fg.diff_coord(1).decoded() == {(-1, (0, 0), 0, 2): F(1)}
    assert fg.diff_coord(2).is_zero()
    assert fg.diff((1, 1, 0, 2)).decoded() == {(-1, (0, 0), 0, 0): F(-2)}
    assert fg.diff((0, 0, 0, 3)).is_zero()
    assert f.add(f.neg()).is_zero()


def test_alpha_bookkeeping():
    f = mono(2, k=(1, 0), alpha=1)  # alpha v1
    g = mono(2, q=1, alpha=1)  # alpha z
    assert f.mul(g).decoded() == {(0, (1, 0), 2, 1): F(1)}
    assert substitute_alpha(f.mul(g), F(2)).decoded() == {(0, (1, 0), 0, 1): F(4)}


def test_antiderivatives():
    f = mono(2, p=-2, k=(2, 1), q=3, c=F(6))
    assert f.antiderivative_z().diff_coord(3).terms == f.terms
    assert f.antiderivative_v(0).diff_coord(1).terms == f.terms
    assert f.antiderivative_a().diff_coord(0).terms == f.terms
    with pytest.raises(ValueError):
        mono(2, p=0, c=F(1)).antiderivative_a()


def test_poisson_frozen_values():
    P = std_structure(2)
    z = mono(2, q=1)
    e2a = mono(2, p=-2)
    assert c_operator(z, e2a, P, 1).decoded() == {(-2, (0, 0), 0, 0): F(1)}
    f1 = mono(2, p=-1, k=(1, 0))
    f2 = mono(2, p=-1, k=(0, 1))
    assert c_operator(f1, f2, P, 1).decoded() == {(-2, (0, 0), 0, 0): F(1)}
    assert c_operator(f2, f1, P, 1).decoded() == {(-2, (0, 0), 0, 0): F(-1)}


def test_c_operator_antisymmetry_pattern():
    rng = random.Random(7)
    P = std_structure(2)
    for _ in range(6):
        f, g = rand_fn(2, rng), rand_fn(2, rng)
        for m in range(4):
            lhs = c_operator(f, g, P, m)
            rhs = c_operator(g, f, P, m)
            if m % 2:
                assert lhs.add(rhs).is_zero()
            else:
                assert lhs.sub(rhs).is_zero()


def c_operator_oracle(f: CoefFn, g: CoefFn, P: PoissonStructure, m: int) -> CoefFn:
    """C_m(f, g) summed over every multiset of m directed pairs of the
    Fraction matrix, with no pruning: the reference the pruned walk in
    c_operator must match."""
    return transvection_oracle(f, g, P.matrix, m).scale(factorial(m))


def dense_structure(rng: random.Random) -> PoissonStructure:
    """A structure on nv = 2 with every entry nonzero off the diagonal,
    so not of the chart's Darboux block form."""
    dense = [[F(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            dense[i][j] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            dense[j][i] = -dense[i][j]
    return PoissonStructure(2, dense)


def test_c_operator_matches_unpruned_enumeration():
    rng = random.Random(3)
    structures = [poisson_structure(build_chart(2)), dense_structure(rng)]
    for P in structures:
        for _ in range(2):
            f, g = rand_fn(2, rng, terms=4), rand_fn(2, rng, terms=4)
            for m in range(6):
                assert c_operator(f, g, P, m).terms == c_operator_oracle(f, g, P, m).terms


def test_moyal_flat_pair_frozen():
    P = std_structure(2)
    v1 = mono(2, k=(1, 0))
    v2 = mono(2, k=(0, 1))
    s, = moyal(NuSeries.from_coef(v1, 2), [NuSeries.from_coef(v2, 2)], P, 2)
    assert s.exact
    assert s.coeffs[0].decoded() == {(0, (1, 1), 0, 0): F(1)}
    assert s.coeffs[1].decoded() == {(0, (0, 0), 0, 0): F(1)}
    assert s.coeffs[2].is_zero()
    comm, = star_commutator(NuSeries.from_coef(v1, 2), [NuSeries.from_coef(v2, 2)], P, 2)
    assert comm.coeffs[0].is_zero() and comm.coeffs[2].is_zero()
    assert comm.coeffs[1].decoded() == {(0, (0, 0), 0, 0): F(2)}


def test_moyal_exponential_pair_frozen():
    P = std_structure(2)
    z2 = mono(2, q=2)
    e2a = mono(2, p=-2)
    s, = moyal(NuSeries.from_coef(z2, 3), [NuSeries.from_coef(e2a, 3)], P, 3)
    assert s.exact
    assert s.coeffs[0].decoded() == {(-2, (0, 0), 0, 2): F(1)}
    assert s.coeffs[1].decoded() == {(-2, (0, 0), 0, 1): F(2)}
    assert s.coeffs[2].decoded() == {(-2, (0, 0), 0, 0): F(1)}
    assert s.coeffs[3].is_zero()


def test_moyal_exactness_flag_is_sharp():
    P = std_structure(2)
    z2 = mono(2, q=2)
    # every higher operator vanishes because d/da z^2 = 0
    s, = moyal(NuSeries.from_coef(z2, 0), [NuSeries.from_coef(z2, 0)], P, 0)
    assert s.exact
    assert s.coeffs[0].decoded() == {(0, (0, 0), 0, 4): F(1)}
    # here C_1 is nonzero and gets truncated away
    z = mono(2, q=1)
    e2a = mono(2, p=-2)
    t, = moyal(NuSeries.from_coef(z, 0), [NuSeries.from_coef(e2a, 0)], P, 0)
    assert not t.exact


def assert_sound(small, big, K):
    """small is exact at order K: big, the same product at K + 4, agrees
    up to K and vanishes beyond."""
    assert all(a.terms == b.terms for a, b in zip(big.coeffs, small.coeffs))
    assert all(c.is_zero() for c in big.coeffs[K + 1 :])


def rand_series(nv, rng):
    order = rng.randint(0, 2)
    coeffs = [rand_fn(nv, rng, terms=rng.randint(0, 2)) for _ in range(order + 1)]
    return nu_series(coeffs)


@pytest.mark.parametrize("product", [moyal, star_commutator, half_commutator])
def test_exact_flag_is_sound(product):
    """On the calibrated N = 2 structure, a result marked exact at order
    K is the recomputation at K + 4, truncated; both flags occur."""
    rng = random.Random(41)
    P = poisson_structure(build_chart(2))
    flags = set()
    for _ in range(40):
        f, g = rand_series(2, rng), rand_series(2, rng)
        K = rng.randint(0, 4)
        small, = product(f, [g], P, K)
        flags.add(small.exact)
        if small.exact:
            assert_sound(small, product(f, [g], P, K + 4)[0], K)
    assert flags == {True, False}


def test_moyal_associativity_random():
    rng = random.Random(23)
    P = std_structure(2)
    K = 5
    for _ in range(4):
        f = NuSeries.from_coef(rand_fn(2, rng), K)
        g = NuSeries.from_coef(rand_fn(2, rng), K)
        h = NuSeries.from_coef(rand_fn(2, rng), K)
        (fg,), (gh,) = moyal(f, [g], P, K), moyal(g, [h], P, K)
        (left,), (right,) = moyal(fg, [h], P, K), moyal(f, [gh], P, K)
        for i in range(K + 1):
            assert left.coeffs[i].sub(right.coeffs[i]).is_zero()


def test_transvection_walk_leaves_no_reference_cycle():
    """The walk, one side or both, c_operator, the star product series
    and a whole verify_qmm leave nothing for the cycle collector."""
    table = build_qmm(3, None)
    f = table.moments[table.labels.index("sE")]
    g = table.moments[table.labels.index("f1")]
    small = build_qmm(2)
    gc.collect()
    gc.disable()
    try:
        assert len(transvection_terms(f.coeffs[0], None, table.P, 3)[0]) == 4
        assert len(transvection_terms(f.coeffs[0], [g.coeffs[0]] * 2, table.P, 8)[0]) > 1
        assert not c_operator(f.coeffs[0], g.coeffs[0], table.P, 1).is_zero()
        assert not half_commutator(f, [g], table.P, 4)[0].is_zero()
        assert verify_qmm(small).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_series_do_not_stop_at_a_zero_transvection():
    """C_1(v1^2 v2, v1^4 v2^2) cancels to zero while C_3 does not, so
    the series must run on to the last size of the pair's walk, past the
    order too: at order 0 the commutator's C_1 lands past it as zero and
    its C_3 clears exact."""
    P = poisson_structure(build_chart(2))
    f, g = mono(2, k=(2, 1)), mono(2, k=(4, 2))
    assert c_operator(f, g, P, 1).is_zero()
    assert c_operator(f, g, P, 3).decoded() == {(0, (3, 0), 0, 0): F(-48)}
    for m in range(9):
        assert c_operator(f, g, P, m).terms == c_operator_oracle(f, g, P, m).terms
    h, = half_commutator(NuSeries.from_coef(f, 4), [NuSeries.from_coef(g, 4)], P, 4)
    assert h.exact
    assert h.coeffs[2].decoded() == {(0, (3, 0), 0, 0): F(-8)}
    assert all(h.coeffs[t].is_zero() for t in (0, 1, 3, 4))
    s, = star_commutator(NuSeries.from_coef(f, 0), [NuSeries.from_coef(g, 0)], P, 0)
    assert s.is_zero() and not s.exact


def test_a_transvection_that_cancels_past_the_order_keeps_the_sum_exact():
    """[F, F] = 0: each odd C_m(f, f) cancels, though its walk terms do
    not, so a commutator of a series with itself stays exact and zero at
    every order, the low ones too, where those C_m fall past the order."""
    P = poisson_structure(build_chart(2))
    f = mono(2, p=1, k=(2, 1), q=2).add(mono(2, k=(1, 3), q=1))
    walk, = transvection_terms(f, [f], P, maxsize)
    assert len(walk) > 6 and walk[5]
    for K in range(4):
        F_ = NuSeries.from_coef(f, K)
        for product in (star_commutator, half_commutator):
            s, = product(F_, [F_], P, K)
            assert s.exact and s.is_zero()


def low_degree_series(rng, deg):
    """A series of order 0 to 2 whose coefficients have polynomial degree
    at most deg, so that the unpruned oracle stays small."""
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        f = CoefFn.zero(2)
        for _ in range(rng.randint(1, 3)):
            k1 = rng.randint(0, deg)
            k2 = rng.randint(0, deg - k1)
            q = rng.randint(0, deg - k1 - k2)
            f = f.add(mono(2, rng.randint(-2, 2), (k1, k2), 0, q, F(rng.randint(-3, 3))))
        coeffs.append(f)
    return nu_series(coeffs)


# (product, first m, step in m, weight, shift of the nu power)
SERIES_SHAPES = [(moyal, 0, 1, 1, 0), (star_commutator, 1, 2, 2, 0), (half_commutator, 1, 2, 1, 1)]


def series_oracle(landed, order, first, step, weight, shift):
    """Coefficient term dicts and exact flag of sum nu^(s+m-shift)
    (weight / m!) C_m over the landed (s, m, C_m), for the m the shape
    takes; exact unless a nonzero term lands past the order."""
    coeffs, exact = [CoefFn.zero(2)] * (order + 1), True
    for s, m, c in landed:
        if m < first or (m - first) % step:
            continue
        t, c = s + m - shift, c.scale(F(weight, factorial(m)))
        if t <= order:
            coeffs[t] = coeffs[t].add(c)
        elif not c.is_zero():
            exact = False
    return [c.terms for c in coeffs], exact


def first_drop(landed, order, first, step, weight, shift):
    """The least power i of F at which a nonzero term of the shape lands
    past the order, over the landed (i, j, m, C_m); None if none does."""
    return min(
        (i for i, j, m, c in landed
         if m >= first and (m - first) % step == 0 and i + j + m - shift > order and c.terms),
        default=None,
    )


def test_star_products_match_the_unpruned_series():
    """moyal, star_commutator and half_commutator equal, for each partner
    of a row of one to three series, the sum of the unpruned C_m over every
    m up to the joint degree, exact flag included, at orders 0 to 4.  Some
    partners come in inexact, and in some row two sums turn inexact at
    different powers of F (first_drop); both flags occur."""
    rng, flip = random.Random(29), random.Random(31)
    dense = dense_structure(rng)
    flags, spread, inexact_in = set(), set(), 0
    cases = [(P, deg, size) for sizes in ((1, 1, 1), (2, 2, 3, 3))
             for P, deg in ((poisson_structure(build_chart(2)), 3), (dense, 2)) for size in sizes]
    for P, deg, size in cases:
        A = low_degree_series(rng, deg)
        Bs = [low_degree_series(rng, deg) for _ in range(size)]
        Bs = [B.replace(exact=False) if size > 1 and flip.random() < 0.25 else B for B in Bs]
        inexact_in += sum(not B.exact for B in Bs)
        landed = [
            [
                (i, j, m, c_operator_oracle(f, g, P, m))
                for i, f in enumerate(A.coeffs)
                for j, g in enumerate(B.coeffs)
                for m in range(degree(f) + degree(g) + 1)
            ]
            for B in Bs
        ]
        for product, *shape in SERIES_SHAPES:
            for K in range(5):
                row = product(A, Bs, P, K)
                assert len(row) == size
                for got, B, terms in zip(row, Bs, landed):
                    coeffs, exact = series_oracle(
                        [(i + j, m, c) for i, j, m, c in terms], K, *shape
                    )
                    assert [c.terms for c in got.coeffs] == coeffs
                    assert got.exact == (exact and B.exact)
                    flags.add(got.exact)
                drops = {first_drop(terms, K, *shape) for terms in landed}
                spread.add(len(drops - {None}) > 1)
    assert flags == {True, False} and True in spread and inexact_in


def test_moyal_matches_a_sympy_expansion():
    """exp(nu Lambda^{uw} d_{x_u} d_{y_w}) f(x) g(y) at y = x, expanded
    term by term in sympy, is moyal coefficient by coefficient."""
    sp = pytest.importorskip("sympy")
    P = poisson_structure(build_chart(2))
    xs, ys = sp.symbols("a v1 v2 z"), sp.symbols("b w1 w2 y")

    def expr(fn, coords):
        a, v1, v2, z = coords
        return sum(
            sp.Rational(c.numerator, c.denominator) * sp.exp(p * a) * v1**k[0] * v2**k[1] * z**q
            for (p, k, _, q), c in fn.decoded().items()
        )

    f = mono(2, p=1, k=(1, 0), q=1, c=F(3)).add(mono(2, p=-2, k=(0, 2)))
    g = mono(2, p=2, q=2).add(mono(2, p=2, k=(1, 1))).add(mono(2, k=(1, 0), c=F(-1, 2)))
    order = degree(f) + degree(g)
    got, = moyal(NuSeries.from_coef(f, order), [NuSeries.from_coef(g, order)], P, order)
    assert got.exact
    h = expr(f, xs) * expr(g, ys)
    at_x = dict(zip(ys, xs))
    for m in range(order + 2):
        want = sp.expand(h.subs(at_x) / sp.factorial(m))
        have = expr(got.coeffs[m], xs) if m <= order else 0
        assert sp.expand(want - have) == 0
        h = sum(
            sp.Rational(val.numerator, val.denominator) * sp.diff(h, xs[u], ys[w])
            for u, w, val in poisson_pairs(P.matrix)
        )


def fresh(f: CoefFn) -> CoefFn:
    """A copy of f with an empty derivative memo."""
    return CoefFn(f.nv, dict(f.terms))


def copies(s: NuSeries) -> NuSeries:
    return nu_series([fresh(c) for c in s.coeffs], s.exact)


def holds_memo(f: CoefFn) -> bool:
    return bool(vars(f).get("_derivatives"))


def test_series_reuse_matches_fresh_products():
    """One NuSeries per operand, reused across every product it enters,
    gives the products of fresh copies, exact flag included, and a row
    of partners (the operand itself among them) gives what each partner
    gives alone."""
    rng = random.Random(11)
    P = std_structure(2)
    K = 4
    series = [
        nu_series([rand_fn(2, rng) for _ in range(2)] + [CoefFn.zero(2)] * (K - 1), exact)
        for exact in (True, True, False)
    ]
    for product in (moyal, star_commutator, half_commutator):
        for a in range(3):
            row = product(series[a], series, P, K)
            for b, got in enumerate(row):
                want, = product(copies(series[a]), [copies(series[b])], P, K)
                assert got.exact == want.exact
                assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]
    assert all(holds_memo(c) for s in series for c in s.coeffs if c.terms)


def test_memo_is_shared_across_structures():
    """A derivative depends only on the function: one CoefFn walked under
    two structures of the same nv, in turn, gives what fresh copies give."""
    rng = random.Random(4)
    P, Q = std_structure(2), std_structure(2, p=F(1), vv=F(-3))
    f, g = rand_fn(2, rng), rand_fn(2, rng)
    for m in range(5):
        for S in (P, Q):
            assert c_operator(f, g, S, m) == c_operator(fresh(f), fresh(g), S, m)
    assert holds_memo(f) and holds_memo(g)


def test_checks_leave_no_memo_on_the_table():
    """verify_qmm and the retract operators walk copies of the moments, so
    the table's own coefficients never hold a derivative memo."""
    table = build_qmm(2)
    assert verify_qmm(table, order=4).ok
    for x in k_basis(table.chart)[1]:
        op = retract_operator(table, x, order=4)
        for mom in table.moments:
            apply_operator(op, mom, 4)
    assert not any(holds_memo(c) for m in table.moments for c in m.coeffs)


def test_one_sided_walk_keeps_no_memo():
    """A one-sided walk (gs None) differentiates each step directly and
    leaves f with no memo; it records the derivatives and weights that
    the row walk records against a partner no step exhausts."""
    rng = random.Random(8)
    P = std_structure(2)
    g = mono(2, p=1, k=(5, 5), q=5)
    for _ in range(4):
        f = rand_fn(2, rng, terms=4)
        one_sided, = transvection_terms(f, None, P, 4)
        assert len(one_sided) > 2 and not holds_memo(f)
        joint, = transvection_terms(fresh(f), [g], P, 4)
        assert [[(d, wt) for _, d, _, wt in t] for t in one_sided] == [
            [(d, wt) for _, d, _, wt in t] for t in joint
        ]


@lru_cache(maxsize=None)
def walk_structures() -> tuple:
    """The calibrated chart structure at N = 2 and the dense one of
    test_c_operator_matches_unpruned_enumeration."""
    return poisson_structure(build_chart(2)), dense_structure(random.Random(3))


# Monomials on nv = 2, many of weight p = 0, which the a direction
# cannot differentiate.
walk_monomials = st.builds(
    CoefFn.monomial,
    st.just(2),
    st.one_of(st.just(0), st.integers(-2, 2)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 1),
    st.integers(0, 3),
    st.builds(F, st.integers(1, 3), st.integers(1, 3)),
)
walk_fns = st.lists(walk_monomials, min_size=1, max_size=4).map(
    lambda ms: CoefFn(2, collect(kv for m in ms for kv in m.terms.items()))
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(walk_fns, walk_fns, st.sampled_from([0, 1]), st.integers(0, 7))
@example(mono(2, k=(2, 1), q=1), mono(2, k=(0, 3), q=2), 0, 6)
@example(mono(2, k=(1, 0), q=1).add(mono(2, k=(0, 1))), mono(2, k=(2, 2), q=2), 0, 4)
@example(mono(2, p=1, k=(1, 0)), mono(2, p=-1, k=(0, 1), q=1), 0, 7)
def test_capped_walk_records_what_the_uncapped_walk_records(f, g, which, limit):
    """The exponent caps drop only steps that land on a zero derivative:
    the walk records the same terms in the same order, joint and
    one-sided, and each weight is an int.  The examples take a mixed key
    (v1 z + v2: after d_v1 no term holds v2) and a limit past the joint
    degree, where the terms end at their last nonempty size."""
    P = walk_structures()[which]
    for other in (g, None):
        got, = transvection_terms(fresh(f), None if other is None else [fresh(other)], P, limit)
        index = key_layout(P.nv).index
        got = [[(index(w), *rest) for w, *rest in terms] for terms in got]
        assert got == uncapped_walk_oracle(f, other, P, limit)
        assert all(type(wt) is int for terms in got for *_, wt in terms)


# Rows of partners: indices into a pool of drawn functions, whose last
# entry is the zero function.
walk_rows = st.lists(st.integers(0, 3), max_size=5)
walk_limits = st.sampled_from([0, 1, 2, 3, 4, maxsize])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(walk_fns, st.lists(walk_fns, min_size=1, max_size=3), walk_rows, walk_limits,
       st.sampled_from([0, 1]), st.booleans())
@example(mono(2, k=(2, 1), q=1), [mono(2, k=(0, 3), q=2)], [0, 0, 1], 4, 0, False)
@example(mono(2, k=(2, 1), q=1), [mono(2, k=(0, 3), q=2)], [0, 1, 0], maxsize, 0, True)
@example(mono(2, p=1, k=(1, 0)), [mono(2, p=-1, k=(0, 1), q=1)], [], 2, 1, True)
def test_row_walk_gives_each_partner_its_pair_walk(f, pool, row, limit, which, odd):
    """For every partner of a row, the row walk up to one limit records
    the terms (w, d^u f, d^w g, weight) of each size, in walk order, that
    the walk of that pair alone up to that limit records
    (pair_walk_oracle); with odd, the even sizes stay empty.  The rows
    take the limits 0 to 4 and maxsize, zero partners, the same CoefFn
    more than once and the empty row; the one-sided walk takes each limit
    but maxsize, which the a direction alone would never reach, and keeps
    no memo."""
    P = walk_structures()[which]
    shared = [fresh(g) for g in pool] + [CoefFn.zero(2)]
    partners = [shared[i % len(shared)] for i in row]
    got = transvection_terms(fresh(f), partners, P, limit, odd)
    assert len(got) == len(row)
    for terms, g in zip(got, partners):
        want = pair_walk_oracle(fresh(f), fresh(g), P, limit)
        assert terms == [[] if odd and m % 2 == 0 else t for m, t in enumerate(want)]
    for limit in range(5):
        alone = fresh(f)
        got, = transvection_terms(alone, None, P, limit, odd)
        want = pair_walk_oracle(fresh(f), None, P, limit)
        assert got == [[] if odd and m % 2 == 0 else t for m, t in enumerate(want)]
        assert not holds_memo(alone)


def test_a_one_sided_walk_along_a_stops_at_the_limit():
    """A function with p != 0 has no cap along a, so the one-sided walk
    repeats the pair (a, z) until the limit stops it: at limits 0 to 4,
    odd or not, it returns limit + 1 size lists, within a second."""
    P = std_structure(2)
    f = mono(2, p=1, q=1)
    assert f.caps[0] == maxsize

    def overrun(*_):
        raise TimeoutError("the one-sided walk ran past its limit")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(1)
    try:
        for odd in (False, True):
            for limit in range(5):
                terms, = transvection_terms(f, None, P, limit, odd)
                assert len(terms) == limit + 1
                assert terms[limit] or odd and limit % 2 == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_verify_qmm_walks_each_row_once(monkeypatch):
    """verify_qmm walks each moment coefficient once against its whole
    row of partners: at N = 8, order 12 the walk expands a prefix (calls
    formal_star._extend) at least 3 times less often than walking every
    pair of coefficients on its own (oracles._pair_extend), which a fall
    back to per-pair walking would match."""
    counts = {"row": 0, "pair": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(formal_star, "_extend", "row")
    counting(oracles, "_pair_extend", "pair")
    table = build_qmm(8)
    assert verify_qmm(table, 12).ok
    coeffs = [[fresh(f) for f in s.terms.values()] for s in table.moments]
    for fs, gs in combinations(coeffs, 2):
        for f in fs:
            for g in gs:
                pair_walk_oracle(f, g, table.P, maxsize)
    assert counts["row"] and 3 * counts["row"] <= counts["pair"]


def test_no_walk_step_lands_on_a_zero_derivative(monkeypatch):
    """Each step is bounded by the caps of the derivative it starts from,
    which are exact per coordinate, so neither the row walk of
    verify_qmm nor the one-sided walk of retract_operator takes a
    derivative that is zero."""
    calls = []

    def counting(name):
        original = getattr(CoefFn, name)

        def wrapper(*args):
            out = original(*args)
            calls.append(bool(out.terms))
            return out

        monkeypatch.setattr(CoefFn, name, wrapper)

    counting("step")
    for N in (2, 3):
        table = build_qmm(N)
        for t in (table, mutate_drop_nu2(table)):
            verify_qmm(t, 12)
    steps = len(calls)
    table = build_qmm(3)
    counting("diff_coord")
    for x in k_basis(table.chart)[1]:
        retract_operator(table, x, 8)
    assert steps and len(calls) > steps and all(calls)


def test_walk_refuses_operands_of_another_nv():
    f = CoefFn.monomial(4, 1, (1, 0, 1, 0), 0, 1, 1)
    g = CoefFn.monomial(2, 0, (0, 1), 0, 0, 1)
    P = std_structure(2)
    with pytest.raises(ValueError, match="nv differs"):
        c_operator(f, g, P, 1)
    with pytest.raises(ValueError, match="nv differs"):
        c_operator(g, f, P, 1)
    with pytest.raises(ValueError, match="nv differs"):
        transvection_terms(f, None, P, 2)
    with pytest.raises(ValueError, match="nv differs"):
        transvection_terms(g, [g, f], P, 2)
    for limit in (2.0, True, -1, [2], None):
        for gs in (None, [g, g]):
            with pytest.raises(ValueError, match="an int limit >= 0"):
                transvection_terms(g, gs, P, limit)
    for m in (-1, 1.0, True):
        with pytest.raises(ValueError, match="an int limit >= 0"):
            c_operator(g, g, P, m)
    for a, b in ((f, g), (g, f)):
        for combine in (a.add, a.sub, a.mul):
            with pytest.raises(ValueError, match="do not combine"):
                combine(b)
    assert len(transvection_terms(g, None, P, 2)[0]) == 2


def test_half_commutator():
    rng = random.Random(5)
    P = std_structure(2)
    for _ in range(5):
        f, g = rand_fn(2, rng), rand_fn(2, rng)
        h, = half_commutator(NuSeries.from_coef(f, 4), [NuSeries.from_coef(g, 4)], P, 4)
        assert h.coeffs[0].sub(c_operator(f, g, P, 1)).is_zero()


def test_half_commutator_lands_into_a_given_sum():
    """into, one sum per partner, receives the half commutators, the
    operands' exact flags included, and is returned; a sum of another
    order, or a sum count other than the partner count, is refused."""
    rng = random.Random(17)
    P = std_structure(2)
    for K in range(4):
        A, B = low_degree_series(rng, 3), low_degree_series(rng, 3)
        A.exact, B.exact = K != 2, K != 3
        want = half_commutator(A, [B, A], P, K)
        acc = [NuSum(2, K), NuSum(2, K)]
        assert half_commutator(A, [B, A], P, K, acc) is acc
        for s, w, partner in zip(acc, want, (B, A)):
            got = s.series()
            assert got.exact == w.exact
            assert not got.exact or (A.exact and partner.exact)
            assert [c.terms for c in got.coeffs] == [c.terms for c in w.coeffs]
    with pytest.raises(ValueError, match="order"):
        half_commutator(A, [B], P, 2, [NuSum(2, 3)])
    with pytest.raises(ValueError, match="one per partner"):
        half_commutator(A, [B, A], P, 2, [NuSum(2, 2)])


def test_nu_sum_add_of_zero_times_a_series_changes_nothing():
    z, one = mono(2, q=1), CoefFn.const(2, F(1))
    acc = NuSum(2, 1).add(nu_series([one, z]))
    before = [c.terms for c in acc.series().coeffs]
    for s in (nu_series([z, z], False), nu_series([z, one, z, one])):
        assert acc.add(s, 0) is acc
        assert acc.exact
        assert [c.terms for c in acc.series().coeffs] == before
    assert NuSum(2, 0).add(nu_series([one, z], False), 0).exact


def test_nu_sum_refuses_a_series_of_another_nv():
    """add and sub of series go through NuSum.add, so neither can store
    an nv = 3 key in an nv = 2 coefficient; a zero series of another nv
    is refused too."""
    two, three = (NuSeries.from_coef(CoefFn.const(nv, 1), 2) for nv in (2, 3))
    message = "^a series with nv 3 does not add to a sum with nv 2$"
    for call in (
        lambda: two.add(three),
        lambda: two.sub(three),
        lambda: NuSum(2, 2).add(three, 5),
        lambda: two.add(NuSeries.zero(3, 2)),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert two.add(two).coeffs[0].decoded() == {(0, (0, 0), 0, 0): 2}


def test_series_scale_keeps_an_int_factor_an_int():
    """verify_qmm lands int coefficients, so an int factor must not turn
    them into Fractions."""
    s = NuSeries.from_coef(CoefFn.of(1, [((0, (0,), 0, 0), 3)]), 1)
    assert [type(c) for c in s.scale(2).coeffs[0].terms.values()] == [int]
    assert s.scale(F(1, 2)).coeffs[0].decoded() == {(0, (0,), 0, 0): F(3, 2)}


def test_nu_series_truncation():
    one = CoefFn.const(2, F(1))
    z = mono(2, q=1)
    plus = nu_series([one, z])
    minus = nu_series([one, z.neg()])
    prod = plus.mul(minus)
    assert prod.coeffs[0].terms == one.terms and prod.coeffs[1].is_zero()
    assert not prod.exact
    plus2 = nu_series([one, z, CoefFn.zero(2)])
    minus2 = nu_series([one, z.neg(), CoefFn.zero(2)])
    prod2 = plus2.mul(minus2)
    assert prod2.exact
    assert prod2.coeffs[2].decoded() == {(0, (0, 0), 0, 2): F(-1)}


def test_nu_sum_land_is_the_truncation_point():
    """land sums in place up to the order; past it nothing is stored, and
    only a nonzero term clears exact."""
    z, one = mono(2, q=1), CoefFn.const(2, F(1))
    acc = NuSum(2, 1)
    acc.land(1, [(key, c) for key, c in z.terms.items()] * 2)
    acc.land(1, z.neg().terms.items())
    acc.land(0, one.terms.items())
    acc.land(0, one.neg().terms.items())
    acc.land(2, [(key, F(0)) for key in z.terms])
    assert acc.exact
    s = acc.series()
    assert (s.order, s.exact) == (1, True)
    assert s.coeffs[0].is_zero() and s.coeffs[1].terms == z.terms
    acc.land(3, z.terms.items())
    assert not acc.exact
    assert acc.series().coeffs[1].terms == z.terms
    assert not NuSum(2, 0).add(nu_series([one, z])).series().exact
    assert NuSum(2, 0).add(nu_series([one, CoefFn.zero(2)])).series().exact


def test_json_roundtrips():
    rng = random.Random(3)
    f = rand_fn(2, rng).add(mono(2, alpha=2, c=F(7, 3)))
    f2 = coef_from_json(coef_to_json(f))
    assert f2.nv == f.nv and f2.terms == f.terms
    s = nu_series([f, CoefFn.zero(2), f.neg()], False)
    s2 = series_from_json(series_to_json(s))
    assert s2.order == 2 and s2.exact is False
    assert all(a.terms == b.terms for a, b in zip(s.coeffs, s2.coeffs))


def test_coef_from_json_sums_repeated_terms():
    half = [0, [1, 0], 0, 2, "1/2"]
    f = coef_from_json({"nv": 2, "terms": [half, half, [1, [0, 0], 0, 0, "0"]]})
    assert f.decoded() == {(0, (1, 0), 0, 2): F(1)}
    g = coef_from_json({"nv": 2, "terms": [half, [0, [1, 0], 0, 2, "-1/2"]]})
    assert g.is_zero()


def test_coef_from_json_refuses_a_multi_index_of_the_wrong_length():
    """Loaded, [0, [1], 0, 0, "1"] on nv = 2 would multiply with
    monomial(2, 0, (1, 1), 0, 0, 1) to the key (0, (2,), 0, 0): the
    multi-indices zip and v_2 drops out."""
    for k in ([1], [1, 0, 0], []):
        with pytest.raises(ValueError, match="2 multi-index entries"):
            coef_from_json({"nv": 2, "terms": [[0, k, 0, 0, "1"]]})


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("bad", [0.5, True, "1", None, -1])
def test_coef_from_json_refuses_an_exponent_that_is_not_an_int(position, bad):
    """Every exponent is an int, and every one but p is at least 0: loaded,
    [0, [-1], 0, -2, "1"] had degree -3 and caps (0, 0, 0), and diff
    raised math.perm's error."""
    exponents = [0, 1, 0, 0, 2]  # p, k_1, k_2, alpha power, z power
    exponents[position] = bad
    p, k1, k2, s, q = exponents
    payload = {"nv": 2, "terms": [[p, [k1, k2], s, q, "1"]]}
    if bad == -1 and position == 0:
        assert coef_from_json(payload).decoded() == {(-1, (1, 0), 0, 2): F(1)}
        return
    message = "int exponents" if bad != -1 else "exponents >= 0"
    with pytest.raises(ValueError, match=message):
        coef_from_json(payload)
    with pytest.raises(ValueError, match=message):
        series_from_json({"order": 0, "exact": True, "coeffs": [payload]})


@pytest.mark.parametrize("position", range(1, 5))
def test_coef_from_json_refuses_an_exponent_past_a_key_field(position):
    """An exponent of 128 does not fit the 8-bit field of its key: the
    importers refuse it with ValueError, as any malformed term, while 127
    loads and writes back."""
    for e in (127, 128, 2**64):
        exponents = [-1, 1, 0, 0, 2]  # p, k_1, k_2, alpha power, z power
        exponents[position] = e
        p, k1, k2, s, q = exponents
        payload = {"nv": 2, "terms": [[p, [k1, k2], s, q, "1/2"]]}
        if e == 127:
            assert coef_to_json(coef_from_json(payload)) == payload
            continue
        with pytest.raises(ValueError, match="does not fit a key field"):
            coef_from_json(payload)
        with pytest.raises(ValueError, match="does not fit a key field"):
            series_from_json({"order": 0, "exact": True, "coeffs": [payload]})


@pytest.mark.parametrize("nv", [-1, True, "2", 2.0, None])
def test_coef_from_json_refuses_an_nv_that_is_not_an_int_at_least_zero(nv):
    with pytest.raises(ValueError, match="nv must be an int"):
        coef_from_json({"nv": nv, "terms": []})


def _series_blob(order=1, exact=True, nvs=(2, 2)):
    return {"order": order, "exact": exact, "coeffs": [{"nv": nv, "terms": []} for nv in nvs]}


@pytest.mark.parametrize(
    "order, nvs", [(1, (2,)), (1, (2, 2, 2)), (0, ()), (-1, ()), (True, (2, 2))]
)
def test_series_from_json_refuses_a_coefficient_count_other_than_order_plus_one(order, nvs):
    with pytest.raises(ValueError, match="order \\+ 1 coefficients"):
        series_from_json(_series_blob(order=order, nvs=nvs))


def test_series_from_json_refuses_coefficients_of_different_nv():
    with pytest.raises(ValueError, match="differ in nv"):
        series_from_json(_series_blob(nvs=(2, 3)))


@pytest.mark.parametrize("exact", ["no", 1, 0, None])
def test_series_from_json_refuses_an_exact_flag_that_is_not_a_bool(exact):
    with pytest.raises(ValueError, match="exact must be a bool"):
        series_from_json(_series_blob(exact=exact))
    assert series_from_json(_series_blob(exact=False)).exact is False


@pytest.mark.parametrize(
    "load, payload, message",
    [
        (coef_from_json, {"nv": 2, "terms": 5}, "terms must be a list"),
        (coef_from_json, {"nv": 2, "terms": [3]}, "a term must be a list"),
        (coef_from_json, {"nv": 2, "terms": [[0, 1, 0, 0, "1"]]}, "a multi-index must be a list"),
        (coef_from_json, [2, []], "a coefficient must be a dict"),
        (series_from_json, {"order": 0, "exact": True, "coeffs": 1}, "coeffs must be a list"),
        (series_from_json, {"order": 0, "exact": True, "coeffs": ["x"]}, "a coefficient must"),
    ],
)
def test_importers_refuse_a_scalar_in_place_of_a_container(load, payload, message):
    """coef_from_json({"nv": 2, "terms": 5}) raised TypeError before."""
    with pytest.raises(ValueError, match=message):
        load(payload)


def test_monomial_and_series_shape_errors():
    with pytest.raises(ValueError, match="multi-index length"):
        CoefFn.monomial(2, 0, (1,), 0, 0, F(1))
    short, long = NuSeries.zero(1, 2), NuSeries.zero(1, 3)
    with pytest.raises(ValueError, match="series orders differ"):
        short.add(long)
    with pytest.raises(ValueError, match="series orders differ"):
        short.mul(long)


def test_poisson_structure_validation():
    with pytest.raises(ValueError):
        PoissonStructure(2, [[F(0)] * 3 for _ in range(3)])
    m = [[F(0)] * 4 for _ in range(4)]
    m[0][3] = F(1, 2)
    with pytest.raises(ValueError):
        PoissonStructure(2, m)


def test_poisson_structure_keeps_integer_pair_values():
    """delta is the least common denominator of the entries and each
    directed pair carries the int delta * Lambda^{uw}; the matrix keeps
    the Fractions."""
    P = std_structure(2, p=F(1, 2), vv=F(-2, 3))
    assert P.delta == 6
    assert P.directed_pairs == ((0, 3, 3), (1, 2, -4), (2, 1, 4), (3, 0, -3))
    assert all(type(val) is int for _, _, val in P.directed_pairs)
    assert P.matrix[0][3] == F(1, 2) and type(P.matrix[1][2]) is F
    assert std_structure(2, p=F(1), vv=F(3)).delta == 1
