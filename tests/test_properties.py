"""Property tests: Gaussian rational products against the four-product
formula, ring laws of the shared sparse core, the Leibniz rule
of the Poisson bracket, the associativity of the Moyal product, the
Jacobi identity of the star commutator, the coordinates a linalg
Frame reads against the dense rref oracle, and the linalg change-of-basis
helpers (combine, bilinear, split_symplectic) against dense matrix
products.  The drawn vectors are dense lists; the package reads and
returns them as sparse maps, which must match the dense values exactly.

Examples are drawn deterministically (derandomize=True), so a failure
reproduces on every run.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballquant.ball_quantization import build_chart, poisson_structure
from ballquant.formal_star import CoefFn, NuSeries, moyal, poisson, star_commutator
from ballquant.linalg import Frame, bilinear, combine, split_symplectic
from ballquant.retract_pde import XiFn
from ballquant.scalars import GScalar, frac_str, parse_frac

from oracles import dense, identity_matrix, mat_mul, rref_oracle, sparse

NV = 2
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


@lru_cache(maxsize=None)
def calibrated_structure():
    """The calibrated N = 2 Poisson structure, built on first use: a fault
    in the chart path then fails the tests that use it instead of the
    collection of the whole module."""
    return poisson_structure(build_chart(2))


def sum_of(fns) -> CoefFn:
    total = CoefFn.zero(NV)
    for f in fns:
        total = total.add(f)
    return total


small = st.integers(-2, 2)
degree = st.integers(0, 2)
monomials = st.builds(
    CoefFn.monomial,
    st.just(NV),
    small,
    st.tuples(degree, degree),
    st.integers(0, 1),
    degree,
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
)
coef_fns = st.lists(monomials, max_size=3).map(sum_of)
nonzero_fns = coef_fns.filter(lambda f: not f.is_zero())
xi_fns = st.dictionaries(
    st.tuples(small, small, degree, small, st.sampled_from([0, 2])),
    st.builds(GScalar.of, st.integers(-2, 2), st.integers(-1, 1)).filter(bool),
    max_size=3,
).map(XiFn)


rationals = st.one_of(st.just(F(0)), st.builds(F, st.integers(-5, 5), st.integers(1, 4)))
gscalars = st.builds(GScalar, rationals, rationals)


@PROPERTY
@given(rationals)
def test_parse_frac_reads_frac_str_back(x):
    assert parse_frac(frac_str(x)) == x


def test_parse_frac_takes_strings_and_ints_only():
    assert parse_frac("0.1") == F(1, 10)
    assert parse_frac(" -3/4 ") == F(-3, 4) and parse_frac(-3) == -3
    for bad in (0.5, 0.1, True, False, F(1, 2), None, [1]):
        with pytest.raises(ValueError):
            parse_frac(bad)


def _is_exact(x: GScalar) -> bool:
    return type(x.re) is F and type(x.im) is F


@PROPERTY
@given(gscalars, gscalars, st.one_of(rationals, st.integers(-3, 3)))
def test_gscalar_products_follow_the_four_product_formula(x, y, c):
    """Zero parts take the short paths; the values must not notice."""
    prod = x * y
    assert prod == GScalar(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)
    assert prod == y * x
    assert x.scale(c) == GScalar(x.re * c, x.im * c)
    assert _is_exact(prod) and _is_exact(y * x) and _is_exact(x.scale(c))


@PROPERTY
@given(coef_fns, coef_fns, coef_fns)
def test_coef_ring_laws(a, b, c):
    assert a.mul(b.add(c)).terms == a.mul(b).add(a.mul(c)).terms
    assert a.mul(b).terms == b.mul(a).terms
    assert a.sub(a).is_zero()


@PROPERTY
@given(xi_fns, xi_fns, xi_fns)
def test_xifn_ring_laws(a, b, c):
    assert a.mul(b.add(c)).sub(a.mul(b).add(a.mul(c))).is_zero()
    assert a.mul(b).sub(b.mul(a)).is_zero()
    assert a.sub(a).is_zero()


@PROPERTY
@given(coef_fns, coef_fns, coef_fns)
def test_poisson_leibniz(f, g, h):
    P = calibrated_structure()
    lhs = poisson(f, g.mul(h), P)
    rhs = poisson(f, g, P).mul(h).add(g.mul(poisson(f, h, P)))
    assert lhs.terms == rhs.terms


@PROPERTY
@given(coef_fns, coef_fns, coef_fns)
def test_moyal_associativity(f, g, h):
    """(F * G) * H = F * (G * H) coefficient by coefficient on the
    calibrated N = 2 structure.  Each C_m lowers the polynomial degree by
    at least m, so at K = the sum of the degrees nothing is truncated."""
    P = calibrated_structure()
    K = f.degree() + g.degree() + h.degree()
    F_, G_, H_ = (NuSeries.from_coef(x, K) for x in (f, g, h))
    left = moyal(moyal(F_, G_, P, K), H_, P, K)
    right = moyal(F_, moyal(G_, H_, P, K), P, K)
    assert left.exact and right.exact
    assert [c.terms for c in left.coeffs] == [c.terms for c in right.coeffs]


@PROPERTY
@given(nonzero_fns, nonzero_fns, nonzero_fns)
def test_star_commutator_jacobi(f, g, h):
    """[F, [G, H]] + [G, [H, F]] + [H, [F, G]] = 0 through order K on the
    calibrated N = 2 structure."""
    P = calibrated_structure()
    K = 3
    F_, G_, H_ = (NuSeries.from_coef(x, K) for x in (f, g, h))

    def br(x, y):
        return star_commutator(x, y, P, K)

    total = br(F_, br(G_, H_)).add(br(G_, br(H_, F_))).add(br(H_, br(F_, G_)))
    assert total.is_zero()


entries = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def frame_cases(draw):
    """A basis of up to 4 rows in up to 4 columns, a vector of the same
    width and 4 candidate coordinates."""
    n = draw(st.integers(1, 4))
    vec = st.lists(entries, min_size=n, max_size=n)
    coords = st.lists(entries, min_size=4, max_size=4)
    return draw(st.lists(vec, max_size=4)), draw(vec), draw(coords)


def _rank(rows) -> int:
    return len(rref_oracle(rows)[0])


@PROPERTY
@given(frame_cases())
def test_frame_matches_rref_oracle(case):
    basis, v, c = case
    if _rank(basis) < len(basis):
        with pytest.raises(ValueError):
            Frame(map(sparse, basis))
        return
    frame = Frame(map(sparse, basis))
    c = c[: len(basis)]
    combo = [sum((ck * b[t] for ck, b in zip(c, basis)), F(0)) for t in range(len(v))]
    assert frame.coords(sparse(combo)) == sparse(c)
    got = frame.coords(sparse(v))
    assert (got is not None) == (_rank(basis + [v]) == len(basis))
    if got is not None:
        assert all(got.values())
        got = dense(got, len(basis))
        assert [sum((g * b[t] for g, b in zip(got, basis)), F(0)) for t in range(len(v))] == v


@st.composite
def matrix_cases(draw):
    """An r x c matrix with many zero entries, a row vector of length r
    and a column vector of length c."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = draw(st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r))
    x = draw(st.lists(rationals, min_size=r, max_size=r))
    y = draw(st.lists(rationals, min_size=c, max_size=c))
    return matrix, x, y


# Two nonzero coefficients meet in each column, so the sums accumulate.
OVERLAP = ([[F(1), F(2)], [F(3), F(0)]], [F(1), F(-1)], [F(2), F(1)])


@PROPERTY
@given(matrix_cases())
@example(OVERLAP)
def test_bilinear_is_x_transpose_m_y(case):
    matrix, x, y = case
    want = mat_mul([x], mat_mul(matrix, [[v] for v in y]))[0][0]
    assert bilinear(matrix, sparse(x), sparse(y)) == want


@PROPERTY
@given(matrix_cases())
@example(OVERLAP)
def test_combine_is_a_row_times_a_matrix(case):
    matrix, x, _ = case
    got = combine(sparse(x), [sparse(row) for row in matrix])
    assert got == sparse(mat_mul([x], matrix)[0])


@PROPERTY
@given(st.integers(1, 5))
def test_split_symplectic_is_antisymmetric_with_square_minus_one(half):
    n = 2 * half
    omega = split_symplectic(n)
    # split-half order: the pairing of e_i with e_(half + i) is +1
    assert [row[half:] for row in omega[:half]] == identity_matrix(half)
    assert [list(col) for col in zip(*omega)] == [[-v for v in row] for row in omega]
    assert mat_mul(omega, omega) == [[-v for v in row] for row in identity_matrix(n)]
