"""Property tests: Gaussian rational products against the four-product
formula, the integer Gaussian rational kernel against Fraction pairs
(arithmetic, one canonical form, refusal of ints and tuples), ring
laws of the shared sparse core, its in-place product (mul_into) and
the caps a derivative folds as it is built, the Leibniz rule of the Poisson
bracket, the associativity of the Moyal product, the Jacobi identity
of the star commutator, the nu series operations and codec against the
padded-list oracle, the integer-scaled star commutator against the
Fraction one, the coordinates a linalg Frame reads against
the dense rref oracle, the Killing form that Su1nModel.beta_form reads
off the basis matrices against the structure table's, the su(1, N)
membership check of a Gaussian-integer matrix against its GScalar
definition, the elimination's
independence of the order, scale and repetition of its rows, the linalg
change-of-basis helpers (combine, bilinear, split_symplectic) against
dense matrix products, the refusal of floats and bools where a number
must be exact, and the importers on mutated exports and on index keys
that to_json never writes.  The drawn vectors are dense lists (sparse
maps for the Killing form); the package reads and returns them as
sparse maps, which must match the dense values exactly.

Examples are drawn deterministically (derandomize=True), so a failure
reproduces on every run.
"""
from __future__ import annotations

import copy
import re
import sys
import time
from fractions import Fraction as F
from functools import lru_cache, partial
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballquant.ball_quantization import build_chart, build_qmm, mutate_add_nu_const
from ballquant.ball_quantization import poisson_structure
from ballquant.ce_cohomology import Cochain, cochain_from_json, cochain_to_json
from ballquant.formal_star import (
    CoefFn,
    NuSeries,
    PoissonStructure,
    FIELD_BITS,
    c_operator,
    coef_from_json,
    coef_to_json,
    half_commutator,
    key_layout,
    moyal,
    series_from_json,
    series_to_json,
    star_commutator,
)
from ballquant.lie_core import LieAlgebra
from ballquant.linalg import Frame, bilinear, combine, nullspace, rank_sparse, rref, solve_in_span
from ballquant.linalg import split_symplectic
from ballquant.psd_builder import PsdSpec, build_psd, psd_spec_from_json, psd_spec_to_json
from ballquant.retract_pde import XiFn, xifn_from_json, xifn_to_json
from ballquant.scalars import LITERAL_LENGTH, GScalar, collect, frac_str, parse_frac
from ballquant.su1n_model import _check_su1n, build_su1n

from oracles import dense, identity_matrix, mat_mul, nullspace_oracle, rref_oracle, sparse
from oracles import degree as total_degree
from oracles import DenseSeries, nu_series, tuple_caps, tuple_diff, tuple_mul

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
    for bad in (0.5, 0.1, True, False, F(1, 2), None, [1], "1/0", "-3/0"):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_frac_str_writes_a_rational_past_the_int_digit_limit():
    """str refuses an int of more digits than sys.get_int_max_str_digits()
    (4300 by default); frac_str writes it whole, in chunks of 600 digits
    whose zeros it keeps."""
    assert len(str(10**4000)) == 4001
    assert frac_str(F(-(123 * 10**4800 + 45), 1)) == "-123" + "0" * 4798 + "45/1"
    assert frac_str(F(1, 10**5000)) == "1/1" + "0" * 5000
    assert frac_str(F(10**600 * 7, 1)) == "7" + "0" * 600 + "/1"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-/ ._eE\t\u0663", max_size=12))
@example(" -3/4 ")
@example("+0/0")
def test_parse_frac_reads_short_literals_as_fraction_does(s):
    """Below the digit limit, parse_frac's own reading of integer and n/d
    literals gives what Fraction gives, and refuses what it refuses; it
    refuses besides an exponent past sys.get_int_max_str_digits()."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", s)
    try:
        if exponent and abs(int(exponent[1])) > sys.get_int_max_str_digits():
            raise ValueError("Fraction would compute 10 to that power first")
        want = F(s)
    except (ValueError, ZeroDivisionError):
        want = None
    try:
        got = parse_frac(s)
    except ValueError:
        got = None
    assert got == want and (got is None or type(got) is F)


def test_parse_frac_reads_back_what_frac_str_writes_past_the_int_digit_limit():
    """Integer and n/d literals are read whole past the digit limit of
    int(), so CoefFn and XiFn exports of such rationals round trip; other
    forms keep Fraction's own limit, and a string longer than
    LITERAL_LENGTH is refused."""
    limit = sys.get_int_max_str_digits()
    huge = [F(10**4300), F(-(123 * 10**4800 + 45), 7), F(3, 10**5000 + 1), F(-(10**9000 + 1))]
    for x in huge:
        assert parse_frac(frac_str(x)) == x
        f = CoefFn.const(2, x)
        assert coef_from_json(coef_to_json(f)) == f
        theta = XiFn({(0, 1, 0, 1, 0): GScalar(x, -x), (1, 0, 2, 0, 2): GScalar(0, x)})
        assert xifn_from_json(xifn_to_json(theta)).terms == theta.terms
    assert parse_frac(" +" + "9" * (limit + 1) + "/" + "3" * (limit + 1)) == F(3)
    with pytest.raises(ValueError):
        parse_frac("0." + "1" * (limit + 1))
    with pytest.raises(ValueError, match=f"characters is past {LITERAL_LENGTH}$"):
        parse_frac("1/" + "1" * (LITERAL_LENGTH - 1))


def test_parse_frac_refuses_an_exponent_past_the_int_digit_limit():
    """Fraction computes 10**exp before anything else, so an exponent is
    bounded as the digits of an int are, by sys.get_int_max_str_digits();
    the refusal comes before that power, so it returns at once."""
    limit = sys.get_int_max_str_digits()
    assert parse_frac("1e5") == 100000 and parse_frac("-2.5E-3") == F(-1, 400)
    assert parse_frac(f"1e-{limit}") == F(1, 10**limit)
    for bad in ("1e999999999", "1e-999999999", "1E+999_999_999", f"1e{limit + 1}"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            parse_frac(bad)
        assert time.perf_counter() - start < 1


# Each input that must be exact, the name its TypeError must give, and
# a call that sets it; a binary float such as 0.1 is not 1/10.
NOT_EXACT = [
    ("alpha", lambda x: build_qmm(1, alpha=x)),
    ("az_weight", lambda x: poisson_structure(build_chart(1), az_weight=x)),
    ("inner_scale", lambda x: poisson_structure(build_chart(1), inner_scale=x)),
    ("value", lambda x: mutate_add_nu_const(build_qmm(1, F(1)), "E", x)),
    ("coefficient", lambda x: CoefFn.monomial(1, 0, (0,), 0, 0, x)),
    ("coefficient", lambda x: CoefFn.const(1, x)),
    ("exponents", lambda x: CoefFn.monomial(1, x, (0,), 0, 0, 1)),
    ("exponents", lambda x: CoefFn.monomial(1, 0, (x,), 0, 0, 1)),
    ("cross action", lambda x: build_psd(PsdSpec(2, [2, 1], {(1, 2): {"H": [[x, 0], [0, -1]]}}))),
    ("structure constant", lambda x: LieAlgebra(3, ["X", "Y", "Z"], {(0, 1): {2: x}})),
    ("Poisson matrix entry", lambda x: PoissonStructure(0, [[0, x], [-1, 0]])),
    ("scale factor", lambda x: NuSeries.from_coef(CoefFn.const(1, 1), 0).scale(x)),
]
NOT_EXACT_IDS = [
    "alpha", "az_weight", "inner_scale", "value", "monomial", "const", "p", "k", "psd",
    "lie", "poisson", "scale",
]


@pytest.mark.parametrize("bad", [0.1, 1.7, True, False, "1/2"])
@pytest.mark.parametrize("name, make", NOT_EXACT, ids=NOT_EXACT_IDS)
def test_exact_inputs_refuse_anything_but_ints_and_fractions(name, make, bad):
    with pytest.raises(TypeError, match=name):
        make(bad)


@pytest.mark.parametrize("x", [1, F(1, 2)])
def test_exact_inputs_keep_every_coefficient_a_fraction(x):
    table = build_qmm(1, alpha=x)
    tables = [table.replace(P=poisson_structure(table.chart, x, x))]
    tables.append(mutate_add_nu_const(tables[0], "E", x))
    coefs = [c for t in tables for s in t.moments for f in s.coeffs for c in f.terms.values()]
    assert coefs and all(type(c) is F for c in coefs) and type(tables[0].alpha) is F


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


# The kernel against plain (re, im) Fraction pairs, over wider parts so
# that sums and products have common factors to divide out.
KERNEL = settings(derandomize=True, max_examples=200, deadline=None)
wide_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
pairs = st.tuples(wide_rationals, wide_rationals)


def _g(pair) -> GScalar:
    return GScalar(*pair)


def _is_canonical(x: GScalar) -> bool:
    a, b, d = x
    return d > 0 and gcd(a, b, d) == 1 and _is_exact(x)


@KERNEL
@given(pairs, pairs, st.integers(-6, 6), wide_rationals)
def test_gscalar_kernel_follows_fraction_pairs(p, q, n, c):
    (a, b), (e, f) = p, q
    x, y = _g(p), _g(q)
    results = [
        (x + y, (a + e, b + f)),
        (x - y, (a - e, b - f)),
        (-x, (-a, -b)),
        (x * y, (a * e - b * f, a * f + b * e)),
        (x.scale(n), (a * n, b * n)),
        (x.scale(c), (a * c, b * c)),
    ]
    for got, (re, im) in results:
        assert (got.re, got.im) == (re, im) and _is_canonical(got)
    assert bool(x) == bool(a or b)


@KERNEL
@given(pairs, pairs)
def test_gscalar_values_have_one_form(p, q):
    """Equal values are equal triples with equal hashes, whatever route
    made them; zero is (0, 0, 1) and re, im read the parts back."""
    x, y = _g(p), _g(q)
    routes = [x, (x + y) - y, (x - y) + y, x * GScalar.of(1), x.scale(F(3)).scale(F(1, 3))]
    assert all(tuple(r) == tuple(x) and hash(r) == hash(x) and r == x for r in routes)
    assert tuple(x - x) == (0, 0, 1) == tuple(GScalar.of()) == tuple(x.scale(0))
    assert GScalar(x.re, x.im) == x and (x.re, x.im) == p and _is_exact(x)
    assert (x == y) == (p == q) and (x != y) == (p != q)


def test_gscalar_mixes_only_with_gscalars():
    """An int or tuple operand raises, a tuple or int never equals a value,
    values are not ordered and no attribute can be set."""
    g = GScalar.of(F(1, 2), -3)
    bad = [
        lambda: 2 * g, lambda: g * 2, lambda: g + 1, lambda: 1 + g, lambda: g - 1,
        lambda: 1 - g, lambda: g + (1,), lambda: (1,) + g, lambda: g * (1, 0, 1),
        lambda: g < g, lambda: g <= (1, -6, 2), lambda: (1, -6, 2) < g, lambda: g >= 0,
        lambda: GScalar(0.5, 0), lambda: GScalar(1, "1/2"), lambda: GScalar(True, False),
        lambda: GScalar.of(True),
    ]
    for op in bad:
        with pytest.raises(TypeError):
            op()
    for other in [tuple(g), (F(1, 2), F(-3)), 1, None]:
        assert g != other and other != g and not (g == other) and not (other == g)
    for name in ("re", "im", "value"):
        with pytest.raises(AttributeError):
            setattr(g, name, F(1))
    assert copy.deepcopy(g) == g and repr(g) == "GScalar(re=Fraction(1, 2), im=Fraction(-3, 1))"


@PROPERTY
@given(coef_fns, coef_fns, coef_fns)
def test_coef_ring_laws(a, b, c):
    assert a.mul(b.add(c)).terms == a.mul(b).add(a.mul(c)).terms
    assert a.mul(b).terms == b.mul(a).terms
    assert a.sub(a).is_zero()


@st.composite
def dense_series_pairs(draw):
    """Two DenseSeries of one order, b's coefficient the negation of a's
    at some powers, so that their sum cancels there."""
    order = draw(st.integers(0, 4))
    a, b = ([draw(coef_fns) for _ in range(order + 1)] for _ in range(2))
    negate = draw(st.lists(st.booleans(), min_size=order + 1, max_size=order + 1))
    b = [f.neg() if flip else g for f, g, flip in zip(a, b, negate)]
    return DenseSeries(order, a, draw(st.booleans())), DenseSeries(order, b, draw(st.booleans()))


def assert_agrees(s: NuSeries, d: DenseSeries) -> None:
    """s is the dense series d, flag and JSON included, and stores only
    its nonzero powers, in increasing order up to its own."""
    assert (s.nv, s.order, s.exact, s.is_zero()) == (NV, d.order, d.exact, d.is_zero())
    assert [f.terms for f in s.coeffs] == [f.terms for f in d.coeffs]
    assert list(s.terms) == sorted(s.terms) and all(0 <= t <= s.order for t in s.terms)
    assert all(f.terms and f.nv == NV for f in s.terms.values())
    assert series_to_json(s) == d.to_json() and series_from_json(d.to_json()) == s


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dense_series_pairs(), coef_fns, st.one_of(rationals, small), st.integers(0, 6))
def test_sparse_series_agree_with_the_dense_oracle(pair, f, c, order):
    """add, sub, scale, resize, is_zero, from_coef and the JSON codec of
    the sparse NuSeries give what the padded lists gave."""
    a, b = pair
    A, B = nu_series(a.coeffs, a.exact), nu_series(b.coeffs, b.exact)
    for s, d in ((A, a), (B, b), (A.sub(B), a.sub(b)), (A.scale(c), a.scale(c))):
        assert_agrees(s, d)
    for k in (-1, 0, 1, 3):
        assert_agrees(A.add(B, k), a.add(b, k))
    assert_agrees(A.resize(order), a.resize(order))
    assert_agrees(NuSeries.from_coef(f, order), DenseSeries.from_coef(f, order))


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
    lhs = c_operator(f, g.mul(h), P, 1)
    rhs = c_operator(f, g, P, 1).mul(h).add(g.mul(c_operator(f, h, P, 1)))
    assert lhs.terms == rhs.terms


@PROPERTY
@given(coef_fns)
def test_exponent_caps_bound_the_derivatives(f):
    """cap[c] + 1 derivatives along a v or z coordinate c give zero and,
    when cap[c] > 0, cap[c] derivatives do not; the a cap is 0 exactly
    when every term has p = 0, and otherwise bounds no walk."""
    caps = f.caps
    for c in range(1, NV + 2):
        unit = tuple(int(i == c) for i in range(NV + 2))
        d = f
        for _ in range(caps[c]):
            d = d.diff(unit)
        assert d.terms or not caps[c]
        assert not d.diff(unit).terms
    assert (caps[0] == 0) == all(p == 0 for p, _, _, _ in f.decoded())
    if caps[0]:
        assert caps[0] >= 2 * total_degree(f) + 64 and f.diff((64, 0, 0, 0)).terms


FIELD_MAX = 2 ** (FIELD_BITS - 1) - 1  # the largest exponent a key field holds
CODEC = settings(derandomize=True, max_examples=100, deadline=None)


def exponent_keys(nv: int, top: int = FIELD_MAX):
    """Keys (p, k, alpha power, z power) on nv v coordinates, p of either
    sign and every other exponent up to top."""
    e = st.integers(0, top)
    return st.tuples(st.integers(-300, 300), st.tuples(*[e] * nv), e, e)


def chart_fns(nv: int, top: int = 3):
    coefs = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    items = st.lists(st.tuples(exponent_keys(nv, top), coefs), max_size=4)
    return items.map(lambda items: CoefFn.of(nv, items))


@CODEC
@given(st.integers(0, 6).flatmap(lambda nv: st.tuples(st.just(nv), st.lists(exponent_keys(nv)))))
def test_packed_keys_decode_to_their_tuples_in_tuple_order(case):
    nv, keys = case
    layout = key_layout(nv)
    packed = [layout.pack(*key) for key in keys]
    assert [layout.unpack(key) for key in packed] == keys
    assert [layout.unpack(key) for key in sorted(packed)] == sorted(keys)


@CODEC
@given(
    st.integers(0, 6).flatmap(
        lambda nv: st.tuples(
            chart_fns(nv), chart_fns(nv), st.tuples(*[st.integers(0, 3)] * (nv + 2))
        )
    )
)
def test_packed_arithmetic_matches_the_tuple_reference(case):
    """Products, derivatives, caps and the walk's single-coordinate steps
    on packed keys give what the tuple-keyed reference gives, on nv = 0
    .. 6 and for p of either sign; a step's memo is keyed by the packed
    multi-index."""
    f, g, index = case
    nv, ft = f.nv, f.decoded()
    assert f.mul(g).decoded() == tuple_mul(ft, g.decoded())
    assert f.diff(index).decoded() == tuple_diff(ft, index)
    assert f.caps == tuple_caps(ft, nv)
    units = key_layout(nv).units
    for c in range(nv + 2):
        unit = tuple(int(i == c) for i in range(nv + 2))
        once = f.step(units[c], f, c)
        assert once.decoded() == f.diff_coord(c).decoded() == tuple_diff(ft, unit)
        twice = tuple_diff(ft, tuple(2 * n for n in unit))
        assert f.step(2 * units[c], once, c).decoded() == twice
        assert f.step(2 * units[c], None, c) is f.step(2 * units[c], once, c)


def passes_a_field(ft: dict, gt: dict) -> bool:
    """Whether some pair of terms of two tuple-keyed chart functions adds
    two exponents past FIELD_MAX in one field."""
    return any(
        a + b > FIELD_MAX
        for _, k1, s1, q1 in ft
        for _, k2, s2, q2 in gt
        for a, b in zip((*k1, s1, q1), (*k2, s2, q2))
    )


@CODEC
@given(st.integers(0, 6).flatmap(lambda nv: st.tuples(*[chart_fns(nv, FIELD_MAX)] * 2)))
def test_a_product_raises_when_an_exponent_passes_its_key_field(case):
    """A product raises OverflowError exactly when some pair of terms adds
    two exponents past FIELD_MAX in one field, and is never wrapped."""
    f, g = case
    ft, gt = f.decoded(), g.decoded()
    if passes_a_field(ft, gt):
        with pytest.raises(OverflowError, match="does not fit a key field"):
            f.mul(g)
    else:
        assert f.mul(g).decoded() == tuple_mul(ft, gt)


def fold_fns(nv: int):
    """Chart functions whose terms are weighted (p != 0, either sign) or
    not, with exponents near 0 and at FIELD_MAX, so that some
    derivatives are empty and some keep a field at its largest value."""
    e = st.one_of(st.integers(0, 2), st.just(FIELD_MAX), st.integers(0, FIELD_MAX))
    p = st.one_of(st.just(0), st.integers(-300, 300))
    key = st.tuples(p, st.tuples(*[e] * nv), e, e)
    coef = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(st.tuples(key, coef), max_size=4).map(lambda items: CoefFn.of(nv, items))


@CODEC
@given(st.integers(0, 6).flatmap(fold_fns))
@example(CoefFn.zero(2))
@example(CoefFn.of(2, [((0, (FIELD_MAX, 1), FIELD_MAX, 0), 1), ((0, (0, 0), 0, 2), F(-1, 2))]))
@example(CoefFn.of(1, [((-5, (0,), 1, FIELD_MAX), 3), ((0, (2,), 0, 0), 1)]))
def test_a_derivative_folds_its_caps_as_it_is_built(f):
    """diff_coord takes the largest fields (_top) of each derivative in
    the loop that builds it: they and the caps read off them are those of
    a fresh function of the same terms, and the caps are the tuple
    reference's, for every coordinate."""
    nv = f.nv
    for c in range(nv + 2):
        d = f.diff_coord(c)
        assert "_top" in vars(d)
        fresh = CoefFn(nv, dict(d.terms))
        assert d._top == fresh._top
        assert d.caps == fresh.caps == tuple_caps(d.decoded(), nv)


scales = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-3, 3), st.integers(1, 4)))


@CODEC
@given(
    st.integers(0, 4).flatmap(lambda nv: st.tuples(*[st.one_of(chart_fns(nv), fold_fns(nv))] * 3)),
    scales,
    st.data(),
)
def test_a_product_sums_in_place(fns, c, data):
    """mul_into sums c f g into a term dict as collect sums the pairwise
    products onto it, which the tuple reference gives too, and drops
    every key that cancels; a product past a key field raises
    OverflowError before the dict is touched."""
    f, g, h = fns
    pairs = [(k1 + k2, c1 * c * c2) for k1, c1 in f.terms.items() for k2, c2 in g.terms.items()]
    over = passes_a_field(f.decoded(), g.decoded())
    want = {} if over else collect(pairs)
    cancel = {k for k in sorted(want) if data.draw(st.booleans())}
    start = dict(h.terms) | {k: -want[k] for k in cancel}
    out = dict(start)
    if over:
        with pytest.raises(OverflowError, match="does not fit a key field"):
            f.mul_into(out, g, c)
        assert out == start
        return
    assert f.mul_into(out, g, c) is out
    assert out == collect(pairs, start)
    assert all(out.values()) and not cancel & out.keys()
    product = ((key, c * v) for key, v in tuple_mul(f.decoded(), g.decoded()).items())
    assert CoefFn(f.nv, out).decoded() == collect(product, CoefFn(f.nv, start).decoded())


@PROPERTY
@given(xi_fns, xi_fns, xi_fns, st.one_of(st.just(1), gscalars.filter(bool)), st.data())
def test_an_xifn_product_sums_in_place(f, g, h, c, data):
    """The shared mul_into on tuple keys: c f g summed onto a term dict as
    collect sums the pairwise products, keys that cancel dropped; c is 1
    or a Gaussian rational, the ring of XiFn's coefficients."""
    pairs = [
        (XiFn._key_mul(k1, k2), c1 * c2 if c == 1 else c1 * c2 * c)
        for k1, c1 in f.terms.items()
        for k2, c2 in g.terms.items()
    ]
    want = collect(pairs)
    cancel = {k for k in sorted(want) if data.draw(st.booleans())}
    start = dict(h.terms) | {k: -want[k] for k in cancel}
    out = dict(start)
    assert f.mul_into(out, g, c) is out
    assert out == collect(pairs, start)
    assert all(out.values()) and not cancel & out.keys()


@CODEC
@given(st.integers(0, 6), st.data())
@example(1, None)
def test_an_exponent_past_its_key_field_raises(nv, data):
    """monomial refuses an exponent past FIELD_MAX in any field and an
    antiderivative one that would pass it: OverflowError, never a wrap
    into the next field."""
    field = 0 if data is None else data.draw(st.integers(0, nv + 1))  # v_1 .. v_nv, alpha, z
    e = FIELD_MAX if data is None else data.draw(st.integers(FIELD_MAX - 2, FIELD_MAX + 2))

    def monomial(e):
        exps = [0] * (nv + 2)
        exps[field] = e
        return CoefFn.monomial(nv, -1, exps[:nv], exps[nv], exps[nv + 1], F(1, 3))

    if e > FIELD_MAX:
        with pytest.raises(OverflowError, match="does not fit a key field"):
            monomial(e)
        return
    f = monomial(e)
    integrals = {nv + 1: f.antiderivative_z, **{i: partial(f.antiderivative_v, i) for i in range(nv)}}
    if field in integrals:
        if e == FIELD_MAX:
            with pytest.raises(OverflowError, match="does not fit a key field"):
                integrals[field]()
        else:
            assert integrals[field]().diff_coord(field if field > nv else field + 1) == f


@PROPERTY
@given(coef_fns, coef_fns, coef_fns)
def test_moyal_associativity(f, g, h):
    """(F * G) * H = F * (G * H) coefficient by coefficient on the
    calibrated N = 2 structure.  Each C_m lowers the polynomial degree by
    at least m, so at K = the sum of the degrees nothing is truncated."""
    P = calibrated_structure()
    K = total_degree(f) + total_degree(g) + total_degree(h)
    F_, G_, H_ = (NuSeries.from_coef(x, K) for x in (f, g, h))
    (FG,), (GH,) = moyal(F_, [G_], P, K), moyal(G_, [H_], P, K)
    (left,), (right,) = moyal(FG, [H_], P, K), moyal(F_, [GH], P, K)
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
        return star_commutator(x, [y], P, K)[0]

    total = br(F_, br(G_, H_)).add(br(G_, br(H_, F_))).add(br(H_, br(F_, G_)))
    assert total.is_zero()


dyadic_monomials = st.builds(
    CoefFn.monomial,
    st.just(NV),
    small,
    st.tuples(degree, degree),
    st.integers(0, 1),
    degree,
    st.builds(lambda n, e: F(n, 2**e), st.integers(-5, 5), st.integers(0, 4)),
)
dyadic_fns = st.lists(dyadic_monomials, min_size=1, max_size=3).map(sum_of)


@st.composite
def poisson_matrices(draw) -> PoissonStructure:
    """An antisymmetric rational matrix on (a, v_1, v_2, z), its entries'
    denominators drawn from 1 to 6, so delta is often not 2."""
    m = [[F(0)] * (NV + 2) for _ in range(NV + 2)]
    for i in range(NV + 2):
        for j in range(i + 1, NV + 2):
            m[i][j] = draw(st.builds(F, st.integers(-3, 3), st.integers(1, 6)))
            m[j][i] = -m[i][j]
    return PoissonStructure(NV, m)


def in_z(s: NuSeries, D: int) -> NuSeries:
    """D s with int coefficients; D clears every denominator of s."""
    scaled = ({k: c.numerator * (D // c.denominator) for k, c in f.terms.items()} for f in s.coeffs)
    return nu_series([CoefFn(NV, terms) for terms in scaled], s.exact)


THIRDS = [[F(0), F(1, 3), F(0), F(-2, 3)], [F(-1, 3), F(0), F(1), F(0)],
          [F(0), F(-1), F(0), F(1, 5)], [F(2, 3), F(0), F(-1, 5), F(0)]]


@PROPERTY
@given(st.lists(dyadic_fns, min_size=1, max_size=3), dyadic_fns, poisson_matrices(), st.integers(0, 4))
@example(
    [CoefFn.monomial(NV, 1, (1, 2), 0, 2, F(3, 4))],
    CoefFn.monomial(NV, -1, (2, 0), 1, 1, F(-1, 8)),
    PoissonStructure(NV, THIRDS),
    2,
)
def test_integer_scaled_star_commutator_divides_back(fs, g, P, K):
    """With D the common denominator of the operands and the int weight
    L = (K + 1)! delta^(K + 1), half_commutator of the int copies lands
    int coefficients only, and L D^2 times the Fraction half commutator,
    exact flag included."""
    A, B = nu_series(fs).resize(K), NuSeries.from_coef(g, K)
    D = lcm(*(c.denominator for S in (A, B) for f in S.coeffs for c in f.terms.values()))
    L = factorial(K + 1) * P.delta ** (K + 1)
    want, = half_commutator(A, [B], P, K)
    got, = half_commutator(in_z(A, D), [in_z(B, D)], P, K, weight=L)
    assert all(type(c) is int for f in got.coeffs for c in f.terms.values())
    assert got.exact == want.exact
    assert [f.scale(F(1, L * D * D)).terms for f in got.coeffs] == [f.terms for f in want.coeffs]


entries = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def frame_cases(draw):
    """A basis of up to 4 rows in up to 4 columns, a vector of the same
    width and 4 candidate coordinates."""
    n = draw(st.integers(1, 4))
    vec = st.lists(entries, min_size=n, max_size=n)
    coords = st.lists(entries, min_size=4, max_size=4)
    return draw(st.lists(vec, max_size=4)), draw(vec), draw(coords)


@lru_cache(maxsize=None)
def killing_oracle(N: int) -> tuple:
    """su(1, N) and its Killing form tr(ad e_i ad e_j), contracted from the
    structure table, as dense rows."""
    model = build_su1n(N)
    return model, model.algebra.killing_form()


@PROPERTY
@given(st.data())
def test_beta_form_is_the_killing_form_of_the_table_on_sparse_vectors(data):
    """beta_form, read off the matrices of x and y, is x^T K y with K the
    Killing form of the structure table, and symmetric in x and y."""
    model, K = killing_oracle(data.draw(st.integers(1, 4)))
    vectors = st.dictionaries(
        st.integers(0, model.algebra.dim - 1), rationals.filter(bool), max_size=4
    )
    x, y = data.draw(vectors), data.draw(vectors)
    want = sum((a * K[i][j] * b for i, a in x.items() for j, b in y.items()), F(0))
    assert model.beta_form(x, y) == want == model.beta_form(y, x)


@PROPERTY
@given(st.data())
def test_model_bracket_is_the_table_bracket_on_sparse_vectors(data):
    """Su1nModel.bracket, read off the matrices of x and y, is the bracket
    of the stored structure table, and antisymmetric."""
    model = build_su1n(data.draw(st.integers(1, 4)))
    vectors = st.dictionaries(
        st.integers(0, model.algebra.dim - 1), rationals.filter(bool), max_size=4
    )
    x, y = data.draw(vectors), data.draw(vectors)
    got = model.bracket(x, y)
    assert got == model.algebra.bracket(x, y)
    assert model.bracket(y, x) == {k: -v for k, v in got.items()}


@st.composite
def gaussian_integer_matrices(draw) -> tuple:
    """(n, m): a sparse n x n Gaussian-integer matrix {(row, col): (re, im)},
    n from 2 to 4, its entries drawn from [-2, 2]^2.  Half the draws are
    folded into su(1, n - 1), X - J X^* J with the trace cleared on the
    last diagonal entry, and then may have one entry nudged, so that both
    answers and near misses are drawn."""
    n = draw(st.integers(2, 4))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = st.tuples(small, small)
    m = draw(st.dictionaries(cells, entries, max_size=2 * n))
    if draw(st.booleans()):
        sign = lambda i: -1 if i == 0 else 1
        keys = set(m) | {(j, i) for i, j in m}
        zero = (0, 0)
        m = {
            (i, j): (
                m.get((i, j), zero)[0] - sign(i) * sign(j) * m.get((j, i), zero)[0],
                m.get((i, j), zero)[1] + sign(i) * sign(j) * m.get((j, i), zero)[1],
            )
            for i, j in keys
        }
        trace = sum(m.get((i, i), zero)[1] for i in range(n))
        m[n - 1, n - 1] = (0, m.get((n - 1, n - 1), zero)[1] - trace)
        for cell, entry in draw(st.dictionaries(cells, entries, max_size=1)).items():
            m[cell] = tuple(a + b for a, b in zip(m.get(cell, zero), entry))
    return n, m


@PROPERTY
@given(gaussian_integer_matrices())
def test_check_su1n_is_the_gscalar_definition(case):
    """_check_su1n, in int pairs, says what the GScalar definition says:
    trace 0 and X^* J + J X = 0 for J = diag(-1, 1, ..., 1)."""
    n, m = case
    zero, sign = GScalar.of(), lambda i: -1 if i == 0 else 1
    x = {e: GScalar.of(re, im) for e, (re, im) in m.items()}
    star = {(j, i): GScalar(e.re, -e.im) for (i, j), e in x.items()}
    trace = sum((x.get((i, i), zero) for i in range(n)), zero)
    form = [
        star.get((i, j), zero).scale(sign(j)) + x.get((i, j), zero).scale(sign(i))
        for i in range(n)
        for j in range(n)
    ]
    assert _check_su1n(m) == (not trace and not any(form))


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
def span_cases(draw):
    """Up to 4 sparse basis rows in up to 5 columns and a target: a
    combination of the rows (inside the span), a free vector that may
    reach two columns past the basis (often outside), or zero."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
    kind = draw(st.sampled_from(["inside", "free", "zero"]))
    if kind == "inside":
        coords = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        target = [sum((c * r[t] for c, r in zip(coords, rows)), F(0)) for t in range(n)]
    elif kind == "free":
        target = draw(st.lists(entries, min_size=n, max_size=n + 2))
    else:
        target = []
    return [sparse(r) for r in rows], sparse(target), n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(span_cases())
def test_solve_in_span_is_the_frame_read(case):
    """solve_in_span, forward elimination alone, gives the dense Frame
    coordinates of the target, or None where the Frame rebuilds no
    target; a dependent basis raises the Frame's ValueError."""
    rows, target, n = case
    if _rank([dense(r, n) for r in rows]) < len(rows):
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_in_span(rows, target)
        return
    want = Frame(rows).coords(target)
    got = solve_in_span(rows, target)
    assert got == (None if want is None else dense(want, len(rows)))
    if not target:
        assert got == [F(0)] * len(rows)


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


nonzero_entries = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def elimination_cases(draw):
    """Up to 5 rows in up to 5 columns with many zero entries, coordinates
    for them, a row order, nonzero row scales and a row with no zero."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5))
    k = len(rows)
    coords = draw(st.lists(entries, min_size=k, max_size=k))
    order = draw(st.permutations(range(k)))
    scales = draw(st.lists(nonzero_entries, min_size=k, max_size=k))
    return rows, coords, order, scales, draw(st.lists(nonzero_entries, min_size=n, max_size=n))


# The first two rows share the leading column of the full row.
SHARED_LEAD = (
    [[F(0), F(1), F(2)], [F(0), F(3), F(0)], [F(0), F(0), F(5)]],
    [F(1), F(-1), F(2)],
    [2, 0, 1],
    [F(1, 2), F(-3), F(2)],
    [F(1), F(1), F(1)],
)


@PROPERTY
@given(elimination_cases())
@example(SHARED_LEAD)
def test_elimination_does_not_depend_on_the_order_of_its_rows(case):
    """The elimination takes its pivots in input order, but the reduced
    form is unique: rref, rank_sparse, nullspace and Frame coordinates
    come out the same, and equal to the dense oracle, for the rows
    permuted, each scaled, with zero and repeated rows between them, and
    with a dense row put before the sparse rows that share its leading
    column."""
    rows, coords, order, scales, full = case
    n = len(full)
    lead = min((next(j for j, x in enumerate(r) if x) for r in rows if any(r)), default=0)
    full = [F(0)] * lead + full[lead:]
    zero = [F(0)] * n
    variants = [
        (rows, [
            rows,
            [rows[i] for i in order],
            [[s * x for x in r] for r, s in zip(rows, scales)],
            [x for r in rows for x in (zero, r, r)],
        ]),
        (rows + [full], [[full] + rows, rows + [full]]),
    ]
    for base, group in variants:
        red, pivots = rref_oracle(base)
        kernel = [sparse(v) for v in nullspace_oracle(base, n)]
        for m in group:
            m = [sparse(r) for r in m]
            assert rref(m) == ([sparse(r) for r in red], pivots)
            assert rank_sparse(m) == len(pivots) and nullspace(m, n) == kernel
    if not rows or _rank(rows) < len(rows):
        return
    v = sparse([sum((c * r[t] for c, r in zip(coords, rows)), F(0)) for t in range(n)])
    assert Frame(map(sparse, rows)).coords(v) == sparse(coords)
    assert Frame(sparse(rows[i]) for i in order).coords(v) == sparse([coords[i] for i in order])
    scaled = ([s * x for x in r] for r, s in zip(rows, scales))
    assert Frame(map(sparse, scaled)).coords(v) == sparse([c / s for c, s in zip(coords, scales)])
    if _rank(rows + [full]) > len(rows):
        assert Frame(map(sparse, [full] + rows)).coords(v) == sparse([F(0)] + coords)
    with pytest.raises(ValueError):
        Frame(map(sparse, rows + rows[:1]))


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


# Importers: a valid export with one change either loads a well-formed
# object, whose export then loads back to the same export, or raises
# ValueError; any other exception fails.

# Each importer given a dict without a key it needs, and that key
MISSING_KEY = [
    (coef_from_json, {"nv": 1}, "terms"),
    (series_from_json, {"order": 0, "coeffs": []}, "exact"),
    (xifn_from_json, {}, "terms"),
    (LieAlgebra.from_json, {"dim": 1}, "labels"),
    (psd_spec_from_json, {"r": 1}, "n"),
    (cochain_from_json, {"degree": 1}, "dim"),
]


@pytest.mark.parametrize(
    "load, data, key", MISSING_KEY, ids=["coef", "series", "xifn", "algebra", "spec", "cochain"]
)
def test_importer_names_a_missing_key(load, data, key):
    with pytest.raises(ValueError, match=f"needs the key '{key}'"):
        load(data)

ODD_LEAVES = [-1, 0, 1, 2, 3, True, False, 0.5, None, "", "x", "1/2", "1/0"]
TWIST = {(1, 2): {"H": [[F(1), F(0)], [F(0), F(-1)]]}}


def _spots(node, path=()):
    """The path of every entry (list, dict or scalar leaf) below the root
    of a JSON value whose root is a dict."""
    if path:
        yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _spots(value, path + (key,))


def _parent(data, path: tuple):
    """The container that holds the entry at path."""
    for key in path[:-1]:
        data = data[key]
    return data


def _changed(valid: dict, path: tuple, value) -> dict:
    """A copy of valid with the entry at path set to value."""
    data = copy.deepcopy(valid)
    _parent(data, path)[path[-1]] = value
    return data


def _without(valid: dict, path: tuple) -> dict:
    """A copy of valid with the dict key at the end of path dropped."""
    data = copy.deepcopy(valid)
    del _parent(data, path)[path[-1]]
    return data


@st.composite
def mutations(draw, valid: dict):
    """A copy of valid with one change: an entry below the root (a scalar
    leaf, or a list or dict in place of which a scalar then stands)
    replaced by one of ODD_LEAVES, one key of a dict dropped, or one
    entry of a list dropped or repeated."""
    data = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(_spots(data))))
    parent = _parent(data, path)
    node = parent[path[-1]]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    elif not (isinstance(node, list) and node) or draw(st.booleans()):
        parent[path[-1]] = draw(st.sampled_from(ODD_LEAVES))
    else:
        i = draw(st.integers(0, len(node) - 1))
        if draw(st.booleans()):
            del node[i]
        else:
            node.insert(i, copy.deepcopy(node[i]))
    return data


def _loads_or_refuses(load, export, data):
    """The loaded object, after checking that its export loads back to the
    same export, or None when load raises ValueError."""
    try:
        obj = load(data)
    except ValueError:
        return None
    assert export(load(export(obj))) == export(obj)
    return obj


def _is_int(x) -> bool:
    return type(x) is int


def _psd_spec(data):
    spec = psd_spec_from_json(data)
    build_psd(spec)
    return spec


IMPORT_CHECKS = settings(derandomize=True, max_examples=150, deadline=None)
VALID_COEF = coef_to_json(
    CoefFn.monomial(2, 1, (1, 0), 0, 2, F(3, 4)).add(CoefFn.const(2, F(-1)))
)
VALID_SERIES = series_to_json(
    nu_series([coef_from_json(VALID_COEF), CoefFn.zero(2), CoefFn.const(2, F(2))], False)
)
VALID_ALGEBRA = build_psd(PsdSpec(2, [2, 1], TWIST)).algebra.to_json()
VALID_SPEC = psd_spec_to_json(PsdSpec(2, [2, 1], TWIST))
VALID_XIFN = xifn_to_json(
    XiFn({(1, 0, 2, 1, 0): GScalar.of(F(3, 4), -1), (0, 1, 0, 0, 2): GScalar.of(2)})
)
VALID_COCHAINS = [
    cochain_to_json(c)
    for c in (
        Cochain(0, 3, F(-2, 3)),
        Cochain(1, 3, [F(1), F(0), F(-1, 2)]),
        Cochain(2, 2, [[F(0), F(5)], [F(-5), F(0)]]),
        Cochain(3, 4, {(0, 1, 2): F(1, 3), (1, 2, 3): F(-2)}),
    )
]


def _coef_is_well_formed(f) -> bool:
    return _is_int(f.nv) and all(
        len(k) == f.nv and all(map(_is_int, (p, *k, s, q))) for p, k, s, q in f.decoded()
    )


@IMPORT_CHECKS
@given(mutations(VALID_COEF))
@example(_changed(VALID_COEF, ("terms", 0, 4), "1/0"))
@example(_changed(VALID_COEF, ("terms", 0, 1), [0, 0, 0]))
@example(_changed(VALID_COEF, ("terms", 0, 0), True))
@example(_changed(VALID_COEF, ("terms",), 5))
@example(_changed(VALID_COEF, ("terms", 0, 1), 0))
@example(_without(VALID_COEF, ("nv",)))
@example(_changed(VALID_COEF, ("terms", 0, 3), 127))
@example(_changed(VALID_COEF, ("terms", 0, 3), 128))
@example(_changed(VALID_COEF, ("terms", 0, 1, 0), 2**64))
def test_coef_from_json_loads_or_refuses(data):
    f = _loads_or_refuses(coef_from_json, coef_to_json, data)
    assert f is None or _coef_is_well_formed(f)


@IMPORT_CHECKS
@given(mutations(VALID_SERIES))
@example(_changed(VALID_SERIES, ("coeffs", 2, "terms", 0, 4), "1/0"))
@example(_changed(VALID_SERIES, ("order",), -1))
@example(_changed(VALID_SERIES, ("exact",), -1))
@example(_changed(VALID_SERIES, ("coeffs", 1, "nv"), 3))
@example(_changed(VALID_SERIES, ("coeffs", 1), 2))
@example(_without(VALID_SERIES, ("coeffs", 0, "terms")))
@example(_changed(VALID_SERIES, ("coeffs", 0, "terms", 0, 3), 128))
def test_series_from_json_loads_or_refuses(data):
    s = _loads_or_refuses(series_from_json, series_to_json, data)
    if s is not None:
        assert _is_int(s.order) and len(s.coeffs) == s.order + 1 and type(s.exact) is bool
        assert all(_coef_is_well_formed(c) and c.nv == s.nv for c in s.coeffs)
        assert all(f.terms for f in s.terms.values())


@IMPORT_CHECKS
@given(mutations(VALID_ALGEBRA))
@example(_changed(VALID_ALGEBRA, ("brackets", 0, "coeffs", "1"), "1/0"))
@example(_changed(VALID_ALGEBRA, ("brackets", 0, "i"), None))
@example(_changed(VALID_ALGEBRA, ("brackets", 1), VALID_ALGEBRA["brackets"][0]))
@example(_changed(VALID_ALGEBRA, ("brackets", 0, "coeffs"), 3))
@example(_changed(VALID_ALGEBRA, ("labels",), "x"))
@example(_without(VALID_ALGEBRA, ("brackets", 0, "j")))
def test_lie_algebra_from_json_loads_or_refuses(data):
    g = _loads_or_refuses(LieAlgebra.from_json, LieAlgebra.to_json, data)
    if g is not None:
        # entries repeated for one pair are summed
        entries = [
            ((b["i"], b["j"], int(k)), parse_frac(v))
            for b in data["brackets"]
            for k, v in b["coeffs"].items()
        ]
        want = {key: sum(v for other, v in entries if other == key) for key, _ in entries}
        got = {(i, j, k): v for (i, j), c in g.structure.items() for k, v in c.items()}
        assert _is_int(g.dim) and got == {key: v for key, v in want.items() if v}


def _one_bracket(key: str) -> dict:
    labels = [f"e{i}" for i in range(11)]
    return {"dim": 11, "labels": labels, "brackets": [{"i": 0, "j": 10, "coeffs": {key: "1"}}]}


def _one_triple(key: str) -> dict:
    return {"degree": 3, "dim": 11, "data": {key: "1"}}


# Index keys that int() reads but to_json never writes, each with the
# one spelling of the same index that loads.
RESPELLED_KEYS = [
    (LieAlgebra.from_json, _one_bracket, "10", key) for key in ("1_0", " 10", "10 ", "010", "+10")
] + [
    (cochain_from_json, _one_triple, "0,1,10", key)
    for key in ("0, 1,1_0", "0,1, 10", "0,01,10", "0,1,+10", "0,1,10 ")
]


@pytest.mark.parametrize("load, payload, canonical, key", RESPELLED_KEYS)
def test_importers_refuse_an_index_key_that_to_json_never_writes(load, payload, canonical, key):
    load(payload(canonical))
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        load(payload(key))


@IMPORT_CHECKS
@given(mutations(VALID_XIFN))
@example(_changed(VALID_XIFN, ("terms",), 5))
@example(_changed(VALID_XIFN, ("terms", 0), "1/2"))
@example(_without(VALID_XIFN, ("terms",)))
def test_xifn_from_json_loads_or_refuses(data):
    f = _loads_or_refuses(xifn_from_json, xifn_to_json, data)
    if f is not None:
        assert all(len(key) == 5 and all(map(_is_int, key)) for key in f.terms)
        assert all(_is_exact(c) and c for c in f.terms.values())


@IMPORT_CHECKS
@given(st.sampled_from(VALID_COCHAINS).flatmap(mutations))
@example({"degree": 7, "dim": 3, "data": {}})
@example({"degree": True, "dim": 3, "data": ["1", "2", "3"]})
@example({"degree": "x", "dim": 2, "data": []})
@example({"degree": 1, "dim": "3", "data": ["1", "2", "3"]})
@example(_changed(VALID_COCHAINS[2], ("data", 0), "0"))
@example(_without(VALID_COCHAINS[1], ("data",)))
def test_cochain_from_json_loads_or_refuses(data):
    c = _loads_or_refuses(cochain_from_json, cochain_to_json, data)
    if c is not None:
        assert _is_int(c.degree) and 0 <= c.degree <= 3 and _is_int(c.dim) and c.dim >= 0


@IMPORT_CHECKS
@given(mutations(VALID_SPEC))
@example(_changed(VALID_SPEC, ("r",), None))
@example(_changed(VALID_SPEC, ("cross_actions", 0, "inner"), None))
@example(_changed(VALID_SPEC, ("n", 1), True))
@example(_changed(VALID_SPEC, ("cross_actions", 0, "maps", "H", 0), "1"))
@example(_without(VALID_SPEC, ("r",)))
@example(_without(VALID_SPEC, ("cross_actions", 0, "inner")))
def test_psd_spec_from_json_and_build_psd_load_or_refuse(data):
    _loads_or_refuses(_psd_spec, psd_spec_to_json, data)
