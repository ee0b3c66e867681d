"""Exponential-polynomial functions and their formal star product.

The function ring is spanned by monomials c * e^{p a} * v^k * alpha^s * z^q
with rational c, integer exponential weight p, a multi-index k over the
symplectic coordinates v_1 .. v_nv, a formal scalar parameter alpha and
a polynomial variable z.  Coordinates are ordered (a, v_1 .. v_nv, z).

For a constant antisymmetric matrix Lambda on these coordinates the
transvection operators

    C_m(f, g) = sum over u_1..u_m, w_1..w_m of
                Lambda^{u_1 w_1} .. Lambda^{u_m w_m} d_u f d_w g

terminate on this ring because every nonzero Lambda entry differentiates
a polynomial variable on at least one side.  One walk, transvection_terms,
enumerates the multisets of directed pairs behind C_m for every m at
once, deriving each derivative from its parent by one step.  It is shared
by c_operator here, which walks an operand pair jointly and drops a
branch as soon as the derivative of either argument vanishes, and by the
retract operator, which walks one side only.  Every longer multiset
differentiates a vanishing derivative further, so the sizes that have a
multiset run from 0 to a last one, past which every C_m vanishes.

A Walked memo holds the derivatives of one CoefFn per multi-index, for
either side of a transvection, and a StarOperand holds one Walked per
power of nu.  The star product series walk each pair of coefficients
once, as a PairWalk: c_operator reads C_m off its size-m terms, and the
series stop at its last size.  A pair's walk lives only while that pair
is summed; a caller that takes many star products of the same series
(verify_qmm over every pair of the moment table) differentiates each
coefficient at most once per multi-index.  Plain CoefFn and NuSeries
arguments get a fresh memo per call; a memo lives as long as the
operand holding it.  c_operator scales each term once, by m! when it
returns C_m itself and by the series weight when a star product series
asks for (weight / m!) C_m, whose 1/m! the walk weights already carry.

CoefFn takes its ring arithmetic (sums with cancellation, scaling,
products by adding exponents) from the SparseSum core of scalars and adds
only the rules of its own axes: derivatives and antiderivatives.  Star
products are truncated series in the deformation parameter, a NuSeries
holding one CoefFn per power of nu.  Every series is summed in place in
a NuSum, and NuSum.land is the one point in the package where a term
past the order is dropped, clearing the exact flag if it is nonzero: the
star products and the series product all land there through
_transvection_series, as do series sums, retract_pde and verify_qmm.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, perm
from operator import add

from .lie_core import CheckReport, LieAlgebra
from .linalg import mat_inverse
from .scalars import SparseSum, accumulate, collect, frac_str, parse_frac


@dataclass(frozen=True)
class CoefFn(SparseSum):
    """Finite sum of monomials, keyed (p, k, alpha power, z power)."""

    nv: int
    terms: dict = field(default_factory=dict)

    def _new(self, terms: dict) -> CoefFn:
        return CoefFn(self.nv, terms)

    @staticmethod
    def _key_mul(k1, k2):
        (p1, v1, s1, q1), (p2, v2, s2, q2) = k1, k2
        return (p1 + p2, tuple(map(add, v1, v2)), s1 + s2, q1 + q2)

    @classmethod
    def zero(cls, nv: int) -> CoefFn:
        return cls(nv, {})

    @classmethod
    def const(cls, nv: int, c: Fraction) -> CoefFn:
        return cls.monomial(nv, 0, (0,) * nv, 0, 0, c)

    @classmethod
    def monomial(cls, nv, p, k, alpha, q, c) -> CoefFn:
        k = tuple(k)
        if len(k) != nv:
            raise ValueError("multi-index length must match nv")
        c = Fraction(c)
        if not c:
            return cls(nv, {})
        return cls(nv, {(int(p), k, int(alpha), int(q)): c})

    def diff(self, index) -> CoefFn:
        """Apply d_a^i_0 d_v1^i_1 .. d_z^i_last for a multi-index over
        (a, v_1 .. v_nv, z); only the v coordinates it differentiates are
        visited, since the walk's steps are mostly single coordinates."""
        if not any(index):
            return self
        ia, iz = index[0], index[-1]
        v_steps = [(i, n) for i, n in enumerate(index[1:-1]) if n]
        out = {}
        for (p, k, s, q), c in self.terms.items():
            factor = p**ia * perm(q, iz)
            for i, n in v_steps:
                factor *= perm(k[i], n)
            if factor:
                if v_steps:
                    k = list(k)
                    for i, n in v_steps:
                        k[i] -= n
                    k = tuple(k)
                out[(p, k, s, q - iz)] = c if factor == 1 else c * factor
        return CoefFn(self.nv, out)

    def diff_coord(self, coord: int) -> CoefFn:
        return self.diff(tuple(int(c == coord) for c in range(self.nv + 2)))

    def diff_a(self) -> CoefFn:
        return self.diff_coord(0)

    def diff_v(self, i: int) -> CoefFn:
        return self.diff_coord(i + 1)

    def diff_z(self) -> CoefFn:
        return self.diff_coord(self.nv + 1)

    def antiderivative_a(self) -> CoefFn:
        out = {}
        for (p, k, s, q), c in self.terms.items():
            if p == 0:
                raise ValueError("weight-zero term has no exponential antiderivative")
            out[(p, k, s, q)] = c / p
        return CoefFn(self.nv, out)

    def antiderivative_v(self, i: int) -> CoefFn:
        out = {}
        for (p, k, s, q), c in self.terms.items():
            k2 = k[:i] + (k[i] + 1,) + k[i + 1 :]
            out[(p, k2, s, q)] = c / (k[i] + 1)
        return CoefFn(self.nv, out)

    def antiderivative_z(self) -> CoefFn:
        return CoefFn(
            self.nv,
            {(p, k, s, q + 1): c / (q + 1) for (p, k, s, q), c in self.terms.items()},
        )

    def degree(self) -> int:
        """Largest total degree in the polynomial coordinates v and z."""
        return max((sum(k) + q for (_, k, _, q) in self.terms), default=0)

    def origin_part(self) -> CoefFn:
        """Value at a = 0, v = 0, z = 0, kept as a polynomial in alpha."""
        zero_k, terms = (0,) * self.nv, self.terms.items()
        items = (((0, zero_k, s, 0), c) for (_, k, s, q), c in terms if k == zero_k and not q)
        return self._new(collect(items))

    def substitute_alpha(self, value: Fraction) -> CoefFn:
        items = (((p, k, 0, q), c * value**s) for (p, k, s, q), c in self.terms.items())
        return self._new(collect(items))


class PoissonStructure:
    """Constant antisymmetric bivector on the chart coordinates.

    units[c] is the unit multi-index of coordinate c, one derivative
    step of the walk.  inverse is the inverse matrix, taken on first use
    and kept: a degenerate structure, such as the zero one of
    NuSeries.mul, is never inverted."""

    def __init__(self, nv: int, matrix: list):
        dim = nv + 2
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError("Poisson matrix must cover (a, v_1..v_nv, z)")
        for i in range(dim):
            for j in range(dim):
                if matrix[i][j] != -matrix[j][i]:
                    raise ValueError("Poisson matrix must be antisymmetric")
        self.nv = nv
        self.matrix = [[Fraction(x) for x in row] for row in matrix]
        self.directed_pairs = [
            (u, w, self.matrix[u][w])
            for u in range(dim)
            for w in range(dim)
            if self.matrix[u][w]
        ]
        self.units = [tuple(int(c == u) for c in range(dim)) for u in range(dim)]

    @cached_property
    def inverse(self) -> tuple:
        return tuple(map(tuple, mat_inverse(self.matrix)))


class Walked:
    """A CoefFn with its derivatives for P memoized per multi-index over
    (a, v_1 .. v_nv, z), on whichever side of a transvection the walk
    reads them.  A derivative is taken on first use, by one step from
    its parent, so an operand walked against many partners is
    differentiated at most once per multi-index."""

    def __init__(self, f: CoefFn, P: PoissonStructure):
        self.f, self.P, self.degree = f, P, f.degree()
        self._diffs = {(0,) * (P.nv + 2): f}

    def step(self, index: tuple, parent: CoefFn, unit: tuple) -> CoefFn:
        """d^index f, given parent = d^(index - unit) f."""
        d = self._diffs.get(index)
        if d is None:
            d = self._diffs[index] = parent.diff(unit)
        return d


def _memo(x, cls, P: PoissonStructure):
    """x as a memo of class cls over P: x itself, or a fresh one."""
    if not isinstance(x, cls):
        return cls(x, P)
    if x.P is not P:
        raise ValueError("operand was walked for another Poisson structure")
    return x


def transvection_terms(f, g, P: PoissonStructure, limit: int) -> list:
    """Walk the multisets of directed pairs of P of every size up to
    limit at once, one pair index at a time.

    f and g are CoefFn or Walked memos over P; g is None for a one-sided
    walk.  Returns terms, where terms[m] lists (w, d^u f, d^w g, weight)
    in walk order for every multiset of m pairs whose derivatives are
    nonzero (d^w g is None one-sided).  u and w are the derivative
    multi-indices it puts on the first and second argument and weight =
    prod val^c / c! over its pairs, so that (1/m!) C_m(f, g) = sum
    weight * d^u f * d^w g.

    A branch is dropped once d^u f or d^w g vanishes: every longer
    multiset differentiates that derivative further.  So a recorded
    multiset contains a recorded one of each smaller size, trailing empty
    sizes are cut, and len(terms) - 1 is the largest size that has a
    multiset: C_m vanishes for every larger m.
    """
    f = _memo(f, Walked, P)
    g = None if g is None else _memo(g, Walked, P)
    dg = None if g is None else g.f
    zero, one = (0,) * (P.nv + 2), Fraction(1)
    terms = [[] for _ in range(limit + 1)]
    if f.f.terms and (g is None or dg.terms):
        terms[0].append((zero, f.f, dg, one))
        _extend((P.directed_pairs, P.units, f, g, terms), 0, 0, zero, zero, f.f, dg, one)
    while terms and not terms[-1]:
        terms.pop()
    return terms


def _extend(walk, start, size, u, w, df, dg, weight):
    """Record every multiset that extends one prefix of the given size
    by pairs of index start or later; u, w, df, dg and weight are the
    prefix's.  walk holds what the whole walk shares: the directed
    pairs, the unit multi-index of each coordinate, the two memos and
    the terms by size, whose length bounds the size."""
    pairs, units, f, g, terms = walk
    left = len(terms) - 1 - size
    for idx in range(start, len(pairs)):
        a, b, val = pairs[idx]
        ua, wb, d, e, wt = list(u), list(w), df, dg, weight
        for c in range(1, left + 1):
            ua[a] += 1
            wb[b] += 1
            uk, wk = tuple(ua), tuple(wb)
            d = f.step(uk, d, units[a])
            if not d.terms:
                break
            if g is not None:
                e = g.step(wk, e, units[b])
                if not e.terms:
                    break
            wt = wt * val / c
            terms[size + c].append((wk, d, e, wt))
            if c < left:
                _extend(walk, idx + 1, size + c, uk, wk, d, e, wt)


class PairWalk:
    """An operand pair (f, g) of Walked memos over P and its joint walk,
    transvection_terms up to limit: C_m(f, g) for every m is read off
    terms[m].  A series holds one only while it sums that pair."""

    def __init__(self, f: Walked, g: Walked, P: PoissonStructure, limit: int):
        self.f, self.g, self.P = f, g, P
        self.terms = transvection_terms(f, g, P, limit)


def c_operator(f, g, P: PoissonStructure, m: int, weight=None) -> CoefFn:
    """The m-th transvection C_m(f, g) for the constant structure P, or
    (weight / m!) C_m(f, g) when a weight is given, as the star product
    series take it.

    f and g are CoefFn or Walked memos over P, walked jointly up to size
    m; or f is the PairWalk of f with its partner g, whose size-m terms
    are read without walking again.  Each term is scaled once and its
    products are accumulated in place."""
    walk = f
    if not isinstance(walk, PairWalk):
        f, g = _memo(f, Walked, P), _memo(g, Walked, P)
        walk = PairWalk(f, g, P, min(m, f.degree + g.degree))
    elif walk.P is not P or walk.g is not g:
        raise ValueError("pair walk was taken for another partner or structure")
    scale = factorial(m) if weight is None else weight
    total: dict = {}
    for _, df, dg, wt in walk.terms[m] if m < len(walk.terms) else ():
        accumulate(total, df.mul_items(dg, wt * scale))
    return CoefFn(P.nv, total)


def poisson(f: CoefFn, g: CoefFn, P: PoissonStructure) -> CoefFn:
    return c_operator(f, g, P, 1)


@dataclass
class NuSeries:
    """Truncated power series in the deformation parameter.

    coeffs[i] multiplies nu^i; exact means no nonzero coefficient was
    dropped past the truncation order by the operations that built it.
    Series are summed term by term in a NuSum, whose land decides what is
    dropped.
    """

    order: int
    coeffs: list
    exact: bool = True

    @classmethod
    def from_coef(cls, f: CoefFn, order: int, exact: bool = True) -> NuSeries:
        return cls(order, [f] + [CoefFn.zero(f.nv)] * order, exact)

    @classmethod
    def zero(cls, nv: int, order: int, exact: bool = True) -> NuSeries:
        return cls(order, [CoefFn.zero(nv)] * (order + 1), exact)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def resize(self, order: int) -> NuSeries:
        return NuSum(self.coeffs[0].nv, order).add(self).series()

    def add(self, other: NuSeries, c=1) -> NuSeries:
        """self + c other, summed in one NuSum."""
        if self.order != other.order:
            raise ValueError("series orders differ")
        return NuSum(self.coeffs[0].nv, self.order).add(self).add(other, c).series()

    def sub(self, other: NuSeries) -> NuSeries:
        return self.add(other, -1)

    def scale(self, c: Fraction) -> NuSeries:
        return NuSeries(self.order, [f.scale(c) for f in self.coeffs], self.exact)

    def mul(self, other: NuSeries) -> NuSeries:
        """The product: C_0(f, g) = f g, so this is the star product of
        the zero Poisson structure, under which every C_m with m > 0
        vanishes."""
        if self.order != other.order:
            raise ValueError("series orders differ")
        dim = self.coeffs[0].nv + 2
        return moyal(self, other, PoissonStructure(dim - 2, [[0] * dim] * dim), self.order)


class NuSum:
    """A NuSeries summed in place: terms maps each power of nu up to the
    order to its term dict, made when a term first lands there.

    land is the one point where a term is dropped: past the order it is
    not stored, and a nonzero one clears exact.  wants says whether a term
    at a power can still change the sum, so that a caller can skip
    computing one that cannot.
    """

    def __init__(self, nv: int, order: int, exact: bool = True):
        self.nv, self.order, self.exact, self.terms = nv, order, exact, defaultdict(dict)

    def wants(self, t: int) -> bool:
        return t <= self.order or self.exact

    def land(self, t: int, items) -> None:
        if t <= self.order:
            accumulate(self.terms[t], items)
        elif self.exact and any(c for _, c in items):
            self.exact = False

    def add(self, s: NuSeries, c=1) -> NuSum:
        """Land c s coefficient by coefficient and return self; s's exact flag carries over."""
        self.exact = self.exact and s.exact
        for t, f in enumerate(s.coeffs):
            if f.terms:
                self.land(t, (f if c == 1 else f.scale(c)).terms.items())
        return self

    def series(self) -> NuSeries:
        """The sum so far; its zero coefficients share one CoefFn."""
        zero = CoefFn.zero(self.nv)
        coeffs = [zero] * (self.order + 1)
        for t, d in self.terms.items():
            coeffs[t] = CoefFn(self.nv, d) if d else zero
        return NuSeries(self.order, coeffs, self.exact)


class StarOperand:
    """A NuSeries read by the transvection series: one Walked memo per
    power of nu, for the Poisson structure P.  Passing the same operand to
    several products differentiates each coefficient at most once per
    multi-index; the memo lives as long as the operand."""

    def __init__(self, series: NuSeries, P: PoissonStructure):
        self.series, self.P = series, P
        self.walked = [Walked(c, P) for c in series.coeffs]


def _transvection_series(F, G, P, order, first, step, weight, shift=0) -> NuSeries:
    """Sum of nu^(i+j+m-shift) (weight / m!) C_m(F_i, G_j) over the powers
    i of F and j of G and over m = first, first + step, .., landed in a
    NuSum of the given order.  F and G are NuSeries, or StarOperand memos
    over P.

    Each pair (F_i, G_j) of nonzero coefficients is walked once, for
    every m at once, and the m loop ends at the last size of that walk,
    past which C_m vanishes.  That size is at most their joint polynomial
    degree, because each Lambda entry differentiates a polynomial
    coordinate on one side.  The loop does not stop at a zero C_m, which
    can vanish by cancellation while a larger one does not.  Once the
    sum no longer wants a power of nu, the larger m of that pair are
    skipped without computing them, and a sum that is already inexact
    does not walk past the order.
    """
    A, B = _memo(F, StarOperand, P), _memo(G, StarOperand, P)
    out = NuSum(P.nv, order, A.series.exact and B.series.exact)
    gs = [(j, g) for j, g in enumerate(B.walked) if g.f.terms]
    for i, f in enumerate(A.walked):
        for j, g in gs if f.f.terms else ():
            t = i + j - shift
            limit = f.degree + g.degree if out.exact else min(f.degree + g.degree, order - t)
            if limit < first:
                continue
            walk = PairWalk(f, g, P, limit)
            for m in range(first, len(walk.terms), step):
                if not out.wants(t + m):
                    break
                out.land(t + m, c_operator(walk, g, P, m, weight).terms.items())
    return out.series()


def moyal(
    F: NuSeries | StarOperand, G: NuSeries | StarOperand, P: PoissonStructure, order: int
) -> NuSeries:
    """Truncated star product sum_m nu^m / m! C_m, extended bilinearly."""
    return _transvection_series(F, G, P, order, 0, 1, 1)


def star_commutator(
    F: NuSeries | StarOperand, G: NuSeries | StarOperand, P: PoissonStructure, order: int
) -> NuSeries:
    """F * G - G * F, using that even transvections are symmetric."""
    return _transvection_series(F, G, P, order, 1, 2, 2)


def half_commutator(
    F: NuSeries | StarOperand, G: NuSeries | StarOperand, P: PoissonStructure, order: int
) -> NuSeries:
    """(1 / (2 nu)) [F, G]: the commutator doubles the odd transvections
    and cancels the even ones, so this is the sum of nu^(m-1) (1 / m!) C_m
    over odd m."""
    return _transvection_series(F, G, P, order, 1, 2, 1, shift=1)


def check_poisson_covariance(
    algebra: LieAlgebra, moments: list, P: PoissonStructure
) -> CheckReport:
    """Check {m_i, m_j} = m_[e_i, e_j] for every basis pair."""
    failures = []
    checked = 0
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            checked += 1
            lhs = poisson(moments[i], moments[j], P)
            coeffs = algebra.structure.get((i, j), {}).items()
            rhs = collect(kv for t, s in coeffs for kv in moments[t].scale(s).terms.items())
            if lhs.terms != rhs:
                failures.append((i, j))
    return CheckReport(not failures, checked, failures)


def coef_to_json(f: CoefFn) -> dict:
    terms = [
        [p, list(k), s, q, frac_str(c)]
        for (p, k, s, q), c in sorted(f.terms.items())
    ]
    return {"nv": f.nv, "terms": terms}


def coef_from_json(payload: dict) -> CoefFn:
    """Sum the listed terms: int exponents, multi-indices of nv entries."""
    nv = payload["nv"]
    if type(nv) is not int or nv < 0:
        raise ValueError(f"nv must be an int >= 0, got {nv!r}")
    items = []
    for p, k, s, q, c in payload["terms"]:
        k = tuple(k)
        if len(k) != nv or any(type(e) is not int for e in (p, *k, s, q)):
            raise ValueError(f"a term needs int exponents and {nv} multi-index entries: {k!r}")
        items.append(((p, k, s, q), parse_frac(c)))
    return CoefFn(nv, collect(items))


def series_to_json(s: NuSeries) -> dict:
    return {
        "order": s.order,
        "exact": s.exact,
        "coeffs": [coef_to_json(c) for c in s.coeffs],
    }


def series_from_json(payload: dict) -> NuSeries:
    """A series of order + 1 coefficients with one nv and a bool exact."""
    order, exact = payload["order"], payload["exact"]
    coeffs = [coef_from_json(c) for c in payload["coeffs"]]
    if type(order) is not int or order < 0 or len(coeffs) != order + 1:
        raise ValueError(f"order {order!r} needs order + 1 coefficients, got {len(coeffs)}")
    if any(c.nv != coeffs[0].nv for c in coeffs):
        raise ValueError("series coefficients differ in nv")
    if type(exact) is not bool:
        raise ValueError(f"exact must be a bool, got {exact!r}")
    return NuSeries(order, coeffs, exact)
