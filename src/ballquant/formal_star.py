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

Most such branches are seen before any derivative is taken.  Each
CoefFn keeps its exponent caps (CoefFn.caps, taken once per function):
the largest exponent of each v and z coordinate and whether any term
has p != 0.  Derivatives only lower exponents and never change p, so
the walk takes a directed pair at most as often as both sides can still
be differentiated along it.

Each CoefFn keeps a memo of its own derivatives per multi-index, which
the joint walk fills one step from the parent (CoefFn.step).  A
derivative depends only on the function, so the memo serves either side
of a transvection under any Poisson structure on its coordinates, and
lives as long as the function.  The one-sided walk keeps none: under
the chart's structure it reaches each multi-index by one multiset only.
The star product series walk each pair of coefficients once, as a
PairWalk: c_operator reads C_m off its size-m terms, and the series stop
at its last size.  A pair's walk lives only while that pair is summed; a
caller that takes many star products of the same series (verify_qmm
over every pair of the moment table) differentiates each coefficient at
most once per multi-index, and one that wants no memo to outlive its
call passes fresh copies (resize).  c_operator scales each term once, by
m! when it returns C_m itself and by the series weight when a star
product series asks for (weight / m!) C_m, whose 1/m! the walk weights
already carry.

CoefFn takes its ring arithmetic (sums with cancellation, scaling,
products by adding exponents) from the SparseSum core of scalars and adds
only the rules of its own axes: derivatives and antiderivatives.  Star
products are truncated series in the deformation parameter, a NuSeries
holding one CoefFn per power of nu.  Every series is summed in place in
a NuSum, and NuSum.land is the one point in the package where a term
past the order is dropped, clearing the exact flag if it is nonzero: the
star products and the series product all land there through
_transvection_series, as do series sums, retract_pde and verify_qmm.
NuSum.add scales each item as it lands, and half_commutator can land
its terms in a caller's NuSum instead of returning a series, so
verify_qmm sums each pair's residual in one NuSum.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, perm
from operator import add
from sys import maxsize

from .lie_core import CheckReport, LieAlgebra
from .linalg import mat_inverse
from .scalars import SparseSum, accumulate, collect, frac_str, keyed, parse_frac, shaped


@dataclass(frozen=True)
class CoefFn(SparseSum):
    """Finite sum of monomials, keyed (p, k, alpha power, z power)."""

    nv: int
    terms: dict = field(default_factory=dict)

    def _new(self, terms: dict) -> CoefFn:
        return CoefFn(self.nv, terms)

    def add(self, other: CoefFn) -> CoefFn:
        return super().add(self._same_nv(other))

    def mul(self, other: CoefFn) -> CoefFn:
        return super().mul(self._same_nv(other))

    def _same_nv(self, other: CoefFn) -> CoefFn:
        if other.nv != self.nv:
            raise ValueError(f"functions of {self.nv} and {other.nv} v coordinates do not combine")
        return other

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

    @cached_property
    def _derivatives(self) -> dict:
        return {}

    @cached_property
    def caps(self) -> tuple:
        """How many times each coordinate (a, v_1 .. v_nv, z) can
        differentiate this function before every term vanishes: the largest
        exponent of each v and of z, and for a, maxsize (no bound) when some
        term has p != 0, else 0.  Derivatives only lower exponents and never
        change p, so once the steps already taken are subtracted these caps
        hold for every derivative; taken on first use and kept."""
        caps = [0] * (self.nv + 2)
        for p, k, _, q in self.terms:
            for c, e in enumerate((maxsize if p else 0, *k, q)):
                if e > caps[c]:
                    caps[c] = e
        return tuple(caps)

    def step(self, index: tuple, parent: CoefFn, unit: tuple) -> CoefFn:
        """d^index self, given parent = d^(index - unit) self.  It is taken
        on first use, by one step from parent, and kept in this function's
        memo, so a function walked against many partners is differentiated
        at most once per multi-index; the memo lives as long as the function."""
        d = self._derivatives.get(index)
        if d is None:
            d = self._derivatives[index] = parent.diff(unit)
        return d

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


def transvection_terms(f: CoefFn, g: CoefFn | None, P: PoissonStructure, limit: int) -> list:
    """Walk the multisets of directed pairs of P of every size up to
    limit at once, one pair index at a time.

    f and g are functions on the coordinates of P; g is None for a
    one-sided walk, which keeps no memo, and an operand of another nv
    raises ValueError.  A joint walk reads the memos (CoefFn.step).
    Returns terms, where terms[m] lists (w, d^u f, d^w g, weight) in walk
    order for every multiset of m pairs whose derivatives are nonzero
    (d^w g is None one-sided).  u and w are the derivative multi-indices
    it puts on the first and second argument and weight = prod val^c / c!
    over its pairs, so that (1/m!) C_m(f, g) = sum weight * d^u f * d^w g.

    A branch is dropped once d^u f or d^w g vanishes: every longer
    multiset differentiates that derivative further.  So a recorded
    multiset contains a recorded one of each smaller size, trailing empty
    sizes are cut, and len(terms) - 1 is the largest size that has a
    multiset: C_m vanishes for every larger m.
    """
    if f.nv != P.nv or (g is not None and g.nv != P.nv):
        raise ValueError(f"an operand's nv differs from the Poisson structure's {P.nv}")
    zero, one = (0,) * (P.nv + 2), Fraction(1)
    terms = [[] for _ in range(limit + 1)]
    if f.terms and (g is None or g.terms):
        terms[0].append((zero, f, g, one))
        caps = (f.caps, None if g is None else g.caps)
        walk = (P.directed_pairs, P.units, caps, f, g, terms)
        _extend(walk, 0, 0, zero, zero, f, g, one)
    while terms and not terms[-1]:
        terms.pop()
    return terms


def _extend(walk, start, size, u, w, df, dg, weight):
    """Record every multiset that extends one prefix of the given size
    by pairs of index start or later; u, w, df, dg and weight are the
    prefix's.  walk holds what the whole walk shares: the directed
    pairs, the unit multi-index of each coordinate, the exponent caps of
    each operand (CoefFn.caps), the two operands and the terms by size,
    whose length bounds the size.  A pair is taken at most as often as
    both sides can still be differentiated along it, so no step lands on
    a derivative that the exponents already show is zero; an a cap that
    is unbounded leaves the size to bound the steps along a."""
    pairs, units, (ftop, gtop), f, g, terms = walk
    left = len(terms) - 1 - size
    for idx in range(start, len(pairs)):
        a, b, val = pairs[idx]
        n = min(left, ftop[a] - u[a]) if g is None else min(left, ftop[a] - u[a], gtop[b] - w[b])
        ua, wb, d, e, wt = list(u), list(w), df, dg, weight
        for c in range(1, n + 1):
            ua[a] += 1
            wb[b] += 1
            uk, wk = tuple(ua), tuple(wb)
            d = d.diff(units[a]) if g is None else f.step(uk, d, units[a])
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
    """The joint walk of an operand pair (f, g), transvection_terms up to
    limit: C_m(f, g) for every m is read off terms[m].  g and P are kept
    to check a reader's partner and structure.  A series holds one only
    while it sums that pair."""

    def __init__(self, f: CoefFn, g: CoefFn, P: PoissonStructure, limit: int):
        self.g, self.P = g, P
        self.terms = transvection_terms(f, g, P, limit)


def c_operator(f: CoefFn | PairWalk, g: CoefFn, P: PoissonStructure, m: int, weight=None) -> CoefFn:
    """The m-th transvection C_m(f, g) for the constant structure P, or
    (weight / m!) C_m(f, g) when a weight is given, as the star product
    series take it.

    f and g are walked jointly up to size m; or f is the PairWalk of f
    with its partner g, whose size-m terms are read without walking
    again.  Each term is scaled once and its products are accumulated
    in place."""
    walk = f
    if not isinstance(walk, PairWalk):
        walk = PairWalk(f, g, P, min(m, f.degree() + g.degree()))
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
    def from_coef(cls, f: CoefFn, order: int) -> NuSeries:
        return cls(order, [f] + [CoefFn.zero(f.nv)] * order)

    @classmethod
    def zero(cls, nv: int, order: int) -> NuSeries:
        return cls(order, [CoefFn.zero(nv)] * (order + 1))

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
        """Land c s coefficient by coefficient, each item scaled as it
        lands, and return self; s's exact flag carries over.  c = 0 adds
        nothing and leaves the flag as it is."""
        if not c:
            return self
        self.exact = self.exact and s.exact
        for t, f in enumerate(s.coeffs):
            if f.terms:
                items = f.terms.items()
                self.land(t, items if c == 1 else [(k, v * c) for k, v in items])
        return self

    def series(self) -> NuSeries:
        """The sum so far; its zero coefficients share one CoefFn."""
        zero = CoefFn.zero(self.nv)
        coeffs = [zero] * (self.order + 1)
        for t, d in self.terms.items():
            coeffs[t] = CoefFn(self.nv, d) if d else zero
        return NuSeries(self.order, coeffs, self.exact)


def _transvection_series(
    F: NuSeries, G: NuSeries, P: PoissonStructure, order, first, step, weight, shift=0, into=None
) -> NuSum:
    """Land nu^(i+j+m-shift) (weight / m!) C_m(F_i, G_j), over the powers
    i of F and j of G and over m = first, first + step, .., in a NuSum of
    the given order and return it: into, when given, else a new one.
    The operands' exact flags carry over into it.

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
    out = NuSum(P.nv, order) if into is None else into
    if out.order != order:
        raise ValueError("the sum's order differs from the product's")
    out.exact = out.exact and F.exact and G.exact
    fs, gs = ([(j, h, h.degree()) for j, h in enumerate(S.coeffs) if h.terms] for S in (F, G))
    for i, f, df in fs:
        for j, g, dg in gs:
            t = i + j - shift
            limit = df + dg if out.exact else min(df + dg, order - t)
            if limit < first:
                continue
            walk = PairWalk(f, g, P, limit)
            for m in range(first, len(walk.terms), step):
                if not out.wants(t + m):
                    break
                out.land(t + m, c_operator(walk, g, P, m, weight).terms.items())
    return out


def moyal(F: NuSeries, G: NuSeries, P: PoissonStructure, order: int) -> NuSeries:
    """Truncated star product sum_m nu^m / m! C_m, extended bilinearly."""
    return _transvection_series(F, G, P, order, 0, 1, 1).series()


def star_commutator(F: NuSeries, G: NuSeries, P: PoissonStructure, order: int) -> NuSeries:
    """F * G - G * F, using that even transvections are symmetric."""
    return _transvection_series(F, G, P, order, 1, 2, 2).series()


def half_commutator(F: NuSeries, G: NuSeries, P: PoissonStructure, order: int, into=None):
    """(1 / (2 nu)) [F, G]: the commutator doubles the odd transvections
    and cancels the even ones, so this is the sum of nu^(m-1) (1 / m!) C_m
    over odd m.

    Returns the series; with into, a NuSum of the given order, the terms
    land there instead and into is returned."""
    out = _transvection_series(F, G, P, order, 1, 2, 1, shift=1, into=into)
    return out if into is not None else out.series()


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
    """Sum the listed terms: int exponents, all >= 0 but p, multi-indices of nv entries."""
    nv, terms = keyed(payload, "a coefficient", "nv", "terms")
    if type(nv) is not int or nv < 0:
        raise ValueError(f"nv must be an int >= 0, got {nv!r}")
    items = []
    for term in shaped(terms, list, "terms"):
        p, k, s, q, c = shaped(term, list, "a term")
        k = tuple(shaped(k, list, "a multi-index"))
        if len(k) != nv or any(type(e) is not int for e in (p, *k, s, q)):
            raise ValueError(f"a term needs int exponents and {nv} multi-index entries: {k!r}")
        if min(*k, s, q, 0) < 0:
            raise ValueError(f"a term needs v, alpha and z exponents >= 0: {term!r}")
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
    order, exact, coeffs = keyed(payload, "a series", "order", "exact", "coeffs")
    coeffs = [coef_from_json(c) for c in shaped(coeffs, list, "coeffs")]
    if type(order) is not int or order < 0 or len(coeffs) != order + 1:
        raise ValueError(f"order {order!r} needs order + 1 coefficients, got {len(coeffs)}")
    if any(c.nv != coeffs[0].nv for c in coeffs):
        raise ValueError("series coefficients differ in nv")
    if type(exact) is not bool:
        raise ValueError(f"exact must be a bool, got {exact!r}")
    return NuSeries(order, coeffs, exact)
