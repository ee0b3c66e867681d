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
enumerates the multisets of directed pairs behind C_m and is shared by
c_operator here and by the retract operator: it stops a branch as soon as
the derivative of the first argument vanishes, because every longer
multiset differentiates that derivative further.

C_m(f, g) thus splits into the walk of f, a list of (w, d^u f, weight)
per m, and the derivatives d^w g of g.  c_operator is the one
contraction of the two.  It scales each walk term once, by m! when it
returns C_m itself and by the series weight when a star product series
asks for (weight / m!) C_m, whose 1/m! the walk weights already carry.
A Walked memo computes each half once for one CoefFn, and a StarOperand
holds one Walked per power of nu, so a caller that takes many star
products of the same series (verify_qmm over every pair of the moment
table) walks each coefficient once per m and differentiates it once per
multi-index.  Plain CoefFn and NuSeries arguments get a fresh memo per
call; a memo lives as long as the operand holding it.

CoefFn takes its ring arithmetic (sums with cancellation, scaling,
products by adding exponents) from the SparseSum core of scalars and adds
only the rules of its own axes: derivatives and antiderivatives.  Star
products are truncated series in the deformation parameter, a NuSeries
holding one CoefFn per power of nu.  The series product, moyal and
star_commutator all run one kernel, _truncated_product, and every term it
computes lands through NuSeries.place: the one point where a nonzero term
past the order is dropped and clears the exact flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, perm
from operator import add

from .lie_core import LieAlgebra
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
    """Constant antisymmetric bivector on the chart coordinates."""

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


def transvection_terms(f: CoefFn, P: PoissonStructure, m: int):
    """Walk the multisets of m directed pairs of P, one pair index at a time.

    Yields (w, d^u f, weight) for every multiset whose derivative d^u f is
    nonzero, where u and w are the derivative multi-indices it puts on the
    first and second argument and weight = prod val^c / c! over its pairs,
    so that (1/m!) C_m(f, g) = sum weight * d^u f * d^w g.  A branch is
    dropped once d^u f vanishes: no longer multiset can then be nonzero.
    """
    dim = P.nv + 2
    steps = [tuple(int(c == u) for c in range(dim)) for u, _, _ in P.directed_pairs]
    yield from _walk(P.directed_pairs, steps, 0, m, f, (0,) * dim, Fraction(1))


def _walk(pairs, steps, start, left, df, w, weight):
    """The multisets that extend one prefix of the walk by left more
    pairs, all of index start or later; df, w and weight are the
    prefix's.  steps[idx] is the unit multi-index of pairs[idx]'s first
    coordinate."""
    if not left:
        yield w, df, weight
        return
    for idx in range(start, len(pairs)):
        _, v, val = pairs[idx]
        d, wt, wv = df, weight, list(w)
        for c in range(1, left + 1):
            d = d.diff(steps[idx])
            if d.is_zero():
                break
            wt = wt * val / c
            wv[v] += 1
            yield from _walk(pairs, steps, idx + 1, left - c, d, tuple(wv), wt)


class Walked:
    """A CoefFn with both halves of its transvections for P memoized: its
    walk as the first argument of C_m, per m, and its derivative as the
    second argument, per multi-index.  Each is computed on first use."""

    def __init__(self, f: CoefFn, P: PoissonStructure):
        self.f, self.P = f, P
        self._walks: dict = {}
        self._diffs: dict = {}

    def walk(self, m: int) -> list:
        walk = self._walks.get(m)
        if walk is None:
            walk = self._walks[m] = list(transvection_terms(self.f, self.P, m))
        return walk

    def diff(self, w: tuple) -> CoefFn:
        d = self._diffs.get(w)
        if d is None:
            d = self._diffs[w] = self.f.diff(w)
        return d


def _memo(x, cls, P: PoissonStructure):
    """x as a memo of class cls over P: x itself, or a fresh one."""
    if not isinstance(x, cls):
        return cls(x, P)
    if x.P is not P:
        raise ValueError("operand was walked for another Poisson structure")
    return x


def c_operator(f, g, P: PoissonStructure, m: int, weight=None) -> CoefFn:
    """The m-th transvection C_m(f, g) for the constant structure P, or
    (weight / m!) C_m(f, g) when a weight is given, as the star product
    series take it.

    f and g are CoefFn, or Walked memos over P that keep the walk of f and
    the derivatives of g for the next call.  Each walk term is scaled once
    and its products are accumulated in place."""
    f, g = _memo(f, Walked, P), _memo(g, Walked, P)
    scale = factorial(m) if weight is None else weight
    total: dict = {}
    for w, df, wt in f.walk(m):
        dg = g.diff(w)
        if dg.terms:
            accumulate(total, df.mul_items(dg, wt * scale))
    return CoefFn(f.f.nv, total)


def poisson(f: CoefFn, g: CoefFn, P: PoissonStructure) -> CoefFn:
    return c_operator(f, g, P, 1)


@dataclass
class NuSeries:
    """Truncated power series in the deformation parameter.

    coeffs[i] multiplies nu^i; exact means no nonzero coefficient was
    dropped past the truncation order by the operations that built it.
    place is the one point where a term lands or, past the order, is
    dropped and clears exact.
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

    def place(self, t: int, c: CoefFn) -> None:
        """Add c at nu^t; past the order a nonzero c is dropped and clears
        exact."""
        if t <= self.order:
            self.coeffs[t] = self.coeffs[t].add(c)
        elif not c.is_zero():
            self.exact = False

    def resize(self, order: int) -> NuSeries:
        out = NuSeries.zero(self.coeffs[0].nv, order, self.exact)
        for t, c in enumerate(self.coeffs):
            out.place(t, c)
        return out

    def add(self, other: NuSeries) -> NuSeries:
        if self.order != other.order:
            raise ValueError("series orders differ")
        return NuSeries(
            self.order,
            [a.add(b) for a, b in zip(self.coeffs, other.coeffs)],
            self.exact and other.exact,
        )

    def neg(self) -> NuSeries:
        return NuSeries(self.order, [c.neg() for c in self.coeffs], self.exact)

    def sub(self, other: NuSeries) -> NuSeries:
        return self.add(other.neg())

    def scale(self, c: Fraction) -> NuSeries:
        return NuSeries(self.order, [f.scale(c) for f in self.coeffs], self.exact)

    def mul(self, other: NuSeries) -> NuSeries:
        if self.order != other.order:
            raise ValueError("series orders differ")
        return _truncated_product(
            self,
            other,
            self.order,
            lambda f, g: (0,),
            lambda i, j, m: self.coeffs[i].mul(other.coeffs[j]),
        )


def _truncated_product(F: NuSeries, G: NuSeries, order: int, ms, term) -> NuSeries:
    """Sum of nu^(i+j+m) term(i, j, m) over i, j and m in ms(F_i, G_j),
    placed in a series of the given order.

    Every term vanishes when F_i or G_j does.  ms must be increasing: once
    exact has cleared, a term past the order can change nothing, so the
    rest of that (i, j) is skipped without computing it.
    """
    out = NuSeries.zero(F.coeffs[0].nv, order, F.exact and G.exact)
    gs = [(j, g) for j, g in enumerate(G.coeffs) if not g.is_zero()]
    for i, f in enumerate(F.coeffs):
        if f.is_zero():
            continue
        for j, g in gs:
            for m in ms(f, g):
                if i + j + m > order and not out.exact:
                    break
                out.place(i + j + m, term(i, j, m))
    return out


class StarOperand:
    """A NuSeries read by the transvection series: one Walked memo per
    power of nu, for the Poisson structure P.  Passing the same operand to
    several products walks and differentiates each coefficient once; the
    memo lives as long as the operand."""

    def __init__(self, series: NuSeries, P: PoissonStructure):
        self.series, self.P = series, P
        self.walked = [Walked(c, P) for c in series.coeffs]


def _transvection_series(F, G, P, order, first, step, weight) -> NuSeries:
    """Sum of nu^m (weight / m!) C_m(F, G) over m = first, first + step, ..;
    C_m vanishes once m exceeds the joint polynomial degree, because each
    Lambda entry differentiates a polynomial coordinate on one side.
    F and G are NuSeries, or StarOperand memos over P."""
    A, B = _memo(F, StarOperand, P), _memo(G, StarOperand, P)
    return _truncated_product(
        A.series,
        B.series,
        order,
        lambda f, g: range(first, f.degree() + g.degree() + 1, step),
        lambda i, j, m: c_operator(A.walked[i], B.walked[j], P, m, weight),
    )


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
    """(1 / (2 nu)) [F, G]; the commutator has no order-zero part."""
    comm = star_commutator(F, G, P, order + 1)
    if not comm.coeffs[0].is_zero():
        raise AssertionError("star commutator has a constant-order part")
    half = Fraction(1, 2)
    return NuSeries(order, [c.scale(half) if c.terms else c for c in comm.coeffs[1:]], comm.exact)


@dataclass
class CovarianceReport:
    ok: bool
    checked: int
    failures: list


def check_poisson_covariance(
    algebra: LieAlgebra, moments: list, P: PoissonStructure
) -> CovarianceReport:
    """Check {m_i, m_j} = m_[e_i, e_j] for every basis pair."""
    failures = []
    checked = 0
    nv = P.nv
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            checked += 1
            lhs = poisson(moments[i], moments[j], P)
            rhs = CoefFn.zero(nv)
            for t, s in algebra.structure.get((i, j), {}).items():
                rhs = rhs.add(moments[t].scale(s))
            if not lhs.sub(rhs).is_zero():
                failures.append((i, j))
    return CovarianceReport(not failures, checked, failures)


def coef_to_json(f: CoefFn) -> dict:
    terms = [
        [p, list(k), s, q, frac_str(c)]
        for (p, k, s, q), c in sorted(f.terms.items())
    ]
    return {"nv": f.nv, "terms": terms}


def coef_from_json(payload: dict) -> CoefFn:
    terms = {
        (p, tuple(k), s, q): parse_frac(c) for p, k, s, q, c in payload["terms"]
    }
    return CoefFn(payload["nv"], terms)


def series_to_json(s: NuSeries) -> dict:
    return {
        "order": s.order,
        "exact": s.exact,
        "coeffs": [coef_to_json(c) for c in s.coeffs],
    }


def series_from_json(payload: dict) -> NuSeries:
    return NuSeries(
        payload["order"],
        [coef_from_json(c) for c in payload["coeffs"]],
        payload["exact"],
    )
