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
multiset differentiates that derivative further.  Star products are
computed as truncated series in the deformation parameter; the exact flag
records whether anything nonzero was dropped by the truncation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, perm, prod

from .lie_core import LieAlgebra
from .scalars import frac_str, parse_frac


@dataclass(frozen=True)
class CoefFn:
    """Finite sum of monomials, keyed (p, k, alpha power, z power)."""

    nv: int
    terms: dict = field(default_factory=dict)

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

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: CoefFn) -> CoefFn:
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return CoefFn(self.nv, out)

    def neg(self) -> CoefFn:
        return CoefFn(self.nv, {key: -c for key, c in self.terms.items()})

    def sub(self, other: CoefFn) -> CoefFn:
        return self.add(other.neg())

    def scale(self, c: Fraction) -> CoefFn:
        if not c:
            return CoefFn.zero(self.nv)
        return CoefFn(self.nv, {key: c * v for key, v in self.terms.items()})

    def mul(self, other: CoefFn) -> CoefFn:
        out: dict = {}
        for (p1, k1, s1, q1), c1 in self.terms.items():
            for (p2, k2, s2, q2), c2 in other.terms.items():
                key = (p1 + p2, tuple(a + b for a, b in zip(k1, k2)), s1 + s2, q1 + q2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return CoefFn(self.nv, out)

    def diff(self, index) -> CoefFn:
        """Apply d_a^i_0 d_v1^i_1 .. d_z^i_last for a multi-index over
        (a, v_1 .. v_nv, z)."""
        if not any(index):
            return self
        ia, iv, iz = index[0], index[1:-1], index[-1]
        out = {}
        for (p, k, s, q), c in self.terms.items():
            factor = p**ia * perm(q, iz) * prod(map(perm, k, iv))
            if factor:
                out[(p, tuple(a - b for a, b in zip(k, iv)), s, q - iz)] = c * factor
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

    def v_degree(self) -> int:
        return max((sum(k) for (_, k, _, _) in self.terms), default=0)

    def z_degree(self) -> int:
        return max((q for (_, _, _, q) in self.terms), default=0)

    def origin_part(self) -> CoefFn:
        """Value at a = 0, v = 0, z = 0, kept as a polynomial in alpha."""
        out: dict = {}
        zero_k = (0,) * self.nv
        for (p, k, s, q), c in self.terms.items():
            if q or any(k):
                continue
            key = (0, zero_k, s, 0)
            v = out.get(key, Fraction(0)) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return CoefFn(self.nv, out)

    def substitute_alpha(self, value: Fraction) -> CoefFn:
        out: dict = {}
        for (p, k, s, q), c in self.terms.items():
            key = (p, k, 0, q)
            v = out.get(key, Fraction(0)) + c * value**s
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return CoefFn(self.nv, out)


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
    pairs = P.directed_pairs
    dim = P.nv + 2
    steps = [tuple(int(c == u) for c in range(dim)) for u, _, _ in pairs]

    def walk(start, left, df, w, weight):
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
                yield from walk(idx + 1, left - c, d, tuple(wv), wt)

    yield from walk(0, m, f, (0,) * dim, Fraction(1))


def c_operator(f: CoefFn, g: CoefFn, P: PoissonStructure, m: int) -> CoefFn:
    """The m-th transvection C_m(f, g) for the constant structure P."""
    total = CoefFn.zero(f.nv)
    m_fact = factorial(m)
    for w, df, weight in transvection_terms(f, P, m):
        dg = g.diff(w)
        if not dg.is_zero():
            total = total.add(df.mul(dg).scale(weight * m_fact))
    return total


def poisson(f: CoefFn, g: CoefFn, P: PoissonStructure) -> CoefFn:
    return c_operator(f, g, P, 1)


@dataclass
class NuSeries:
    """Truncated power series in the deformation parameter.

    coeffs[i] multiplies nu^i; exact means no nonzero coefficient was
    dropped past the truncation order by the operations that built it.
    """

    order: int
    coeffs: list
    exact: bool = True

    @classmethod
    def from_coef(cls, f: CoefFn, order: int, exact: bool = True) -> NuSeries:
        coeffs = [f] + [CoefFn.zero(f.nv) for _ in range(order)]
        return cls(order, coeffs, exact)

    @classmethod
    def zero(cls, nv: int, order: int) -> NuSeries:
        return cls(order, [CoefFn.zero(nv) for _ in range(order + 1)], True)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def lift(self, order: int) -> NuSeries:
        if order < self.order:
            raise ValueError("lift cannot lower the truncation order")
        nv = self.coeffs[0].nv
        pad = [CoefFn.zero(nv) for _ in range(order - self.order)]
        return NuSeries(order, list(self.coeffs) + pad, self.exact)

    def resize(self, order: int) -> NuSeries:
        if order >= self.order:
            return self.lift(order)
        dropped_zero = all(c.is_zero() for c in self.coeffs[order + 1 :])
        return NuSeries(order, self.coeffs[: order + 1], self.exact and dropped_zero)

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
        nv = self.coeffs[0].nv
        out = [CoefFn.zero(nv) for _ in range(self.order + 1)]
        exact = self.exact and other.exact
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                if i + j <= self.order:
                    out[i + j] = out[i + j].add(a.mul(b))
                else:
                    exact = False
        return NuSeries(self.order, out, exact)


def _degree_bound(f: CoefFn, g: CoefFn) -> int:
    return f.z_degree() + g.z_degree() + f.v_degree() + g.v_degree()


def moyal(F: NuSeries, G: NuSeries, P: PoissonStructure, order: int) -> NuSeries:
    """Truncated star product sum_m nu^m / m! C_m, extended bilinearly."""
    nv = P.nv
    out = [CoefFn.zero(nv) for _ in range(order + 1)]
    exact = F.exact and G.exact
    for i, fi in enumerate(F.coeffs):
        if fi.is_zero():
            continue
        for j, gj in enumerate(G.coeffs):
            if gj.is_zero():
                continue
            if i + j > order:
                exact = False  # the monomial ring has no zero divisors
                continue
            for m in range(_degree_bound(fi, gj) + 1):
                cm = c_operator(fi, gj, P, m)
                if cm.is_zero():
                    continue
                if i + j + m <= order:
                    out[i + j + m] = out[i + j + m].add(cm.scale(Fraction(1, factorial(m))))
                else:
                    exact = False
    return NuSeries(order, out, exact)


def star_commutator(F: NuSeries, G: NuSeries, P: PoissonStructure, order: int) -> NuSeries:
    """F * G - G * F, using that even transvections are symmetric."""
    nv = P.nv
    out = [CoefFn.zero(nv) for _ in range(order + 1)]
    exact = F.exact and G.exact
    for i, fi in enumerate(F.coeffs):
        if fi.is_zero():
            continue
        for j, gj in enumerate(G.coeffs):
            if gj.is_zero():
                continue
            for m in range(1, _degree_bound(fi, gj) + 1, 2):
                cm = c_operator(fi, gj, P, m)
                if cm.is_zero():
                    continue
                if i + j + m <= order:
                    out[i + j + m] = out[i + j + m].add(cm.scale(Fraction(2, factorial(m))))
                else:
                    exact = False
    return NuSeries(order, out, exact)


def half_commutator(F: NuSeries, G: NuSeries, P: PoissonStructure, order: int) -> NuSeries:
    """(1 / (2 nu)) [F, G]; the commutator has no order-zero part."""
    comm = star_commutator(F, G, P, order + 1)
    if not comm.coeffs[0].is_zero():
        raise AssertionError("star commutator has a constant-order part")
    return NuSeries(
        order,
        [comm.coeffs[t + 1].scale(Fraction(1, 2)) for t in range(order + 1)],
        comm.exact,
    )


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
