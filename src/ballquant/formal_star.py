"""Exponential-polynomial functions and their formal star product.

The function ring is spanned by monomials c * e^{p a} * v^k * alpha^s * z^q
with rational c, integer exponential weight p, a multi-index k over the
symplectic coordinates v_1 .. v_nv, a formal scalar parameter alpha and
a polynomial variable z.  Coordinates are ordered (a, v_1 .. v_nv, z).

Each monomial is keyed by one int (KeyLayout, after the packed exponent
vectors of Monagan and Pearce): from high to low its fields are p, v_1
.. v_nv, the alpha power and the z power, FIELD_BITS = 8 bits each below
p, which is the signed top field, so int order is the order of the
tuples (p, k, alpha power, z power).  A product adds two keys and a
derivative step along a v or z coordinate subtracts that coordinate's
unit.  The top bit of each field below p is a guard: an exponent that
would reach it (128) raises OverflowError, never wraps into the next
field; a product checks it once, on the largest fields of its operands,
before it writes a term.  Tuple keys are read and written only at the
boundary: CoefFn.of packs them and CoefFn.decoded unpacks them, for the
JSON codec, the a-check of integrate_exact_gradient and radial_reduce.

For a constant antisymmetric matrix Lambda on these coordinates the
transvection operators

    C_m(f, g) = sum over u_1..u_m, w_1..w_m of
                Lambda^{u_1 w_1} .. Lambda^{u_m w_m} d_u f d_w g

terminate on this ring because every nonzero Lambda entry differentiates
a polynomial variable on at least one side.  One walk, transvection_terms,
enumerates the multisets of directed pairs behind C_m for every m at
once, deriving each derivative from its parent by one step, up to one
size limit per walk: for f against a row of partners (the star products,
which take no limit, and c_operator), or for f alone (the retract
operator).

Each CoefFn keeps its exponent caps (CoefFn.caps, taken once per
function and read off its largest fields): the largest exponent of each
v and z coordinate and whether any term has p != 0; a derivative folds
them in the loop that builds its terms (CoefFn.diff_coord).  A cap is
exact for its coordinate, so the walk takes a directed pair as often as
the caps of the derivatives it steps from allow, and no step lands on a
zero derivative.  Most directed pairs have a zero cap on one side, so
the walk tests f's cap, once for the row, then each partner's.  The sizes
that have a multiset run from 0 to a last one, past which every C_m
vanishes.  Each step lowers a polynomial cap on one side, so a
partner's walk ends by itself there, at most at the joint degree.

Each CoefFn keeps a memo of its own derivatives per multi-index, which
the row walk fills one step from the parent (CoefFn.step).  The walk
packs its multi-indices as the keys are packed, a in the top field, so a
step adds a unit to an int and the memo is keyed by that int; the
derivative is the single-coordinate one, CoefFn.diff_coord.  The caps,
the largest fields and the memo fill the instance dict on first use
(scalars.kept), without the lock that functools.cached_property takes
on every first access before Python 3.12.  A derivative depends only
on the function, so the memo serves either side of a transvection
under any Poisson structure on its coordinates, and lives as long as
the function.  The one-sided walk keeps none: under the chart's
structure it reaches each multi-index by one multiset only.
The star product series walk each stored coefficient of the first
operand once against every stored coefficient of a row of partner
series, land each walk term straight in its partner's NuSum and stop a
partner at its last size, past the order too, where only NuSum.land
decides what is dropped.  A walk lives only while its row is summed; a
caller that takes many star products of the same series (verify_qmm over
the rows of the moment table) differentiates each coefficient at most
once per multi-index, and one that wants no memo to outlive its call
passes fresh copies (verify_qmm lifts each moment into new int
coefficients).  An operand's own order need not be the product's: its
stored powers are walked as they are, and one past the order lands past
it and clears exact.

The walk is carried in integers.  PoissonStructure keeps the common
denominator delta of its entries, its directed pairs carry the ints
delta * Lambda^{uw}, and a multiset of m pairs carries the int weight
m! prod (delta Lambda^{uw})^c / c!, so C_m = delta^-m sum weight d^u f d^w g.
Each reader divides once per term: c_operator by delta^m for C_m, the
series (once per m and call) by m! delta^m / weight for (weight / m!) C_m,
and the retract operator, whose terms of each size m it scales by the int
S / (m! delta^m) with S = top! delta^top, by S times the common
denominator of mu_X.  A weight that m! delta^m divides keeps that scale
an int, so verify_qmm checks the moment identity in Z and divides only a
failing residual back into Q.  Past the truncation
order only whether C_m vanishes counts: the series land the bare walk
sum delta^m C_m there.

CoefFn takes its ring arithmetic (sums with cancellation, scaling,
products by adding exponents) from the SparseSum core of scalars and adds
only the rules of its own axes: derivatives and antiderivatives.  Each
product is summed, scaled, straight into a caller's term dict
(SparseSum.mul_into).  Star products are truncated series in the
deformation parameter, a NuSeries keeping only its nonzero powers, so it
costs what it holds whatever its order; the JSON codec alone reads its
dense form (NuSeries.coeffs).
Every series is summed in place in a NuSum, and NuSum.land is the one
point in the package where a series term past the order is dropped,
clearing the exact flag if it is nonzero: the star products and the
series product all land there through _transvection_series (which stops
forming a partner's past-order products once its sum is inexact), as do
series sums, retract_pde and verify_qmm.  (retract_pde's XiFn.expand_nu
cuts the binomial series of a half power at the order by design, with
no flag.)
NuSum.add scales each item as it lands, and half_commutator can land
its terms in a caller's NuSums, one per partner, instead of returning
series, so verify_qmm sums each pair's residual in one NuSum.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, perm
from sys import maxsize

from .linalg import mat_inverse
from .scalars import Record, SparseSum, accumulate, collect, exact, frac_str, keyed, kept
from .scalars import parse_frac, shaped

FIELD_BITS = 8
_MASK = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)
_set = object.__setattr__


class KeyLayout(Record, frozen=True):
    """The packing of a CoefFn key (p, k, alpha power, z power) on nv v
    coordinates into one int, fields as the module says.  pack raises
    ValueError for a negative exponent below p and OverflowError for one
    past the guard.  shifts[c] and units[c] are the shift and the unit
    of chart coordinate c of (a, v_1 .. v_nv, z), a reading the p field;
    the walk packs a multi-index over them the same way.  Frozen, since
    key_layout shares one per nv."""

    nv: int
    top: int
    low: int
    guards: int
    shifts: tuple
    units: tuple

    def __init__(self, nv: int):
        top = (nv + 2) * FIELD_BITS
        low = (1 << top) - 1
        shifts = (top, *range((nv + 1) * FIELD_BITS, FIELD_BITS, -FIELD_BITS), 0)
        units = tuple(1 << s for s in shifts)
        Record.__init__(self, nv, top, low, low // _MASK * _GUARD, shifts, units)

    def pack(self, p: int, k: tuple, s: int, q: int) -> int:
        if len(k) != self.nv:
            raise ValueError("multi-index length must match nv")
        key = p
        for e in (*k, s, q):
            if e < 0:
                raise ValueError(f"v, alpha and z exponents must be >= 0, got {(p, k, s, q)!r}")
            key = key << FIELD_BITS | _fit(e)
        return key

    def unpack(self, key: int) -> tuple:
        p, *k, q = self.index(key)
        return p, tuple(k), key >> FIELD_BITS & _MASK, q

    def index(self, w: int) -> tuple:
        """The multi-index over (a, v_1 .. v_nv, z) that w packs."""
        return (w >> self.top, *(w >> s & _MASK for s in self.shifts[1:]))


key_layout = lru_cache(maxsize=None)(KeyLayout)


def _fit(e: int) -> int:
    if e >= _GUARD:
        raise OverflowError(f"an exponent of {e} does not fit a key field (at most {_GUARD - 1})")
    return e


class CoefFn(SparseSum, Record, frozen=True):
    """Finite sum of monomials, each keyed by one int that packs
    (p, k, alpha power, z power) as key_layout(nv) lays it out.  of builds
    one from tuple keys and decoded reads them back."""

    nv: int
    terms: dict

    def __init__(self, nv: int, terms: dict | None = None):
        _set(self, "nv", nv)  # past the frozen __setattr__, as dataclasses do
        _set(self, "terms", {} if terms is None else terms)

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

    def mul_into(self, out: dict, other: CoefFn, c=1) -> dict:
        """SparseSum.mul_into, each key the sum of two: the largest fields
        of the operands are checked once, before out is written, so no sum
        of keys carries past a guard bit."""
        if (self._top + other._top) & key_layout(self.nv).guards:
            raise OverflowError("a product exponent does not fit a key field")
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            if c != 1:
                c1 = c1 * c
            for k2, c2 in right:
                key = k1 + k2
                s = out.get(key)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    @classmethod
    def of(cls, nv: int, items) -> CoefFn:
        """The sum of ((p, k, alpha power, z power), c) items."""
        pack = key_layout(nv).pack
        return cls(nv, collect((pack(*key), c) for key, c in items))

    def decoded(self) -> dict:
        """The terms keyed by tuples (p, k, alpha power, z power)."""
        unpack = key_layout(self.nv).unpack
        return {unpack(key): c for key, c in self.terms.items()}

    @classmethod
    def zero(cls, nv: int) -> CoefFn:
        return cls(nv, {})

    @classmethod
    def const(cls, nv: int, c: Fraction) -> CoefFn:
        return cls.monomial(nv, 0, (0,) * nv, 0, 0, c)

    @classmethod
    def monomial(cls, nv, p, k, alpha, q, c) -> CoefFn:
        """c e^{pa} v^k alpha^alpha z^q: c an int or a Fraction and every
        exponent an int, else TypeError; a negative v, alpha or z exponent
        raises ValueError and one past a key field OverflowError."""
        k = tuple(k)
        if any(type(e) is not int for e in (p, *k, alpha, q)):
            raise TypeError(f"monomial exponents must be ints, got {(p, k, alpha, q)!r}")
        key = key_layout(nv).pack(p, k, alpha, q)
        c = exact(c, "the monomial coefficient")
        return cls(nv, {key: c} if c else {})

    def diff(self, index) -> CoefFn:
        """Apply d_a^i_0 d_v1^i_1 .. d_z^i_last for a multi-index over
        (a, v_1 .. v_nv, z), a tuple; only the coordinates it
        differentiates are read off each key."""
        layout = key_layout(self.nv)
        ia, top = index[0], layout.top
        steps = [(s, n) for s, n in zip(layout.shifts[1:], index[1:]) if n]
        drop = sum(n << s for s, n in steps)
        out = {}
        for k, c in self.terms.items():
            factor = (k >> top) ** ia
            for s, n in steps:
                factor *= perm(k >> s & _MASK, n)
            if factor:
                out[k - drop] = c if factor == 1 else c * factor
        return CoefFn(self.nv, out)

    def diff_coord(self, coord: int) -> CoefFn:
        """One derivative along chart coordinate coord: the factor is p
        for a, else the exponent in the coordinate's field, which the key
        loses one unit of.  Its largest fields (_top) fold as it is built."""
        layout = key_layout(self.nv)
        shift, low, guards = layout.shifts[coord], layout.low, layout.guards
        one, mask = 1 << shift, _MASK if coord else -1
        out, top, weighted = {}, 0, 0
        for k, c in self.terms.items():
            if e := k >> shift & mask:
                k = k - one if coord else k  # along a, the key int is shared
                out[k] = c if e == 1 else c * e
                r = k & low
                weighted = weighted or r != k
                keep = ((top | guards) - r) & guards
                keep -= keep >> (FIELD_BITS - 1)
                top = top & keep | r & ~keep
        d = CoefFn(self.nv, out)
        d.__dict__["_top"] = top | weighted << layout.top
        return d

    @kept
    def _derivatives(self) -> dict:
        return {}

    @kept
    def _top(self) -> int:
        """The largest exponent of each field below p, packed, and 1 in
        the p field when some term has p != 0.  A field-wise maximum of
        guarded fields: (top | guards) - r keeps the guard bit of each
        field where top's exponent is at least r's, and that guard less
        its low bit masks the fields kept from top."""
        layout = key_layout(self.nv)
        low, guards, top, weighted = layout.low, layout.guards, 0, 0
        for k in self.terms:
            r = k & low
            weighted = weighted or r != k
            keep = ((top | guards) - r) & guards
            keep -= keep >> (FIELD_BITS - 1)
            top = top & keep | r & ~keep
        return top | weighted << layout.top

    @kept
    def caps(self) -> tuple:
        """How many times each coordinate (a, v_1 .. v_nv, z) can
        differentiate this function before every term vanishes: the largest
        exponent of each v and of z, and for a, maxsize (no bound) when some
        term has p != 0, else 0.  k derivatives along a coordinate are
        nonzero exactly when k <= its cap: they map the terms whose exponent
        there is at least k one to one onto nonzero terms.  Taken on first
        use and kept."""
        top, layout = self._top, key_layout(self.nv)
        fields = (top & layout.low).to_bytes(layout.nv + 2, "big")  # a byte each: v, alpha, z
        return (maxsize if top >> layout.top else 0, *fields[:-2], fields[-1])

    def step(self, index: int, parent: CoefFn, coord: int) -> CoefFn:
        """d^index self, given parent = d^(index - unit) self for the unit
        of coordinate coord, index packed as key_layout lays it out.  It is
        taken on first use, by one step from parent, and kept in this
        function's memo, so a function walked against many partners is
        differentiated at most once per multi-index; the memo lives as long
        as the function."""
        d = self._derivatives.get(index)
        if d is None:
            d = self._derivatives[index] = parent.diff_coord(coord)
        return d

    def antiderivative_a(self) -> CoefFn:
        top = key_layout(self.nv).top
        if not all(k >> top for k in self.terms):
            raise ValueError("weight-zero term has no exponential antiderivative")
        return CoefFn(self.nv, {k: c / (k >> top) for k, c in self.terms.items()})

    def antiderivative_v(self, i: int) -> CoefFn:
        return self._integrate(1 + i)

    def antiderivative_z(self) -> CoefFn:
        return self._integrate(self.nv + 1)

    def _integrate(self, coord: int) -> CoefFn:
        shift = key_layout(self.nv).shifts[coord]
        one = 1 << shift
        return CoefFn(
            self.nv,
            {k + one: c / _fit((k >> shift & _MASK) + 1) for k, c in self.terms.items()},
        )


class PoissonStructure(Record, frozen=True, eq=False):
    """Constant antisymmetric bivector on the chart coordinates.

    matrix holds the entries as Fractions, in row tuples.  delta is the
    least common denominator of the entries, and directed_pairs holds
    (u, w, delta * Lambda^{uw}), an int, for every nonzero entry: the
    walk's steps.  inverse is the inverse matrix, taken on first use and
    kept: a degenerate structure, such as the zero one of NuSeries.mul,
    is never inverted.  Frozen, since a table shares it with mutations."""

    nv: int
    matrix: tuple
    delta: int
    directed_pairs: tuple

    def __init__(self, nv: int, matrix: list):
        dim = nv + 2
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError("Poisson matrix must cover (a, v_1..v_nv, z)")
        matrix = tuple(tuple(exact(x, "a Poisson matrix entry") for x in row) for row in matrix)
        for i in range(dim):
            for j in range(dim):
                if matrix[i][j] != -matrix[j][i]:
                    raise ValueError("Poisson matrix must be antisymmetric")
        delta = lcm(*(x.denominator for row in matrix for x in row))
        pairs = tuple(
            (u, w, x.numerator * (delta // x.denominator))
            for u, row in enumerate(matrix) for w, x in enumerate(row) if x
        )
        Record.__init__(self, nv, matrix, delta, pairs)

    @kept
    def inverse(self) -> tuple:
        return tuple(map(tuple, mat_inverse(self.matrix)))


def transvection_terms(f: CoefFn, gs: list | None, P: PoissonStructure, limit: int, odd=False) -> list:
    """Walk the multisets of directed pairs of P of every size up to
    limit, an int >= 0 (else ValueError, as for an operand of another
    nv), at once, one pair index at a time, for f against each partner in
    gs; gs None walks f alone, with no memo, where a row walk reads the
    memos (CoefFn.step).

    Returns one terms list per partner: terms[m] lists
    (w, d^u f, d^w g, weight) in walk order for every multiset of m pairs
    whose derivatives are nonzero (d^w g is None one-sided).  u and w are
    the derivative multi-indices it puts on the first and second
    argument, packed by key_layout(P.nv) (KeyLayout.index reads one
    back), and weight is the int m! prod val^c / c! over its pairs,
    val = delta * Lambda^{uw} the integer pair values of P, so that
    C_m(f, g) = delta^-m sum weight * d^u f * d^w g.  Each step multiplies
    the weight by val * (size + c) and divides by c exactly: the quotient
    is val times the binomial (size + c choose c), an integer.  With odd
    only the odd sizes, which a commutator contracts, are recorded.
    Every size a partner reaches gets a list, so len(terms) - 1 is the
    largest size that has a multiset, and C_m vanishes for every larger m
    when that is below the limit.
    """
    one_sided = gs is None
    gs = [None] if one_sided else gs
    if any(h is not None and h.nv != P.nv for h in (f, *gs)):
        raise ValueError(f"an operand's nv differs from the Poisson structure's {P.nv}")
    if type(limit) is not int or limit < 0:
        raise ValueError(f"the walk needs an int limit >= 0, got {limit!r}")
    walks = [[] for _ in gs]
    free = (maxsize,) * (P.nv + 2)
    row = []
    for g, terms in zip(gs, walks):
        if f.terms and (one_sided or g.terms):
            terms.append([] if odd else [(0, f, g, 1)])
            row.append((g, terms, g, free if one_sided else g.caps))
    if row and limit:
        units = key_layout(P.nv).units
        walk = (P.directed_pairs, units, None if one_sided else f, odd, limit)
        _extend(walk, 0, 0, 0, 0, f, 1, row)
    return walks


def _extend(walk, start, size, u, w, df, weight, row):
    """Record every multiset that extends one prefix of the given size,
    below the limit, by pairs of index start or later; u, w, df and
    weight are the prefix's, walk holds the directed pairs, the
    coordinate units, f (None one-sided: a step differentiates directly),
    odd and the limit, and row (g, terms, dg, dg's caps) per partner
    still going (g None and every cap maxsize one-sided).  A pair (a, b)
    is taken while df's cap along a allows, and by each partner while its
    dg's cap along b allows, so no step lands on a zero derivative; a
    step that reaches the limit ends the node, neither repeated nor
    extended, which also bounds an unbounded a cap."""
    pairs, units, f, odd, limit = walk
    fcaps = df.caps
    for idx in range(start, len(pairs)):
        a, b, val = pairs[idx]
        n = fcaps[a]
        if not n:
            continue
        going = []
        for p in row:
            k = p[3][b]
            if k:
                going.append((k if k < n else n, p))
        uk, wk, d, wt, m = u, w, df, weight, size
        while going:
            uk += units[a]
            wk += units[b]
            d = d.diff_coord(a) if f is None else f.step(uk, d, a)
            m += 1
            c = m - size
            wt = wt * val * m // c
            keep = m & 1 or not odd
            again, deeper = [], []
            for k, (g, terms, e, caps) in going:
                if g is not None:
                    e = g.step(wk, e, b)
                    caps = e.caps
                if m == len(terms):
                    terms.append([])
                if keep:
                    terms[m].append((wk, d, e, wt))
                deeper.append(p := (g, terms, e, caps))
                if c < k:
                    again.append((k, p))
            if m == limit:
                break
            _extend(walk, idx + 1, m, uk, wk, d, wt, deeper)
            going = again


def c_operator(f: CoefFn, g: CoefFn, P: PoissonStructure, m: int) -> CoefFn:
    """C_m(f, g), the m-th transvection for the constant structure P.  It
    is read off the walk of f against the one partner g up to size m:
    each term's integer walk weight is scaled once, by 1 / delta^m, an
    int when delta is 1, so int coefficients then give int coefficients."""
    terms, = transvection_terms(f, [g], P, m)
    scale = _ratio(1, P.delta**m)
    total: dict = {}
    for _, df, dg, wt in terms[m] if m < len(terms) else ():
        df.mul_into(total, dg, wt * scale)
    return CoefFn(P.nv, total)


def _ratio(num: int, den: int):
    """num / den, an int when den divides num."""
    return num // den if num % den == 0 else Fraction(num, den)


class NuSeries(Record):
    """Truncated power series in the deformation parameter.

    terms maps each power of nu with a nonzero coefficient, in
    increasing order, to that CoefFn on nv v coordinates, so equal series
    are equal records.  exact means no nonzero coefficient was dropped
    past the truncation order by the operations that built it.  Series
    are summed in a NuSum, whose land decides what is dropped.
    """

    nv: int
    order: int
    terms: dict
    exact: bool = True

    def __init__(self, nv: int, order: int, terms: dict, exact: bool = True):
        self.nv, self.order, self.terms, self.exact = nv, order, terms, exact

    @classmethod
    def from_coef(cls, f: CoefFn, order: int) -> NuSeries:
        return cls(f.nv, order, {0: f} if f.terms else {})

    @classmethod
    def zero(cls, nv: int, order: int) -> NuSeries:
        return cls(nv, order, {})

    @property
    def coeffs(self) -> list:
        """The dense form that the JSON codec writes: nu^0 .. nu^order."""
        zero = CoefFn.zero(self.nv)
        return [self.terms.get(t, zero) for t in range(self.order + 1)]

    def is_zero(self) -> bool:
        return not self.terms

    def resize(self, order: int) -> NuSeries:
        return NuSum(self.nv, order).add(self).series()

    def add(self, other: NuSeries, c=1) -> NuSeries:
        """self + c other, summed in one NuSum."""
        if self.order != other.order:
            raise ValueError("series orders differ")
        return NuSum(self.nv, self.order).add(self).add(other, c).series()

    def sub(self, other: NuSeries) -> NuSeries:
        return self.add(other, -1)

    def scale(self, c: Fraction) -> NuSeries:
        """c self for an int or a Fraction c, else TypeError; c multiplies
        as given, so an int factor keeps int coefficients ints."""
        terms = self.terms if exact(c, "the scale factor") else {}
        return NuSeries(self.nv, self.order, {t: f.scale(c) for t, f in terms.items()}, self.exact)

    def mul(self, other: NuSeries) -> NuSeries:
        """The product: C_0(f, g) = f g, so this is the star product of
        the zero Poisson structure, under which every C_m with m > 0
        vanishes."""
        if self.order != other.order:
            raise ValueError("series orders differ")
        dim = self.nv + 2
        return moyal(self, [other], PoissonStructure(self.nv, [[0] * dim] * dim), self.order)[0]


class NuSum:
    """A NuSeries summed in place: terms maps each power of nu up to the
    order to its term dict, made when a term first lands there.

    land is the one point where a term is dropped: past the order it is
    not stored, and a nonzero one clears exact.
    """

    def __init__(self, nv: int, order: int):
        self.nv, self.order, self.exact, self.terms = nv, order, True, defaultdict(dict)

    def land(self, t: int, items) -> None:
        if t <= self.order:
            accumulate(self.terms[t], items)
        elif self.exact and any(c for _, c in items):
            self.exact = False

    def add(self, s: NuSeries, c=1) -> NuSum:
        """Land c s power by power, each item scaled as it lands, and
        return self; s's exact flag carries over, and c = 0 adds nothing
        and leaves it as it is.  A series of another nv raises ValueError."""
        if not c:
            return self
        if s.nv != self.nv:
            raise ValueError(f"a series with nv {s.nv} does not add to a sum with nv {self.nv}")
        self.exact = self.exact and s.exact
        for t, f in s.terms.items():
            items = f.terms.items()
            self.land(t, items if c == 1 else [(k, v * c) for k, v in items])
        return self

    def series(self) -> NuSeries:
        """The sum so far, each term dict that did not cancel wrapped as
        the CoefFn of its power."""
        terms = {t: CoefFn(self.nv, d) for t, d in sorted(self.terms.items()) if d}
        return NuSeries(self.nv, self.order, terms, self.exact)


def _transvection_series(
    F: NuSeries, Gs: list, P: PoissonStructure, order, odd, weight, shift=0, into=None
) -> list:
    """Land nu^(i+j+m-shift) (weight / m!) C_m(F_i, G_j), over the powers
    i of F and j of each partner series G of the row Gs and over every m
    (every odd m with odd), in one NuSum of the order per partner, and
    return those: into, when given, else new ones, each ANDed with the
    operands' exact flags.

    Each F_i is walked once against every G_j of the row, with no size
    limit, and a partner's m loop ends at the last size of its walk, past
    which C_m vanishes.  The loop does not stop at a zero C_m, which can
    vanish by cancellation while a larger one does not.  Each walk term's
    products land straight in its partner's sum, scaled by
    weight / (m! delta^m), taken once per m and call.  Past the order a
    C_m only has to be seen nonzero by land, which drops it, and its terms
    can cancel, so they are summed first, as the bare walk sum
    delta^m C_m, while the partner's sum is still exact.
    """
    outs = [NuSum(P.nv, order) for _ in Gs] if into is None else into
    if len(outs) != len(Gs) or any(out.order != order for out in outs):
        raise ValueError("the sums must be one per partner, of the product's order")
    partners = []
    for out, G in zip(outs, Gs):
        out.exact = out.exact and F.exact and G.exact
        partners += [(out, j - shift, g) for j, g in G.terms.items()]
    gs = [g for *_, g in partners]
    first, step, scales = int(odd), 1 + odd, {}
    for i, f in F.terms.items():
        walks = transvection_terms(f, gs, P, maxsize, odd)
        for (out, j, _), terms in zip(partners, walks):
            for m in range(first, len(terms), step):
                t = i + j + m
                past = t > order
                if past and not out.exact:
                    break
                if not past and m not in scales:
                    scales[m] = _ratio(weight, factorial(m) * P.delta**m)
                dst = {} if past else out.terms[t]
                for _, d, e, wt in terms[m]:
                    d.mul_into(dst, e, wt if past else wt * scales[m])
                if past:
                    out.land(t, dst.items())
    return outs


def moyal(F: NuSeries, Gs: list, P: PoissonStructure, order: int) -> list:
    """F * G = sum_m nu^m / m! C_m, truncated, for each G of the row Gs."""
    return [s.series() for s in _transvection_series(F, Gs, P, order, False, 1)]


def star_commutator(F: NuSeries, Gs: list, P: PoissonStructure, order: int) -> list:
    """F * G - G * F for each G of the row Gs: even transvections cancel."""
    return [s.series() for s in _transvection_series(F, Gs, P, order, True, 2)]


def half_commutator(
    F: NuSeries, Gs: list, P: PoissonStructure, order: int, into=None, weight: int = 1
) -> list:
    """(weight / (2 nu)) [F, G] for each G of the row Gs, the sum of
    nu^(m-1) (weight / m!) C_m over odd m (the commutator doubles the odd
    transvections and cancels the even ones), as series, or landed in
    into, NuSums of the order, one per partner, and into returned.  An int
    weight that m! delta^m divides for every m <= order + 1, with int
    coefficients in F and G, lands int coefficients only (verify_qmm)."""
    outs = _transvection_series(F, Gs, P, order, True, weight, shift=1, into=into)
    return outs if into is not None else [s.series() for s in outs]


def coef_to_json(f: CoefFn) -> dict:
    terms = [[p, list(k), s, q, frac_str(c)] for (p, k, s, q), c in sorted(f.decoded().items())]
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
    try:
        return CoefFn.of(nv, items)
    except OverflowError as err:
        raise ValueError(str(err)) from None


def series_to_json(s: NuSeries) -> dict:
    return {
        "order": s.order,
        "exact": s.exact,
        "coeffs": [coef_to_json(c) for c in s.coeffs],
    }


def series_from_json(payload: dict) -> NuSeries:
    """A series of order + 1 coefficients with one nv and a bool exact;
    the nonzero ones are stored."""
    order, exact, coeffs = keyed(payload, "a series", "order", "exact", "coeffs")
    coeffs = [coef_from_json(c) for c in shaped(coeffs, list, "coeffs")]
    if type(order) is not int or order < 0 or len(coeffs) != order + 1:
        raise ValueError(f"order {order!r} needs order + 1 coefficients, got {len(coeffs)}")
    if any(c.nv != coeffs[0].nv for c in coeffs):
        raise ValueError("series coefficients differ in nv")
    if type(exact) is not bool:
        raise ValueError(f"exact must be a bool, got {exact!r}")
    return NuSeries(coeffs[0].nv, order, {t: f for t, f in enumerate(coeffs) if f.terms}, exact)
