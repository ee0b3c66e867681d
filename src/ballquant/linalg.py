"""Exact rational linear algebra.

Everything here works over ``fractions.Fraction`` and is fully exact.
A vector is a sparse map ``{index: nonzero Fraction}``: an absent index
is a zero coordinate and no vector stores a zero, so ``not v`` tests
for the zero vector and two vectors are equal exactly when their maps
are.  A matrix is a list of vector rows (``ad``) or, where a format
needs one, of dense rows, as ``dense`` writes a vector out.

There is one elimination, ``_echelon``: a sparse fraction-free forward
elimination that scales each row to coprime integers and never leaves
the integers (rows are divided by the gcd of their entries, not, as in
Bareiss's method, by the previous pivot).  Its rows are vectors or dense
matrix rows.  Its pending rows sit in buckets by leading column, so a
pivot step touches only the rows that hold the pivot column.  The rank
is the number of pivot rows.  Back substitution on those rows, divided
by the pivots, gives the reduced row echelon form ``rref``; it is
unique, so its rows are canonical subspace bases and ``nullspace``
reads the kernel off it.  Coordinates against a basis, inverses
included, come from a ``Frame``, which reduces the basis once and reads
every later vector off its dual; ``Frame.require`` is the read for
vectors that must lie in the span, and raises ValueError with the
caller's message when one does not.  ``solve_linear`` goes through
``rref``.
The change-of-basis steps the rest of the package shares live here too:
``combine`` sums coefficients times vectors, ``bilinear`` evaluates a
bilinear form on two vectors, ``transpose`` reads vectors as the columns
of a matrix, and ``split_symplectic`` is the one split-half symplectic
matrix [[0, I], [-I, 0]].  ``BoundOnce`` binds each attribute of a
Frame, and of the algebras and subspaces of ``lie_core``, once, so a
cached model cannot be changed by rebinding one.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .scalars import collect

Vec = dict
Mat = list


def zeros(n: int) -> list:
    return [Fraction(0)] * n


def dense(v: Vec, n: int) -> list:
    """The vector v written out as a list of its n coordinates."""
    return [v.get(j, Fraction(0)) for j in range(n)]


def vec_add(u: Vec, v: Vec) -> Vec:
    return collect(v.items(), u)

def vec_scale(u: Vec, c: Fraction) -> Vec:
    return {j: a * c for j, a in u.items()} if c else {}


def combine(coeffs: dict, vectors) -> Vec:
    """The sum of c * vectors[k] over the (k, c) of coeffs."""
    return collect((j, c * x) for k, c in coeffs.items() for j, x in vectors[k].items())


def bilinear(form: Mat, x: Vec, y: Vec) -> Fraction:
    """x^T form y, summed over the nonzero entries only."""
    return sum(
        (xi * yj * form[i][j] for i, xi in x.items() for j, yj in y.items() if form[i][j]),
        Fraction(0),
    )


def transpose(vectors, n: int) -> list:
    """The n columns of the matrix whose rows are vectors, as vectors."""
    cols = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        for j, x in v.items():
            cols[j][i] = x
    return cols


def split_symplectic(n: int) -> Mat:
    """The split-half symplectic matrix [[0, I], [-I, 0]] of even size n."""
    half = n // 2
    out = [zeros(n) for _ in range(n)]
    for i in range(half):
        out[i][half + i] = Fraction(1)
        out[half + i][i] = Fraction(-1)
    return out


def _sparse(v) -> dict:
    """A vector or a dense matrix row as a dict of its nonzeros."""
    return {j: x for j, x in (v.items() if isinstance(v, Mapping) else enumerate(v)) if x}


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _combine(row: dict, pv: int, coef: int, pivot: dict) -> dict:
    """Primitive integer row pv * row - coef * pivot, zeros dropped."""
    new = {j: row.get(j, 0) * pv - coef * pivot.get(j, 0) for j in row.keys() | pivot.keys()}
    return _primitive({j: v for j, v in new.items() if v})


def _echelon(rows) -> list[dict[int, int]]:
    """Fraction-free sparse forward elimination.

    Rows are vectors or dense matrix rows.  Each nonzero row is
    scaled to coprime integers; rows are then eliminated by integer cross
    multiplication (pv * row - coef * pivot, divided by the gcd of its
    entries), so every intermediate value stays an exact integer.
    Pending rows wait in buckets keyed by their leading column: the pivot
    is the sparsest row of the lowest bucket, only the rest of that bucket
    holds its column, and each row that survives elimination moves to the
    bucket of its new leading column.
    Returns integer pivot rows in order of increasing leading column.
    """
    buckets: dict[int, list] = {}
    for row in rows:
        row = _sparse(row)
        if row:
            denom = lcm(*(x.denominator for x in row.values()))
            row = _primitive({j: x.numerator * (denom // x.denominator) for j, x in row.items()})
            buckets.setdefault(min(row), []).append(row)
    out = []
    while buckets:
        lead = min(buckets)
        bucket = buckets.pop(lead)
        pivot = bucket.pop(min(range(len(bucket)), key=lambda k: len(bucket[k])))
        out.append(pivot)
        for r in bucket:
            r = _combine(r, pivot[lead], r[lead], pivot)
            if r:
                buckets.setdefault(min(r), []).append(r)
    return out


def rref(rows) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of a matrix given by vectors or dense rows.

    Returns the nonzero rows as vectors (canonical form, pivots equal to
    one) and the list of pivot column indices.  Back substitution runs
    on the echelon rows, last row first: each row eliminates the later
    pivot columns with the rows already reduced, still fraction-free,
    and is divided by its pivot at the end.  The form is unique, so
    subspace bases and everything printed from them do not depend on the
    pivot order the elimination chose.
    """
    ech = _echelon(rows)
    pivots = [min(r) for r in ech]
    for i in range(len(ech) - 2, -1, -1):
        row = ech[i]
        for k in range(i + 1, len(ech)):
            coef = row.get(pivots[k])
            if coef:
                row = _combine(row, ech[k][pivots[k]], coef, ech[k])
        ech[i] = row
    red = [{j: Fraction(v, row[p]) for j, v in row.items()} for row, p in zip(ech, pivots)]
    return red, pivots


def nullspace(rows, ncols: int) -> list[Vec]:
    """Canonical basis of the right kernel of a matrix, as vectors.

    Rows are vectors or dense rows.
    """
    red, pivots = rref(rows)
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        v = {fcol: Fraction(1)}
        for row, pcol in zip(red, pivots):
            if fcol in row:
                v[pcol] = -row[fcol]
        basis.append(v)
    return basis


def solve_linear(a: Mat, b: list):
    """One exact solution x of a x = b, as a list, or None when inconsistent."""
    if not a:
        return [] if not any(b) else None
    ncols = len(a[0])
    red, pivots = rref([row[:] + [b[i]] for i, row in enumerate(a)])
    if pivots and pivots[-1] == ncols:
        return None
    x = zeros(ncols)
    for row, c in zip(red, pivots):
        x[c] = row.get(ncols, Fraction(0))
    return x


class BoundOnce:
    """Attributes that are bound once: setting one that is already there,
    or deleting any, raises AttributeError.  A constructor binds each
    attribute once and a cached_property fills the instance dict
    directly, so both still work; a cached object cannot be changed by
    rebinding what it holds."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only once set")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} cannot be deleted")


class Frame(BoundOnce):
    """Exact coordinates against one basis, from a single reduction.

    The basis rows are vectors.  [B | I] is reduced once to [R | M], so
    R = M B is the reduced form of B.  A vector v in the span is the sum
    of v[p] R_p over the pivot columns p, and its coordinates are the
    sum of v[p] M_p.  ``dual`` maps each pivot column p to the sparse
    M_p, read-only, so coords walks v's entries.  Dependent rows put a
    pivot inside the identity block and raise ValueError.  Both
    attributes are bound once (``BoundOnce``).
    """

    __slots__ = ("basis", "dual")

    def __init__(self, basis):
        rows = list(basis)
        width = 1 + max((j for r in rows for j in r), default=-1)
        red, pivots = rref([{**r, width + k: 1} for k, r in enumerate(rows)])
        if pivots and pivots[-1] >= width:
            raise ValueError("basis rows are linearly dependent")
        self.basis = tuple(tuple(r.items()) for r in rows)
        self.dual = MappingProxyType({
            p: tuple((j - width, x) for j, x in row.items() if j >= width)
            for row, p in zip(red, pivots)
        })

    def coords(self, v: Vec):
        """The coordinates of the vector v, a vector of the spanned space
        (position k for basis row k), or None when the basis does not
        rebuild v, i.e. v lies outside the span."""
        c = collect((k, x * d) for p, x in v.items() if (m := self.dual.get(p)) for k, d in m)
        rebuilt = collect((j, ck * b) for k, ck in c.items() for j, b in self.basis[k])
        return c if rebuilt == v else None

    def require(self, v: Vec, what: str) -> Vec:
        """The coordinates of v; ValueError(what) when v lies outside the span."""
        coords = self.coords(v)
        if coords is None:
            raise ValueError(what)
        return coords


def solve_in_span(basis, target: Vec):
    """Coordinates of the vector target in the span of the basis vectors,
    written out as a list, or None; the basis must be linearly
    independent."""
    coords = Frame(basis).coords(target)
    return None if coords is None else dense(coords, len(basis))


def mat_inverse(a: Mat) -> Mat:
    """Inverse of a square matrix, read row by row as the coordinates of
    the unit vectors against its rows; ValueError when it is singular."""
    frame = Frame(map(_sparse, a))
    return [dense(frame.coords({i: Fraction(1)}), len(a)) for i in range(len(a))]


def rank_sparse(rows_sparse) -> int:
    """Rank of a rational matrix: the number of echelon rows.

    Rows are vectors (or dense lists).
    """
    return len(_echelon(rows_sparse))
