"""Exact rational linear algebra.

Everything here works over ``fractions.Fraction`` and is fully exact.
There is one elimination, ``_echelon``: a sparse fraction-free forward
elimination that scales each row to coprime integers and never leaves
the integers (rows are divided by the gcd of their entries, not, as in
Bareiss's method, by the previous pivot).  Its pending rows sit in
buckets by leading column, so a pivot step touches only the rows that
hold the pivot column.  The rank is the number of pivot rows.  Back
substitution on those rows, divided by the pivots, gives the reduced
row echelon form; it is unique, so ``rref`` writes it out densely as
canonical subspace bases and ``nullspace`` reads the kernel off the
sparse form.  Coordinates against a basis, inverses
included, come from a ``Frame``, which reduces the basis once and reads
every later vector off its dual; ``Frame.require`` is the read for
vectors that must lie in the span, and raises ValueError with the
caller's message when one does not.  ``solve_linear`` goes through
``rref``.
The change-of-basis steps the rest of the package shares live here too:
``combine`` sums coefficients times vectors, ``bilinear`` evaluates a
bilinear form on two vectors, and ``split_symplectic`` is the one
split-half symplectic matrix [[0, I], [-I, 0]].
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import collect

Vec = list
Mat = list


def zeros(n: int) -> Vec:
    return [Fraction(0)] * n


def identity_matrix(n: int) -> Mat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v)]

def vec_scale(u: Vec, c: Fraction) -> Vec:
    return [a * c for a in u]

def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def combine(coeffs, vectors) -> Vec:
    """The dense sum of c * v over coefficients paired with vectors (at
    least one), skipping zero coefficients and zero entries."""
    out = zeros(len(vectors[0]))
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
    return out


def bilinear(form: Mat, x: Vec, y: Vec) -> Fraction:
    """x^T form y, summed over the nonzero entries only."""
    total = Fraction(0)
    for xi, row in zip(x, form):
        if xi:
            for yj, f in zip(y, row):
                if yj and f:
                    total += xi * yj * f
    return total


def split_symplectic(n: int) -> Mat:
    """The split-half symplectic matrix [[0, I], [-I, 0]] of even size n."""
    half = n // 2
    out = [zeros(n) for _ in range(n)]
    for i in range(half):
        out[i][half + i] = Fraction(1)
        out[half + i][i] = Fraction(-1)
    return out


def _sparse(v) -> dict:
    """A dense list or a dict column -> scalar as a dict of its nonzeros."""
    return {j: x for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _combine(row: dict, pv: int, coef: int, pivot: dict) -> dict:
    """Primitive integer row pv * row - coef * pivot, zeros dropped."""
    new = {j: row.get(j, 0) * pv - coef * pivot.get(j, 0) for j in row.keys() | pivot.keys()}
    return _primitive({j: v for j, v in new.items() if v})


def _echelon(rows) -> list[dict[int, int]]:
    """Fraction-free sparse forward elimination.

    Rows are dicts column -> scalar or dense lists.  Each nonzero row is
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


def _reduced(rows) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Sparse reduced echelon form and its pivot columns.

    Back substitution on the echelon rows, last row first: each row
    eliminates the later pivot columns with the rows already reduced,
    still fraction-free, and is divided by its pivot at the end.
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


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (canonical form, pivots equal to one) and
    the list of pivot column indices.  It is the sparse reduced form of
    the fraction-free elimination, written out as dense rows; the form
    is unique, so subspace bases and everything printed from them do
    not depend on the pivot order the elimination chose.
    """
    red, pivots = _reduced(rows)
    ncols = len(rows[0]) if rows else 0
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(ncols)] for row in red], pivots


def nullspace(rows, ncols: int) -> Mat:
    """Canonical basis of the right kernel of the row matrix.

    Rows are dense lists or sparse dicts column -> scalar.
    """
    red, pivots = _reduced(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = zeros(ncols)
        v[fcol] = Fraction(1)
        for row, pcol in zip(red, pivots):
            if fcol in row:
                v[pcol] = -row[fcol]
        basis.append(v)
    return basis


def solve_linear(a: Mat, b: Vec):
    """One exact solution x of a x = b, or None when inconsistent."""
    if not a:
        return [] if is_zero_vec(b) else None
    ncols = len(a[0])
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    x = zeros(ncols)
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][ncols]
    return x


class Frame:
    """Exact coordinates against one basis, from a single reduction.

    Rows are dense lists or sparse dicts column -> scalar.  [B | I] is
    reduced once to [R | M], so R = M B is the reduced form of B.  A
    vector v in the span is the sum of v[p] R_p over the pivot columns p,
    and its coordinates are the sum of v[p] M_p.  ``dual`` keeps each
    sparse M_p beside p, as tuples.  Dependent rows put a pivot inside
    the identity block and raise ValueError.
    """

    __slots__ = ("basis", "dual")

    def __init__(self, basis):
        rows = [_sparse(b) for b in basis]
        width = 1 + max((j for r in rows for j in r), default=-1)
        red, pivots = _reduced([{**r, width + k: 1} for k, r in enumerate(rows)])
        if pivots and pivots[-1] >= width:
            raise ValueError("basis rows are linearly dependent")
        self.basis = tuple(tuple(r.items()) for r in rows)
        self.dual = tuple(
            (p, tuple((j - width, x) for j, x in row.items() if j >= width))
            for row, p in zip(red, pivots)
        )

    def coords(self, v):
        """Dense coordinates of v, or None when the basis does not rebuild
        v, i.e. v lies outside the span."""
        v = _sparse(v)
        c = zeros(len(self.basis))
        for p, m in self.dual:
            x = v.get(p)
            if x:
                for k, d in m:
                    c[k] += x * d
        rebuilt = collect((j, ck * b) for ck, row in zip(c, self.basis) if ck for j, b in row)
        return c if rebuilt == v else None

    def require(self, v, what: str):
        """The coordinates of v; ValueError(what) when v lies outside the span."""
        coords = self.coords(v)
        if coords is None:
            raise ValueError(what)
        return coords


def solve_in_span(basis: Mat, target: Vec):
    """Coordinates of target in span(basis rows), or None; the rows must be
    linearly independent."""
    return Frame(basis).coords(target)


def mat_inverse(a: Mat) -> Mat:
    """Inverse of a square matrix, read row by row as the coordinates of
    the unit vectors against its rows; ValueError when it is singular."""
    frame = Frame(a)
    return [frame.coords(e) for e in identity_matrix(len(a))]


def rank_sparse(rows_sparse) -> int:
    """Rank of a rational matrix: the number of echelon rows.

    Rows are dicts column -> Fraction (or dense lists).
    """
    return len(_echelon(rows_sparse))
