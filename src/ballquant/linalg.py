"""Exact rational linear algebra.

Everything here works over ``fractions.Fraction`` and is fully exact.
There is one elimination, ``_echelon``: a sparse fraction-free forward
elimination that scales each row to coprime integers and never leaves
the integers (rows are divided by the gcd of their entries, not, as in
Bareiss's method, by the previous pivot, so no determinant survives;
``_det`` keeps its own loop).  The rank is the number of pivot rows.
Back substitution on those rows, divided by the pivots, gives the
reduced row echelon form; it is unique, so ``rref`` writes it out densely
as canonical subspace bases and ``nullspace`` reads the kernel off the
sparse form.  Solving and inversion go through ``rref``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = list
Mat = list


def zeros(n: int) -> Vec:
    return [Fraction(0)] * n


def identity_matrix(n: int) -> Mat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += x * bk[j]
    return out


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v)]

def vec_sub(u: Vec, v: Vec) -> Vec:
    return [a - b for a, b in zip(u, v)]

def vec_scale(u: Vec, c: Fraction) -> Vec:
    return [a * c for a in u]

def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


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
    Returns integer pivot rows in order of increasing leading column.
    """
    pending = []
    for row in rows:
        items = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x]
        if items:
            denom = lcm(*(x.denominator for _, x in items))
            row = {j: x.numerator * (denom // x.denominator) for j, x in items}
            pending.append(_primitive(row))
    out = []
    while pending:
        # sparsest row among those with the smallest leading column
        lead = min(min(r) for r in pending)
        pivot = min((r for r in pending if lead in r), key=len)
        pending.remove(pivot)
        out.append(pivot)
        pending = [_combine(r, pivot[lead], r[lead], pivot) if lead in r else r for r in pending]
        pending = [r for r in pending if r]
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


def solve_in_span(basis: Mat, target: Vec):
    """Coordinates of target in span(basis rows), or None."""
    if not basis:
        return [] if is_zero_vec(target) else None
    n = len(target)
    cols = [[basis[k][i] for k in range(len(basis))] for i in range(n)]
    return solve_linear(cols, target)


def mat_inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [a[i][:] + identity_matrix(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def rank_sparse(rows_sparse) -> int:
    """Rank of a rational matrix: the number of echelon rows.

    Rows are dicts column -> Fraction (or dense lists).
    """
    return len(_echelon(rows_sparse))


def leading_principal_minors(a: Mat) -> list[Fraction]:
    """Determinants of the k x k leading blocks for k = 1..n."""
    n = len(a)
    out = []
    for k in range(1, n + 1):
        block = [row[:k] for row in a[:k]]
        out.append(_det(block))
    return out


def _det(a: Mat) -> Fraction:
    m = [row[:] for row in a]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pick = None
        for i in range(c, n):
            if m[i][c] != 0:
                pick = i
                break
        if pick is None:
            return Fraction(0)
        if pick != c:
            m[c], m[pick] = m[pick], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det
