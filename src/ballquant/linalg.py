"""Exact rational linear algebra.

Everything here works over ``fractions.Fraction`` and is fully exact.
Dense reduced row echelon form gives canonical subspace bases; the
sparse fraction-free elimination computes ranks of the large integer
matrices that show up in cohomology without ever leaving the integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (canonical form, pivots equal to one) and
    the list of pivot column indices.
    """
    m = [row[:] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pick = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pick = i
                break
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows: Mat, ncols: int) -> Mat:
    """Canonical basis of the right kernel of the row matrix."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = zeros(ncols)
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -red[r][fcol]
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


def _int_rows(rows_sparse) -> list[dict[int, int]]:
    out = []
    for row in rows_sparse:
        if not row:
            continue
        denom = 1
        for x in row.values():
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = {j: int(x * denom) for j, x in row.items() if x}
        if not ints:
            continue
        g = 0
        for v in ints.values():
            g = gcd(g, abs(v))
        if g > 1:
            ints = {j: v // g for j, v in ints.items()}
        out.append(ints)
    return out


def rank_sparse(rows_sparse) -> int:
    """Rank of a sparse rational matrix via fraction-free elimination.

    Rows are dicts column -> Fraction.  Rows are scaled to coprime
    integers and eliminated with integer cross multiplication, keeping
    every intermediate value exact.
    """
    pending = _int_rows(rows_sparse)
    rank = 0
    while pending:
        # sparsest row among those with the smallest leading column
        lead = min(min(r) for r in pending)
        pivot = min((r for r in pending if r.get(lead)), key=len)
        pending.remove(pivot)
        rank += 1
        pv = pivot[lead]
        nxt = []
        for r in pending:
            coef = r.get(lead)
            if coef:
                new = {}
                for j in r.keys() | pivot.keys():
                    val = r.get(j, 0) * pv - coef * pivot.get(j, 0)
                    if val:
                        new[j] = val
                if new:
                    g = 0
                    for v in new.values():
                        g = gcd(g, abs(v))
                    if g > 1:
                        new = {j: v // g for j, v in new.items()}
                    nxt.append(new)
            else:
                nxt.append(r)
        pending = nxt
    return rank


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
