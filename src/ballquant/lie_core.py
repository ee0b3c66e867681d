"""Finite dimensional Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores its bracket as a sparse table over ordered basis
pairs.  Construction validates the Jacobi identity on all basis triples
and refuses invalid tables, so every instance in the rest of the package
is an actual Lie algebra.  Subspaces keep a canonical reduced echelon
basis, which makes equality of subspaces literal list equality.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import is_zero_vec, nullspace, rref, solve_in_span, zeros
from .scalars import frac_str, parse_frac

Scalar = Fraction
Vector = list


@dataclass
class JacobiReport:
    ok: bool
    worst_triple: tuple | None
    residual: Vector | None


def _bracket_raw(dim: int, structure: dict, x: Vector, y: Vector) -> Vector:
    out = zeros(dim)
    for (i, j), coeffs in structure.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, val in coeffs.items():
                out[k] += c * val
    return out


def jacobi_report(dim: int, structure: dict) -> JacobiReport:
    """Check the Jacobi identity of a raw structure table.

    Returns the first failing basis triple (by the lexicographic order,
    with the largest residual reported for that triple) so a failed
    construction can point at the offending relation.
    """
    basis = []
    for i in range(dim):
        e = zeros(dim)
        e[i] = Fraction(1)
        basis.append(e)
    worst = None
    worst_res = None
    for i in range(dim):
        for j in range(i + 1, dim):
            bij = _bracket_raw(dim, structure, basis[i], basis[j])
            for k in range(j + 1, dim):
                term1 = _bracket_raw(dim, structure, bij, basis[k])
                bjk = _bracket_raw(dim, structure, basis[j], basis[k])
                term2 = _bracket_raw(dim, structure, bjk, basis[i])
                bki = _bracket_raw(dim, structure, basis[k], basis[i])
                term3 = _bracket_raw(dim, structure, bki, basis[j])
                res = [a + b + c for a, b, c in zip(term1, term2, term3)]
                if not is_zero_vec(res):
                    if worst is None:
                        worst = (i, j, k)
                        worst_res = res
    if worst is None:
        return JacobiReport(True, None, None)
    return JacobiReport(False, worst, worst_res)


class LieAlgebra:
    """Lie algebra given by rational structure constants.

    structure maps (i, j) with i < j to a sparse map k -> coefficient of
    basis vector k in [e_i, e_j].
    """

    def __init__(self, dim: int, labels: list, structure: dict):
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        clean = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket key {(i, j)}")
            kept = {k: Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0}
            if kept:
                clean[(i, j)] = kept
        self.dim = dim
        self.labels = list(labels)
        self.structure = clean
        rep = jacobi_report(dim, clean)
        if not rep.ok:
            raise ValueError(f"Jacobi identity fails on basis triple {rep.worst_triple}")

    def basis_vector(self, i: int) -> Vector:
        e = zeros(self.dim)
        e[i] = Fraction(1)
        return e

    def bracket(self, x: Vector, y: Vector) -> Vector:
        return _bracket_raw(self.dim, self.structure, x, y)

    def ad(self, x: Vector) -> list:
        """Matrix of ad_x in the basis (columns are [x, e_j])."""
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def check_jacobi(self) -> JacobiReport:
        return jacobi_report(self.dim, self.structure)

    def killing_form(self) -> list:
        ads = [self.ad(self.basis_vector(i)) for i in range(self.dim)]
        n = self.dim
        k = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                tr = Fraction(0)
                a, b = ads[i], ads[j]
                for r in range(n):
                    for c in range(n):
                        if a[r][c] and b[c][r]:
                            tr += a[r][c] * b[c][r]
                k[i][j] = tr
                k[j][i] = tr
        return k

    def killing(self, x: Vector, y: Vector, _form=None) -> Fraction:
        form = _form if _form is not None else self.killing_form()
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = form[i]
                for j, yj in enumerate(y):
                    if yj and row[j]:
                        total += xi * yj * row[j]
        return total

    def to_json(self) -> str:
        brackets = []
        for (i, j) in sorted(self.structure):
            coeffs = {str(k): frac_str(v) for k, v in sorted(self.structure[(i, j)].items())}
            brackets.append({"i": i, "j": j, "coeffs": coeffs})
        return json.dumps(
            {"dim": self.dim, "labels": self.labels, "brackets": brackets},
            sort_keys=True,
        )

    @staticmethod
    def from_json(blob: str) -> "LieAlgebra":
        data = json.loads(blob)
        structure = {}
        for item in data["brackets"]:
            structure[(item["i"], item["j"])] = {
                int(k): parse_frac(v) for k, v in item["coeffs"].items()
            }
        return LieAlgebra(data["dim"], data["labels"], structure)


class Subspace:
    """Subspace of a LieAlgebra with canonical echelon basis."""

    def __init__(self, algebra: LieAlgebra, vectors: list):
        self.algebra = algebra
        red, _ = rref([list(map(Fraction, v)) for v in vectors]) if vectors else ([], [])
        self.basis = red
        self.dim = len(red)

    def contains(self, v: Vector) -> bool:
        return solve_in_span(self.basis, v) is not None

    def coords_of(self, v: Vector):
        return solve_in_span(self.basis, v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.basis))


def span_subspace(algebra: LieAlgebra, vectors: list) -> Subspace:
    return Subspace(algebra, vectors)


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    vecs = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            coeffs = algebra.structure.get((i, j))
            if coeffs:
                v = zeros(algebra.dim)
                for k, val in coeffs.items():
                    v[k] = val
                vecs.append(v)
    return Subspace(algebra, vecs)


def _reduce_mod(sub_red, pivots, v: Vector) -> Vector:
    w = v[:]
    for r, c in enumerate(pivots):
        if w[c]:
            f = w[c]
            w = [a - f * b for a, b in zip(w, sub_red[r])]
    return w


def normalizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Largest subspace n with [n, sub] inside sub."""
    red, pivots = rref(sub.basis) if sub.basis else ([], [])
    rows = []
    for s in (sub.basis or []):
        # condition on x: [x, s] reduces to zero mod sub
        cols = []
        for i in range(algebra.dim):
            cols.append(_reduce_mod(red, pivots, algebra.bracket(algebra.basis_vector(i), s)))
        for k in range(algebra.dim):
            if k in pivots:
                continue
            rows.append([cols[i][k] for i in range(algebra.dim)])
    if not rows:
        return Subspace(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])
    return Subspace(algebra, nullspace(rows, algebra.dim))


def centralizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    rows = []
    for s in (sub.basis or []):
        cols = [algebra.bracket(algebra.basis_vector(i), s) for i in range(algebra.dim)]
        for k in range(algebra.dim):
            rows.append([cols[i][k] for i in range(algebra.dim)])
    if not rows:
        return Subspace(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])
    return Subspace(algebra, nullspace(rows, algebra.dim))


def center(algebra: LieAlgebra) -> Subspace:
    """The centralizer of the whole algebra."""
    whole = Subspace(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])
    return centralizer(algebra, whole)


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same algebra."""
    a, b = s1.basis, s2.basis
    if not a or not b:
        return Subspace(s1.algebra, [])
    n = len(a[0])
    # alpha . a = beta . b  <=>  (alpha, beta) in the kernel of [A^T, -B^T]
    rows = []
    for coord in range(n):
        rows.append([a[i][coord] for i in range(len(a))] + [-b[j][coord] for j in range(len(b))])
    vecs = []
    for sol in nullspace(rows, len(a) + len(b)):
        v = zeros(n)
        for i, c in enumerate(sol[: len(a)]):
            if c:
                v = [vi + c * ai for vi, ai in zip(v, a[i])]
        vecs.append(v)
    return Subspace(s1.algebra, vecs)


def subalgebra(algebra: LieAlgebra, sub: Subspace, labels=None):
    """Restrict the bracket to a bracket-closed subspace.

    Returns the restricted LieAlgebra together with the embedding basis
    (rows are the canonical basis vectors of the subspace inside the
    parent coordinates).  Raises when the subspace is not closed.
    """
    basis = sub.basis
    n = len(basis)
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            b = algebra.bracket(basis[i], basis[j])
            coords = solve_in_span(basis, b)
            if coords is None:
                raise ValueError("subspace is not bracket closed")
            kept = {k: c for k, c in enumerate(coords) if c}
            if kept:
                structure[(i, j)] = kept
    if labels is None:
        labels = [f"b{i}" for i in range(n)]
    return LieAlgebra(n, labels, structure), [row[:] for row in basis]
