"""Finite dimensional Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores its bracket as a read-only sparse table over
ordered basis pairs, also indexed by rows (rows[i][j] = [e_i, e_j]), so
brackets, ad, the Killing form and the Jacobi check touch only nonzero
structure constants.  Construction validates the Jacobi identity on all
basis triples and refuses invalid tables, so every instance in the rest
of the package is an actual Lie algebra.  Subspaces keep a canonical reduced echelon
basis, which makes equality of subspaces literal list equality.
structure_in reads the structure constants of any list of vectors
against a Frame, for any bracket; the su(1, N) model, subalgebras and
the moment table all get theirs from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .linalg import Frame, combine, nullspace, rref, zeros
from .scalars import frac_str, parse_frac

Scalar = Fraction
Vector = list


@dataclass
class CheckReport:
    """A verifier's outcome: ok, the cases checked and the failing ones."""

    ok: bool
    checked: int
    failures: list


@dataclass
class JacobiReport:
    ok: bool
    worst_triple: tuple | None
    residual: Vector | None


def _row_table(dim: int, structure) -> tuple:
    """Antisymmetric read-only rows: rows[i][j] maps k to the coefficient
    of e_k in [e_i, e_j] for i != j; pairs with a zero bracket are absent.
    Row i < j shares its coefficient map with structure[(i, j)]."""
    rows = [{} for _ in range(dim)]
    for (i, j), coeffs in structure.items():
        rows[i][j] = MappingProxyType(coeffs)
        rows[j][i] = MappingProxyType({k: -v for k, v in coeffs.items()})
    return tuple(MappingProxyType(r) for r in rows)


def jacobi_report(dim: int, structure) -> JacobiReport:
    """Check the Jacobi identity of a raw structure table.

    Contracts c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m over the basis
    triples i < j < k in lexicographic order, skipping triples whose three
    brackets all vanish.  Reports the first failing triple with the
    residual of that triple as a dense vector, so a failed construction
    can point at the offending relation.
    """
    rows = _row_table(dim, structure)
    empty = {}
    for i in range(dim):
        ri = rows[i]
        for j in range(i + 1, dim):
            rj = rows[j]
            cij = ri.get(j)
            for k in range(j + 1, dim):
                cjk, cki = rj.get(k), rows[k].get(i)
                if not (cij or cjk or cki):
                    continue
                res = {}
                for c, last in ((cij, k), (cjk, i), (cki, j)):
                    for l, a in (c or empty).items():
                        for m, b in rows[l].get(last, empty).items():
                            res[m] = res.get(m, 0) + a * b
                if any(res.values()):
                    residual = zeros(dim)
                    for m, v in res.items():
                        residual[m] = v
                    return JacobiReport(False, (i, j, k), residual)
    return JacobiReport(True, None, None)


class LieAlgebra:
    """Lie algebra given by rational structure constants.

    structure maps (i, j) with i < j to a sparse map k -> coefficient of
    basis vector k in [e_i, e_j]; rows is the same table indexed both
    ways (see ``_row_table``).  Both are read-only, so the table the
    bracket reads cannot drift from the one Jacobi validated.
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
        rep = jacobi_report(dim, clean)
        if not rep.ok:
            raise ValueError(f"Jacobi identity fails on basis triple {rep.worst_triple}")
        self.dim = dim
        self.labels = list(labels)
        self.rows = _row_table(dim, clean)
        self.structure = MappingProxyType({(i, j): self.rows[i][j] for i, j in clean})

    def basis_vector(self, i: int) -> Vector:
        e = zeros(self.dim)
        e[i] = Fraction(1)
        return e

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out = zeros(self.dim)
        for i, xi in enumerate(x):
            if xi:
                for j, coeffs in self.rows[i].items():
                    yj = y[j]
                    if yj:
                        c = xi * yj
                        for k, v in coeffs.items():
                            out[k] += c * v
        return out

    def ad(self, x: Vector) -> list:
        """Matrix of ad_x in the basis (columns are [x, e_j])."""
        out = [zeros(self.dim) for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if xi:
                for j, coeffs in self.rows[i].items():
                    for k, v in coeffs.items():
                        out[k][j] += xi * v
        return out

    def check_jacobi(self) -> JacobiReport:
        return jacobi_report(self.dim, self.structure)

    def killing_form(self) -> list:
        """B_ij = tr(ad e_i ad e_j) = sum over k, l of c_ik^l c_jl^k."""
        n = self.dim
        form = [zeros(n) for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rj = self.rows[j]
                tr = Fraction(0)
                for k, coeffs in self.rows[i].items():
                    for l, c in coeffs.items():
                        d = rj.get(l)
                        if d and k in d:
                            tr += c * d[k]
                form[i][j] = form[j][i] = tr
        return form

    def to_json(self) -> dict:
        brackets = [
            {"i": i, "j": j, "coeffs": {str(k): frac_str(v) for k, v in coeffs.items()}}
            for (i, j), coeffs in sorted(self.structure.items())
        ]
        return {"dim": self.dim, "labels": list(self.labels), "brackets": brackets}

    @staticmethod
    def from_json(data: dict) -> "LieAlgebra":
        structure = {
            (item["i"], item["j"]): {int(k): parse_frac(v) for k, v in item["coeffs"].items()}
            for item in data["brackets"]
        }
        return LieAlgebra(data["dim"], data["labels"], structure)


class Subspace:
    """Subspace of a LieAlgebra with canonical echelon basis."""

    def __init__(self, algebra: LieAlgebra, vectors: list):
        self.algebra = algebra
        self.basis, _ = rref(vectors)
        self.dim = len(self.basis)

    @cached_property
    def frame(self) -> Frame:
        return Frame(self.basis)

    def contains(self, v: Vector) -> bool:
        return self.frame.coords(v) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.basis))


def span_subspace(algebra: LieAlgebra, vectors: list) -> Subspace:
    return Subspace(algebra, vectors)


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    """[g, g]: the span of the nonzero brackets of basis vectors."""
    rows = [[c.get(k, 0) for k in range(algebra.dim)] for c in algebra.structure.values()]
    return Subspace(algebra, rows)


def _killed_by(algebra: LieAlgebra, sub: Subspace, functionals: list) -> Subspace:
    """The x with f([x, s]) = 0 for every s in sub and f in functionals.

    Functionals are sparse dicts k -> coefficient of coordinate k.  The
    row of (s, f) is f applied to the columns [s, e_i] of ad s, which is
    -f([e_i, s]) and has the same kernel.
    """
    rows = []
    for s in sub.basis:
        ad_s = algebra.ad(s)
        for f in functionals:
            rows.append([sum(c * ad_s[k][i] for k, c in f.items()) for i in range(algebra.dim)])
    return Subspace(algebra, nullspace(rows, algebra.dim))


def normalizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Largest subspace n with [n, sub] inside sub: the annihilator of sub
    vanishes on [n, sub]."""
    annihilator = [{k: c for k, c in enumerate(f) if c} for f in nullspace(sub.basis, algebra.dim)]
    return _killed_by(algebra, sub, annihilator)


def centralizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Largest subspace c with [c, sub] = 0: every coordinate vanishes."""
    return _killed_by(algebra, sub, [{k: Fraction(1)} for k in range(algebra.dim)])


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
    vecs = [combine(sol[: len(a)], a) for sol in nullspace(rows, len(a) + len(b))]
    return Subspace(s1.algebra, vecs)


def structure_in(frame: Frame, vectors: list, bracket) -> dict:
    """Structure constants of vectors read in frame.

    Maps each pair i < j whose bracket is nonzero to its nonzero
    coordinates {k: c} against the frame basis; raises ValueError naming
    the pair when a bracket leaves the span.
    """
    structure = {}
    for i, x in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            coords = frame.coords(bracket(x, vectors[j]))
            if coords is None:
                raise ValueError(f"the bracket of vectors {i} and {j} leaves the span")
            kept = {k: c for k, c in enumerate(coords) if c}
            if kept:
                structure[(i, j)] = kept
    return structure


def subalgebra(algebra: LieAlgebra, sub: Subspace, labels=None):
    """Restrict the bracket to a bracket-closed subspace.

    Returns the restricted LieAlgebra together with the embedding basis
    (rows are the canonical basis vectors of the subspace inside the
    parent coordinates).  Raises ValueError when the subspace is not
    bracket closed.
    """
    basis = sub.basis
    n = len(basis)
    structure = structure_in(sub.frame, basis, algebra.bracket)
    if labels is None:
        labels = [f"b{i}" for i in range(n)]
    return LieAlgebra(n, labels, structure), [row[:] for row in basis]
