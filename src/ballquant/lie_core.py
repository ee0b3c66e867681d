"""Finite dimensional Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores its bracket as a read-only sparse table over
ordered basis pairs, also indexed by rows (rows[i][j] = [e_i, e_j]), so
brackets, ad, the Killing form and the Jacobi check touch only nonzero
structure constants.  Vectors are the sparse maps of ``linalg``
(index -> nonzero coefficient), so a bracket reads only the nonzero
coordinates of its arguments and ``ad`` returns sparse rows.
Every instance in the rest of the package is an actual Lie algebra, by
one of two routes.  A table given as numbers (the constructor, hence
``from_json`` and the block algebras of ``psd_builder``) is swept: the
Jacobi identity runs over ``bracket_triples``, the walk the CE
differential also reads, and an invalid table is refused.  A table read
from a bracket that already satisfies Jacobi (``LieAlgebra.read``: the
matrix commutator of the su(1, N) model, and ``subalgebra`` of an
algebra) is certified by how it was read and is not swept.  Subspaces
keep a canonical reduced echelon basis, a tuple of read-only vectors,
which makes equality of subspaces literal tuple equality.
structure_in reads the structure constants of any list of vectors
against a Frame, for any bracket; the su(1, N) model and subalgebras get
theirs from it, and the ball chart reads its pairs one at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .linalg import BoundOnce, Frame, combine, nullspace, rref, zeros
from .scalars import collect, decimal_index, frac_str, keyed, parse_frac, shaped

Vector = dict
_EMPTY = MappingProxyType({})


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


def bracket_triples(rows):
    """The basis triples i < j < k, in lexicographic order, with a nonzero
    bracket among two of their elements, each with its terms (rows[a][b], c)
    for (a, b, c) = (i, j, k), (j, k, i), (k, i, j).  The Jacobiator and
    the degree-two CE differential sum over these terms and vanish on
    every triple left out."""
    dim = len(rows)
    for i in range(dim):
        ri = rows[i]
        for j in range(i + 1, dim):
            rj = rows[j]
            cij = ri.get(j, _EMPTY)
            for k in range(j + 1, dim):
                cjk, cki = rj.get(k, _EMPTY), rows[k].get(i, _EMPTY)
                if cij or cjk or cki:
                    yield (i, j, k), ((cij, k), (cjk, i), (cki, j))


def jacobi_report(dim: int, structure) -> JacobiReport:
    """Check the Jacobi identity of a raw structure table.

    Contracts c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m over the
    triples of ``bracket_triples``.  Reports the first failing triple
    with the residual of that triple as a vector, so a failed
    construction can point at the offending relation.
    """
    rows = _row_table(dim, structure)
    for triple, terms in bracket_triples(rows):
        res = {}
        for c, last in terms:
            for l, a in c.items():
                for m, b in rows[l].get(last, _EMPTY).items():
                    res[m] = res.get(m, 0) + a * b
        if any(res.values()):
            return JacobiReport(False, triple, {m: v for m, v in res.items() if v})
    return JacobiReport(True, None, None)


class LieAlgebra(BoundOnce):
    """Lie algebra given by rational structure constants.

    structure maps (i, j) with i < j to a sparse map k -> coefficient of
    basis vector k in [e_i, e_j]; rows is the same table indexed both
    ways (see ``_row_table``).  Both are read-only and every attribute
    is bound once (``BoundOnce``), so the table the bracket reads cannot
    drift from the one Jacobi validated or ``read`` certified.
    """

    def __init__(self, dim: int, labels: list, structure: dict):
        clean = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket key {(i, j)}")
            if not all(k in range(dim) for k in coeffs):
                raise ValueError(f"bracket {(i, j)} has a coefficient index outside range({dim})")
            kept = {k: Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0}
            if kept:
                clean[(i, j)] = kept
        rep = jacobi_report(dim, clean)
        if not rep.ok:
            raise ValueError(f"Jacobi identity fails on basis triple {rep.worst_triple}")
        self._store(dim, labels, clean)

    @classmethod
    def read(cls, frame: Frame, vectors: list, bracket, labels: list) -> "LieAlgebra":
        """The algebra on vectors with the table that ``structure_in``
        reads from bracket against frame, built without the Jacobi sweep.

        Precondition: bracket is a matrix commutator or the bracket of a
        LieAlgebra, its values written through a linear injective map phi
        (the identity, or the real and imaginary parts of the matrix
        entries), and the rows of frame are phi of the vectors.  Such a
        bracket satisfies Jacobi: a commutator by the associativity of the
        matrix product, the bracket of a LieAlgebra because that algebra
        was swept or read this way.

        The table then satisfies it too.  ``Frame.coords`` rebuilds each
        bracket from the coordinates it returns and compares the two
        exactly, a bracket that leaves the span raises ValueError, and a
        Frame refuses dependent rows.  So e_k -> vectors[k] is injective
        and carries the table's bracket to bracket, and the Jacobiator of
        a basis triple maps to the Jacobiator of its vectors, which is
        zero.  The precondition cannot be checked at run time; a test
        keeps the callers to ``build_su1n`` and ``subalgebra``.
        """
        algebra = cls.__new__(cls)
        algebra._store(len(vectors), labels, structure_in(frame, vectors, bracket))
        return algebra

    def _store(self, dim: int, labels: list, structure: dict):
        """Keep a clean table: keys i < j below dim, nonzero Fractions."""
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        self.dim = dim
        self.labels = tuple(labels)
        self.rows = _row_table(dim, structure)
        self.structure = MappingProxyType({(i, j): self.rows[i][j] for i, j in structure})

    def basis_vector(self, i: int) -> Vector:
        return {i: Fraction(1)}

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out = {}
        for i, xi in x.items():
            row = self.rows[i]
            for j, yj in y.items():
                coeffs = row.get(j)
                if coeffs:
                    c = xi * yj
                    for k, v in coeffs.items():
                        out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def ad(self, x: Vector) -> list:
        """ad_x as sparse rows: row k maps j to the coefficient of e_k in
        [x, e_j], the sum over x's coordinates i of x_i rows[i][j][k]."""
        out = [{} for _ in range(self.dim)]
        for i, xi in x.items():
            for j, coeffs in self.rows[i].items():
                for k, v in coeffs.items():
                    out[k][j] = out[k].get(j, 0) + xi * v
        return [{j: v for j, v in row.items() if v} for row in out]

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
        """The algebra of a to_json dict; repeated pair entries are summed."""
        dim, labels, brackets = keyed(data, "an algebra", "dim", "labels", "brackets")
        if type(dim) is not int:
            raise ValueError(f"dim must be an int, got {dim!r}")
        structure = {}
        for item in shaped(brackets, list, "brackets"):
            i, j, coeffs = keyed(item, "a bracket", "i", "j", "coeffs")
            key = (i, j)
            if any(type(x) is not int for x in key):
                raise ValueError(f"bracket indices must be ints, got {key!r}")
            coeffs = shaped(coeffs, dict, "bracket coeffs").items()
            coeffs = ((decimal_index(k, "a coefficient key"), parse_frac(v)) for k, v in coeffs)
            structure[key] = collect(coeffs, structure.get(key))
        return LieAlgebra(dim, shaped(labels, list, "labels"), structure)


class Subspace(BoundOnce):
    """Subspace of a LieAlgebra with a canonical echelon basis: a tuple
    of read-only vectors, which a cached subspace hands out as it is.
    Its attributes are bound once (``BoundOnce``)."""

    def __init__(self, algebra: LieAlgebra, vectors: list):
        self.algebra = algebra
        self.basis = tuple(MappingProxyType(r) for r in rref(vectors)[0])
        self.dim = len(self.basis)

    @cached_property
    def frame(self) -> Frame:
        return Frame(self.basis)

    def contains(self, v: Vector) -> bool:
        return self.frame.coords(v) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(tuple(frozenset(r.items()) for r in self.basis))


def span_subspace(algebra: LieAlgebra, vectors: list) -> Subspace:
    return Subspace(algebra, vectors)


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    """[g, g]: the span of the nonzero brackets of basis vectors."""
    return Subspace(algebra, list(algebra.structure.values()))


def _killed_by(algebra: LieAlgebra, sub: Subspace, functionals: list) -> Subspace:
    """The x with f([x, s]) = 0 for every s in sub and f in functionals.

    Functionals are sparse dicts k -> coefficient of coordinate k.  The
    row of (s, f) is the combination of the rows of ad s that f weighs,
    i -> f([s, e_i]), which is -f([e_i, s]) and has the same kernel.
    """
    rows = [combine(f, ad_s) for ad_s in map(algebra.ad, sub.basis) for f in functionals]
    return Subspace(algebra, nullspace(rows, algebra.dim))


def normalizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Largest subspace n with [n, sub] inside sub: the annihilator of sub
    vanishes on [n, sub]."""
    return _killed_by(algebra, sub, nullspace(sub.basis, algebra.dim))


def centralizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Largest subspace c with [c, sub] = 0: every coordinate vanishes."""
    return _killed_by(algebra, sub, [{k: Fraction(1)} for k in range(algebra.dim)])


def center(algebra: LieAlgebra) -> Subspace:
    """The centralizer of the whole algebra."""
    whole = Subspace(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])
    return centralizer(algebra, whole)


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same algebra: the kernel of
    the functionals that vanish on either of them."""
    dim = s1.algebra.dim
    annihilators = nullspace(s1.basis, dim) + nullspace(s2.basis, dim)
    return Subspace(s1.algebra, nullspace(annihilators, dim))


def structure_in(frame: Frame, vectors: list, bracket) -> dict:
    """Structure constants of vectors read in frame.

    Maps each pair i < j whose bracket is nonzero to its coordinates
    {k: c} against the frame basis; raises ValueError naming
    the pair when a bracket leaves the span.
    """
    structure = {}
    for i, x in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            what = f"the bracket of vectors {i} and {j} leaves the span"
            coords = frame.require(bracket(x, vectors[j]), what)
            if coords:
                structure[(i, j)] = coords
    return structure


def subalgebra(algebra: LieAlgebra, sub: Subspace, labels=None):
    """Restrict the bracket to a bracket-closed subspace.

    Returns the restricted LieAlgebra, read from the parent's bracket
    (so not swept again), together with the embedding basis: the
    read-only canonical basis of the subspace, in parent coordinates.
    Raises ValueError when the subspace is not bracket closed.
    """
    basis = sub.basis
    if labels is None:
        labels = [f"b{i}" for i in range(len(basis))]
    return LieAlgebra.read(sub.frame, basis, algebra.bracket, labels), basis
