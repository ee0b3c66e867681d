"""Finite dimensional Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores its bracket as a read-only sparse table over
ordered basis pairs, also indexed by rows (rows[i][j] = [e_i, e_j]), so
brackets, ad, the Killing form and the Jacobi check touch only nonzero
structure constants.  Vectors are the sparse maps of ``linalg``
(index -> nonzero coefficient), so a bracket reads only the nonzero
coordinates of its arguments and ``ad`` returns sparse rows.
Every instance in the rest of the package is an actual Lie algebra, by
one of two routes.  A table given as numbers (the constructor, hence
``from_json`` and the block algebras of ``psd_builder`` with cross
actions) is swept: the Jacobi identity runs over ``bracket_triples``,
the walk the CE differential also reads, and an invalid table is
refused.  A table whose caller proves Jacobi in its own docstring
(``LieAlgebra.written``: the block algebras of ``psd_builder`` without
cross actions, the su(1, N) model and ``subalgebra`` of an algebra) is
not swept.  Subspaces keep a canonical reduced echelon basis, a tuple
of read-only vectors, which makes equality of subspaces literal tuple
equality.  structure_in reads the structure constants of a list of
vectors, for any bracket, against a Frame over them; subalgebras get
their tables from it.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from types import MappingProxyType

from .linalg import Frame, nullspace, rref, zeros
from .scalars import Record, collect, decimal_index, exact, frac_str, keyed, kept, parse_frac
from .scalars import shaped

Vector = dict
_EMPTY = MappingProxyType({})


class CheckReport(Record):
    """A verifier's outcome: ok, the cases checked and the failing ones."""

    ok: bool
    checked: int
    failures: list


class JacobiReport(Record):
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
    every triple left out.

    A pair i < j with a bracket keeps every k past j.  A pair without one
    keeps the k past j with [e_j, e_k] or [e_k, e_i] nonzero, the entries
    of rows[j] or rows[i] past j (rows are antisymmetric), so its walk
    costs its entries, not dim - j."""
    dim = len(rows)
    later = [sorted(k for k in row if k > j) for j, row in enumerate(rows)]
    for i in range(dim):
        ri, after_i = rows[i], later[i]
        for j in range(i + 1, dim):
            rj, cij = rows[j], ri.get(j, _EMPTY)
            if cij:
                ks = range(j + 1, dim)
            else:
                a, b = after_i[bisect_right(after_i, j):], later[j]
                ks = sorted({*a, *b}) if a and b else a or b
            for k in ks:
                yield (i, j, k), ((cij, k), (rj.get(k, _EMPTY), i), (rows[k].get(i, _EMPTY), j))


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


class LieAlgebra(Record, frozen=True, eq=False):
    """Lie algebra given by int or Fraction structure constants.

    structure maps (i, j) with i < j to a sparse map k -> coefficient of
    basis vector k in [e_i, e_j]; rows is the same table indexed both
    ways (see ``_row_table``).  Both are read-only and the record is
    frozen, so the table the bracket reads cannot drift from the one
    Jacobi validated or ``written``'s caller proved.
    """

    dim: int
    labels: tuple
    rows: tuple
    structure: MappingProxyType

    def __init__(self, dim: int, labels: list, structure: dict):
        clean = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket key {(i, j)}")
            if not all(k in range(dim) for k in coeffs):
                raise ValueError(f"bracket {(i, j)} has a coefficient index outside range({dim})")
            read = ((k, exact(v, f"structure constant {k} of {(i, j)}")) for k, v in coeffs.items())
            nonzero = {k: v for k, v in read if v}
            if nonzero:
                clean[(i, j)] = nonzero
        rep = jacobi_report(dim, clean)
        if not rep.ok:
            raise ValueError(f"Jacobi identity fails on basis triple {rep.worst_triple}")
        self._store(dim, labels, clean)

    @classmethod
    def written(cls, labels: list, structure: dict) -> "LieAlgebra":
        """The algebra of a clean table (keys i < j, nonzero Fractions)
        built without the Jacobi sweep.

        Precondition: the table satisfies Jacobi, and the caller proves
        it in its own docstring.  Nothing at run time can check that
        without the sweep; a test keeps the callers to ``build_psd``,
        ``Su1nModel.algebra`` and ``subalgebra``.
        """
        algebra = cls.__new__(cls)
        algebra._store(len(labels), labels, structure)
        return algebra

    def _store(self, dim: int, labels: list, structure: dict):
        """Keep a clean table: keys i < j below dim, nonzero Fractions."""
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        rows = _row_table(dim, structure)
        table = MappingProxyType({(i, j): rows[i][j] for i, j in structure})
        Record.__init__(self, dim, tuple(labels), rows, table)

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


class Subspace(Record, frozen=True):
    """Span of sparse vectors with a canonical echelon basis: a tuple of
    read-only vectors, which a cached subspace hands out as it is.
    The record is frozen; two subspaces are equal when their bases are."""

    basis: tuple
    dim: int

    def __init__(self, vectors: list):
        basis = tuple(MappingProxyType(r) for r in rref(vectors)[0])
        Record.__init__(self, basis, len(basis))

    @kept
    def frame(self) -> Frame:
        return Frame(self.basis)

    def contains(self, v: Vector) -> bool:
        return self.frame.coords(v) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(tuple(frozenset(r.items()) for r in self.basis))


def span_subspace(vectors: list) -> Subspace:
    return Subspace(vectors)


def centralizer(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Largest subspace c with [c, sub] = 0: the kernel of every row of
    ad s for s in sub, since row k of ad s reads the coefficient of e_k
    in [s, x]."""
    rows = [row for s in sub.basis for row in algebra.ad(s)]
    return Subspace(nullspace(rows, algebra.dim))


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces: the kernel of the functionals that
    vanish on either of them, in Q^m, m one past the largest index of
    either basis (every other coordinate is zero on both)."""
    m = 1 + max((k for v in s1.basis + s2.basis for k in v), default=-1)
    annihilators = nullspace(s1.basis, m) + nullspace(s2.basis, m)
    return Subspace(nullspace(annihilators, m))


def structure_in(frame: Frame, vectors: list, bracket) -> dict:
    """Structure constants of vectors, read by frame, a Frame over them.

    Maps each pair i < j whose bracket is nonzero to its coordinates
    {k: c}; raises ValueError naming the pair when a bracket leaves the
    span.
    """
    structure = {}
    for i, x in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            coords = frame.coords(bracket(x, vectors[j]))
            if coords is None:
                raise ValueError(f"the bracket of vectors {i} and {j} leaves the span")
            if coords:
                structure[(i, j)] = coords
    return structure


def subalgebra(algebra: LieAlgebra, sub: Subspace, labels=None):
    """Restrict the bracket to a bracket-closed subspace.

    Returns the restricted LieAlgebra, stored by ``LieAlgebra.written``,
    together with the embedding basis: the read-only canonical basis of
    the subspace, in parent coordinates.  Raises ValueError when the
    subspace is not bracket closed.

    The table inherits Jacobi from the parent, which was swept or written
    with a proof.  Each bracket of two basis vectors equals the
    combination of basis vectors its coordinates name (sub.frame rebuilds
    it and compares exactly, and refuses a bracket outside the span), and
    the basis vectors are independent.  So e_k -> basis[k] is injective
    and carries the table's bracket to the parent's, and the Jacobiator
    of a basis triple maps to the Jacobiator of its vectors, which is
    zero.
    """
    basis = sub.basis
    labels = [f"b{i}" for i in range(len(basis))] if labels is None else labels
    if len(labels) != len(basis):
        raise ValueError("label count does not match dimension")
    return LieAlgebra.written(labels, structure_in(sub.frame, basis, algebra.bracket)), basis
