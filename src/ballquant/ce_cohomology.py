"""Chevalley-Eilenberg cohomology with trivial coefficients.

Cochains live in degrees 0 to 3 over the chosen basis of a LieAlgebra.
The differential follows the convention

    (delta alpha)(X, Y)   = alpha([X, Y])
    (delta c)(X, Y, Z)    = c([X, Y], Z) + c([Y, Z], X) + c([Z, X], Y)

so one-cochain coboundaries pair a bracket against a linear functional.
The degree-two differential is built once per algebra, one sparse row
per triple of ``lie_core.bracket_triples``, the walk of the Jacobi check
(Jacobi is delta delta = 0); delta, is_cocycle, the second cohomology
dimensions (exact sparse ranks) and the cocycle spaces all read that
table.  For the block algebras (psd_builder) and for the solvable part
of su(1, N) there are closed-form primitives of exact two-cocycles;
both are implemented here together with the pointwise cocycle test they
rest on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from weakref import WeakKeyDictionary

from .lie_core import LieAlgebra, bracket_triples
from .linalg import Frame, bilinear, dense, nullspace, rank_sparse, transpose
from .psd_builder import PsdAlgebra
from .scalars import collect, frac_str, parse_frac
from .su1n_model import Su1nModel, s_submodel


@dataclass
class Cochain:
    """Alternating multilinear form of degree 0..3 on a fixed basis.

    data is a Fraction (degree 0), a list (degree 1), a full
    antisymmetric matrix (degree 2) or a dict keyed by strictly
    increasing index triples (degree 3), where an absent triple means 0.
    """

    degree: int
    dim: int
    data: object


def zero_two_cochain(dim: int) -> Cochain:
    return Cochain(2, dim, [[Fraction(0)] * dim for _ in range(dim)])


def _two_cochain(dim: int, values) -> Cochain:
    """The two-cochain with c(e_i, e_j) = v = -c(e_j, e_i) for each
    ((i, j), v) in values, zero elsewhere."""
    c = zero_two_cochain(dim)
    for (i, j), v in values:
        c.data[i][j] = v
        c.data[j][i] = -v
    return c


def random_two_cochain(dim: int, rng) -> Cochain:
    pairs, _ = _pair_index(dim)
    return _two_cochain(dim, ((p, Fraction(rng.randint(-4, 4))) for p in pairs))


def evaluate_two_cochain(c: Cochain, x: dict, y: dict) -> Fraction:
    return bilinear(c.data, x, y)


def delta(algebra: LieAlgebra, c: Cochain) -> Cochain:
    n = algebra.dim
    if c.degree == 0:
        return Cochain(1, n, [Fraction(0)] * n)
    if c.degree == 1:
        values = (
            (p, sum((s * c.data[t] for t, s in coeffs.items()), Fraction(0)))
            for p, coeffs in algebra.structure.items()
        )
        return _two_cochain(n, values)
    if c.degree == 2:
        v = _upper(c)
        return Cochain(3, n, {t: _pair_sum(row, v) for t, row in _d2_table(algebra)})
    raise ValueError("differential implemented for degrees 0..2 only")


def is_cocycle(algebra: LieAlgebra, c: Cochain) -> bool:
    if c.degree == 2:
        v = _upper(c)
        return not any(_pair_sum(row, v) for _, row in _d2_table(algebra))
    d = delta(algebra, c)
    if d.degree == 2:
        return all(v == 0 for row in d.data for v in row)
    return all(v == 0 for v in d.data)


def _pair_index(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pairs, {p: t for t, p in enumerate(pairs)}


def _d2_row(pidx: dict, terms) -> dict:
    """(delta c) on one triple as pair index -> s: c([e_a, e_b], e_c)
    summed over the terms ([e_a, e_b], c) of ``bracket_triples``."""
    return collect(
        (pidx[(t, other)], s) if t < other else (pidx[(other, t)], -s)
        for coeffs, other in terms
        for t, s in coeffs.items()
        if t != other
    )


_D2_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _d2_table(algebra: LieAlgebra) -> list:
    """The degree-two differential, built once per algebra (its structure
    is read-only): (triple, row) for each triple of ``bracket_triples``,
    in order, row the pair index -> s with (delta c)(triple) = sum of
    s c(pair)."""
    table = _D2_TABLES.get(algebra)
    if table is None:
        _, pidx = _pair_index(algebra.dim)
        table = [(t, _d2_row(pidx, terms)) for t, terms in bracket_triples(algebra.rows)]
        _D2_TABLES[algebra] = table
    return table


def _upper(c: Cochain) -> list:
    """The pair coordinates c(e_i, e_j), i < j, in _pair_index order."""
    return [x for i, row in enumerate(c.data) for x in row[i + 1 :]]


def _pair_sum(row: dict, v: list) -> Fraction:
    """The sum of s v[p] over the (p, s) of row, zero entries of v skipped."""
    return sum((s * v[p] for p, s in row.items() if v[p]), Fraction(0))


def _kernel_cochains(n: int, pairs: list, rows: list) -> list:
    """The two-cochains whose pair coordinates span the kernel of rows."""
    return [
        _two_cochain(n, ((pairs[p], v) for p, v in vec.items()))
        for vec in nullspace(rows, len(pairs))
    ]


def h2_dimension(algebra: LieAlgebra) -> int:
    """dim H^2(g) = dim C^2 - rank(delta_2) - rank(delta_1), all exact."""
    d1_rows = list(algebra.structure.values())
    d2_rows = [row for _, row in _d2_table(algebra)]
    return len(_pair_index(algebra.dim)[0]) - rank_sparse(d2_rows) - rank_sparse(d1_rows)


def cocycle_space(algebra: LieAlgebra) -> list:
    """Basis of the closed two-cochains, as full antisymmetric matrices."""
    pairs, _ = _pair_index(algebra.dim)
    return _kernel_cochains(algebra.dim, pairs, [row for _, row in _d2_table(algebra)])


@dataclass
class CocycleReport:
    ok: bool
    failing_condition: str | None


def check_psd_cocycle_conditions(psd: PsdAlgebra, c: Cochain) -> CocycleReport:
    """Pointwise cocycle test adapted to the block layout.

    A two-cochain is closed exactly when, writing j for an inner block
    and X for basis elements of strictly outer blocks,

      (i)    c(v, E_j) = 0 and 2 c(v, v') = Omega_j(v, v') c(H_j, E_j)
             for v, v' in V_j,
      (ii)   c(X, E_j) = 0,
      (ii')  c(X, v) = c(H_j, [X, v]) for v in V_j,
      (iii)  c(v_k, H_j) = 0 and c(E_k, H_j) = 0 for j < k.

    The H-H pairings are unconstrained, which is where the second
    cohomology lives.
    """
    g = psd.algebra
    M = c.data
    for j in range(1, psd.spec.r + 1):
        bj = psd.blocks[j]
        hj, ej, vj = bj["H"], bj["E"], bj["V"]
        for a in vj:
            if M[a][ej] != 0:
                return CocycleReport(False, "i")
        for a in vj:
            for b in vj:
                omega = g.rows[a].get(b, {}).get(ej, Fraction(0))
                if 2 * M[a][b] != omega * M[hj][ej]:
                    return CocycleReport(False, "i")
        for k in range(j + 1, psd.spec.r + 1):
            bk = psd.blocks[k]
            outer = [bk["H"], bk["E"]] + list(bk["V"])
            for x in outer:
                if M[x][ej] != 0:
                    return CocycleReport(False, "ii")
                for a in vj:
                    bracket = g.rows[x].get(a, {})  # [X, v] as a sparse vector
                    if M[x][a] != sum((s * M[hj][t] for t, s in bracket.items()), Fraction(0)):
                        return CocycleReport(False, "ii'")
            for a in bk["V"]:
                if M[a][hj] != 0:
                    return CocycleReport(False, "iii")
            if M[bk["E"]][hj] != 0:
                return CocycleReport(False, "iii")
    return CocycleReport(True, None)


def coboundary_primitive_psd(psd: PsdAlgebra, c: Cochain) -> Cochain:
    """Explicit alpha with delta alpha = c on a block algebra.

    Requires c closed with vanishing H-H pairings; alpha is supported on
    the V and E directions: alpha(v) = c(H_j, v), alpha(E_j) = c(H_j, E_j)/2.
    """
    g = psd.algebra
    if not is_cocycle(g, c):
        raise ValueError("not a cocycle")
    h_idx = [psd.blocks[j]["H"] for j in range(1, psd.spec.r + 1)]
    if any(c.data[a][b] != 0 for a in h_idx for b in h_idx):
        raise ValueError("cocycle pairs two scaling directions; no primitive of this form")
    alpha = [Fraction(0)] * g.dim
    for j in range(1, psd.spec.r + 1):
        bj = psd.blocks[j]
        for a in bj["V"]:
            alpha[a] = c.data[bj["H"]][a]
        alpha[bj["E"]] = c.data[bj["H"]][bj["E"]] / 2
    return Cochain(1, g.dim, alpha)


def coboundary_primitive_roots(model: Su1nModel, c: Cochain) -> Cochain:
    """Primitive of a two-cocycle on the solvable part a + n of su(1, N).

    On a root vector X of root value t the primitive is
    alpha(X) = c(H_t, X) / t(H_t) = c(H0, X) / t, and alpha vanishes
    on a.  Expressed on the echelon basis of the submodel: alpha takes
    these values on the adapted basis (H, root vectors), so it is read as
    coordinates against the columns of that basis.
    """
    sub = s_submodel(model)
    g = sub.algebra
    if not is_cocycle(g, c):
        raise ValueError("not a cocycle")
    roots = [(t, x) for t, basis in sub.roots for x in basis]
    adapted = [sub.H] + [x for _, x in roots]
    values = collect(
        (1 + k, evaluate_two_cochain(c, sub.H, x) / t) for k, (t, x) in enumerate(roots)
    )
    alpha = Frame(transpose(adapted, g.dim)).coords(values)
    return Cochain(1, g.dim, dense(alpha, g.dim))


def invariant_cocycle_space(model: Su1nModel):
    """Closed two-cochains on a + n killed by the projected compact action.

    The compact part acts on the solvable part through X -> [[Z, X]]_s,
    the bracket followed by the projection along k.  Returns the
    submodel together with a basis of the space of cocycles c with
    c([[Z, X]]_s, Y) + c(X, [[Z, Y]]_s) = 0 for every Z in k.
    """
    sub = s_submodel(model)
    g = sub.algebra
    n = g.dim
    pairs, pidx = _pair_index(n)
    rows = [row for _, row in _d2_table(g)]
    frame = model.iwasawa_frame
    for z in model.k_space.basis:
        # [[Z, e_u]]_s: the s block, positions below n, of the coordinates of
        # [Z, e_u] along g = s + k
        acted = [frame.require(model.algebra.bracket(z, e), "outside g") for e in sub.embedding]
        for u, v in pairs:
            # c([[Z, e_u]]_s, e_v) - c([[Z, e_v]]_s, e_u)
            rows.append(
                collect(
                    (pidx[(p, fixed)], sign * xp) if p < fixed else (pidx[(fixed, p)], -sign * xp)
                    for x, fixed, sign in ((acted[u], v, 1), (acted[v], u, -1))
                    for p, xp in x.items()
                    if p < n and p != fixed
                )
            )
    return sub, _kernel_cochains(n, pairs, rows)


def pullback_cochain(c: Cochain, images: list) -> Cochain:
    """Pull a two-cochain back along the map sending basis i to images[i]."""
    pairs, _ = _pair_index(len(images))
    values = (((i, j), evaluate_two_cochain(c, images[i], images[j])) for i, j in pairs)
    return _two_cochain(len(images), values)


def cochain_to_json(c: Cochain) -> dict:
    if c.degree == 0:
        data = frac_str(c.data)
    elif c.degree == 1:
        data = [frac_str(v) for v in c.data]
    elif c.degree == 2:
        data = [[frac_str(v) for v in row] for row in c.data]
    else:
        data = {f"{i},{j},{k}": frac_str(v) for (i, j, k), v in sorted(c.data.items())}
    return {"degree": c.degree, "dim": c.dim, "data": data}


def cochain_from_json(payload: dict) -> Cochain:
    degree, n = payload["degree"], payload["dim"]
    raw = payload["data"]
    if degree == 0:
        data = parse_frac(raw)
    elif degree == 1:
        data = [parse_frac(v) for v in raw]
        if len(data) != n:
            raise ValueError(f"a one-cochain needs {n} values, got {len(data)}")
    elif degree == 2:
        data = [[parse_frac(v) for v in row] for row in raw]
        square = len(data) == n and all(len(row) == n for row in data)
        if not square or any(data[i][j] != -data[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError(f"a two-cochain needs an antisymmetric {n} x {n} matrix")
    else:
        triples = [tuple(map(int, key.split(","))) for key in raw]
        for t in triples:
            if len(t) != 3 or not 0 <= t[0] < t[1] < t[2] < n:
                raise ValueError(f"a three-cochain key needs i < j < k below {n}, got {t}")
        data = collect(zip(triples, map(parse_frac, raw.values())))
    return Cochain(degree, n, data)
