"""Chevalley-Eilenberg cohomology with trivial coefficients.

Cochains live in degrees 0 to 3 over the chosen basis of a LieAlgebra.
The differential follows the convention

    (delta alpha)(X, Y)   = alpha([X, Y])
    (delta c)(X, Y, Z)    = c([X, Y], Z) + c([Y, Z], X) + c([Z, X], Y)

so one-cochain coboundaries pair a bracket against a linear functional.
Second cohomology dimensions are computed from exact sparse ranks of the
two differentials.  For the block algebras (psd_builder) and for the
solvable part of su(1, N) there are closed-form primitives of exact
two-cocycles; both are implemented here together with the pointwise
cocycle test they rest on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lie_core import LieAlgebra
from .linalg import Frame, bilinear, nullspace, rank_sparse
from .psd_builder import PsdAlgebra
from .scalars import collect, frac_str, parse_frac
from .su1n_model import Su1nModel, iwasawa_project, s_submodel


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


def evaluate_two_cochain(c: Cochain, x: list, y: list) -> Fraction:
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
        pairs, pidx = _pair_index(n)
        data = {}
        for triple in _bracket_triples(algebra):
            total = Fraction(0)
            for p, v in _d2_row(algebra, pidx, *triple).items():
                a, b = pairs[p]
                total += v * c.data[a][b]
            data[triple] = total
        return Cochain(3, n, data)
    raise ValueError("differential implemented for degrees 0..2 only")


def is_cocycle(algebra: LieAlgebra, c: Cochain) -> bool:
    d = delta(algebra, c)
    if d.degree == 3:
        return all(v == 0 for v in d.data.values())
    if d.degree == 2:
        return all(v == 0 for row in d.data for v in row)
    return all(v == 0 for v in d.data)


def _pair_index(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pairs, {p: t for t, p in enumerate(pairs)}


def _d2_row(algebra: LieAlgebra, pidx: dict, i: int, j: int, k: int) -> dict:
    return collect(
        (pidx[(t, other)], s) if t < other else (pidx[(other, t)], -s)
        for a, b, other in ((i, j, k), (j, k, i), (k, i, j))
        for t, s in algebra.rows[a].get(b, {}).items()
        if t != other
    )


def _bracket_triples(algebra: LieAlgebra) -> list:
    """The triples i < j < k, in lexicographic order, with a nonzero
    bracket among two of their elements; the degree-two differential
    vanishes on every other triple."""
    triples = {
        tuple(sorted((i, j, k)))
        for i, j in algebra.structure
        for k in range(algebra.dim)
        if k not in (i, j)
    }
    return sorted(triples)


def _d2_rows(algebra: LieAlgebra, pidx: dict) -> list:
    """The nonzero rows of the degree-two differential, one per triple."""
    rows = (_d2_row(algebra, pidx, *triple) for triple in _bracket_triples(algebra))
    return [row for row in rows if row]


def _kernel_cochains(n: int, pairs: list, rows: list) -> list:
    """The two-cochains whose pair coordinates span the kernel of rows."""
    return [_two_cochain(n, zip(pairs, vec)) for vec in nullspace(rows, len(pairs))]


def h2_dimension(algebra: LieAlgebra) -> int:
    """dim H^2(g) = dim C^2 - rank(delta_2) - rank(delta_1), all exact."""
    pairs, pidx = _pair_index(algebra.dim)
    d1_rows = [dict(coeffs) for coeffs in algebra.structure.values()]
    return len(pairs) - rank_sparse(_d2_rows(algebra, pidx)) - rank_sparse(d1_rows)


def cocycle_space(algebra: LieAlgebra) -> list:
    """Basis of the closed two-cochains, as full antisymmetric matrices."""
    pairs, pidx = _pair_index(algebra.dim)
    return _kernel_cochains(algebra.dim, pairs, _d2_rows(algebra, pidx))


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
    adapted = [sub.H]
    values = [Fraction(0)]
    for t, basis in sub.roots:
        for x in basis:
            adapted.append(x)
            values.append(evaluate_two_cochain(c, sub.H, x) / t)
    alpha = Frame(list(zip(*adapted))).coords(values)
    return Cochain(1, g.dim, alpha)


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
    rows = _d2_rows(g, pidx)
    for z in model.k_space.basis:
        acted = []
        for u in range(n):
            xs, _ = iwasawa_project(model, model.algebra.bracket(z, sub.embedding[u]))
            acted.append(sub.to_sub(xs))
        for u, v in pairs:
            # c([[Z, e_u]]_s, e_v) - c([[Z, e_v]]_s, e_u)
            rows.append(
                collect(
                    (pidx[(p, fixed)], sign * xp) if p < fixed else (pidx[(fixed, p)], -sign * xp)
                    for x, fixed, sign in ((acted[u], v, 1), (acted[v], u, -1))
                    for p, xp in enumerate(x)
                    if xp and p != fixed
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
    degree = payload["degree"]
    raw = payload["data"]
    if degree == 0:
        data = parse_frac(raw)
    elif degree == 1:
        data = [parse_frac(v) for v in raw]
    elif degree == 2:
        data = [[parse_frac(v) for v in row] for row in raw]
    else:
        data = {
            tuple(int(t) for t in key.split(",")): parse_frac(v) for key, v in raw.items()
        }
    return Cochain(degree, payload["dim"], data)
