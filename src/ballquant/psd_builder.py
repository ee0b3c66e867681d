"""Builder for iterated semidirect sums of elementary solvable blocks.

A block of size n has basis (H, v_1 .. v_{2(n-1)}, E) with
[H, v] = v, [H, E] = 2E, [v, v'] = Omega(v, v') E and Omega the standard
symplectic matrix in split-half order.  Block r is outermost; an outer
block may act on the V part of any inner block through a prescribed
linear map into the symplectic Lie algebra of that V.  The assembled
structure table goes through full Jacobi validation, so inconsistent
cross actions are rejected at construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .lie_core import CheckReport, LieAlgebra
from .linalg import combine
from .scalars import collect, exact, frac_str, keyed, parse_frac, shaped

if TYPE_CHECKING:
    from .su1n_model import Su1nModel


@dataclass
class PsdSpec:
    r: int
    n: list
    cross_actions: dict = field(default_factory=dict)


@dataclass
class PsdAlgebra:
    spec: PsdSpec
    algebra: LieAlgebra
    blocks: dict  # block number -> {"H": idx, "V": [idx...], "E": idx}


def _block_roles(nj: int):
    return ["H"] + [f"v{i}" for i in range(1, 2 * (nj - 1) + 1)] + ["E"]


def build_psd(spec: PsdSpec) -> PsdAlgebra:
    sizes_ok = all(type(nj) is int and nj >= 1 for nj in spec.n)
    if type(spec.r) is not int or spec.r < 1 or len(spec.n) != spec.r or not sizes_ok:
        raise ValueError(f"spec needs an int r >= 1 and r int block sizes >= 1, got {spec}")
    labels = []
    blocks = {}
    for j in range(spec.r, 0, -1):
        nj = spec.n[j - 1]
        h_idx = len(labels)
        labels.append(f"H{j}")
        v_idx = []
        for i in range(1, 2 * (nj - 1) + 1):
            v_idx.append(len(labels))
            labels.append(f"v{j}_{i}")
        e_idx = len(labels)
        labels.append(f"E{j}")
        blocks[j] = {"H": h_idx, "V": v_idx, "E": e_idx}
    dim = len(labels)

    structure = {}

    def put(i, j, k, coeff):
        key, sign = ((i, j), coeff) if i < j else ((j, i), -coeff)
        structure[key] = collect([(k, sign)], structure.get(key))

    for j in range(1, spec.r + 1):
        b = blocks[j]
        half = len(b["V"]) // 2
        for v in b["V"]:
            put(b["H"], v, v, Fraction(1))
        put(b["H"], b["E"], b["E"], Fraction(2))
        for a in range(half):
            put(b["V"][a], b["V"][half + a], b["E"], Fraction(1))

    for (j, k), maps in (spec.cross_actions or {}).items():
        if type(j) is not int or type(k) is not int or not (1 <= j < k <= spec.r):
            raise ValueError(f"cross action {(j, k)} must map an outer block to an inner one")
        inner = blocks[j]
        nv = len(inner["V"])
        outer_roles = _block_roles(spec.n[k - 1])
        for role, mat in maps.items():
            if role not in outer_roles:
                raise ValueError(f"unknown role {role!r} in block {k}")
            if len(mat) != nv or any(len(row) != nv for row in mat):
                raise ValueError("cross action matrix has the wrong shape")
            src = blocks[k][role[0].upper()] if role in ("H", "E") else blocks[k]["V"][int(role[1:]) - 1]
            for col, v in enumerate(inner["V"]):
                for row in range(nv):
                    c = exact(mat[row][col], f"cross action {(j, k)} {role} entry")
                    if c:
                        put(src, v, inner["V"][row], c)

    algebra = LieAlgebra(dim, labels, structure)
    return PsdAlgebra(spec, algebra, blocks)


def psd_spec_to_json(spec: PsdSpec) -> dict:
    actions = []
    for (j, k), maps in sorted((spec.cross_actions or {}).items()):
        mats = {}
        for role, m in maps.items():
            what = f"cross action {(j, k)} {role} entry"
            mats[role] = [[frac_str(exact(x, what)) for x in row] for row in m]
        actions.append({"inner": j, "outer": k, "maps": mats})
    return {"r": spec.r, "n": list(spec.n), "cross_actions": actions}


def psd_spec_from_json(data: dict) -> PsdSpec:
    def matrix(m):
        rows = shaped(m, list, "a map")
        return [[parse_frac(x) for x in shaped(row, list, "a row")] for row in rows]

    actions = {}
    r, n = keyed(data, "a spec", "r", "n")
    for item in shaped(data.get("cross_actions", []), list, "cross_actions"):
        inner, outer, maps = keyed(item, "a cross action", "inner", "outer", "maps")
        maps = shaped(maps, dict, "maps")
        actions[(inner, outer)] = {role: matrix(m) for role, m in maps.items()}
    return PsdSpec(r, list(shaped(n, list, "n")), actions)


def match_iwasawa(psd: PsdAlgebra, model: Su1nModel) -> CheckReport:
    """Match a single block against the solvable part of the ball model.

    Maps H to the restricted-root generator, the block V to the
    symplectic chart basis of the short root space and E to the
    normalized top root vector, then compares every structure constant.
    """
    from .su1n_model import adapted_s_basis

    if psd.spec.r != 1 or psd.spec.n != [model.N]:
        return CheckReport(False, 0, [("shape", psd.spec.r, psd.spec.n, model.N)])
    H, fs, E = adapted_s_basis(model)
    images = [H] + fs + [E]
    g, s = psd.algebra, model.algebra
    failures = []
    checked = 0
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            checked += 1
            lhs = s.bracket(images[i], images[j])
            coeffs = g.bracket(g.basis_vector(i), g.basis_vector(j))
            if lhs != combine(coeffs, images):
                failures.append((g.labels[i], g.labels[j]))
    return CheckReport(not failures, checked, failures)
