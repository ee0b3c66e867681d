"""Rank one pseudo-unitary Lie algebra model.

Builds su(1, N) as a real Lie algebra with exact rational structure
constants.  Elements are trace-free complex matrices X with
X^* J + J X = 0 for J = diag(-1, 1, ..., 1).  The Cartan involution is
conjugation by J; its +1 eigenspace k is the maximal compact part and
the -1 eigenspace p contains the restricted-root generator
H0 = E_01 + E_10, whose adjoint action has rational eigenvalues
(+-2, +-1, 0).  All subspaces of the restricted-root decomposition are
computed exactly.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .lie_core import (
    CheckReport,
    LieAlgebra,
    Subspace,
    span_subspace,
    structure_in,
    subalgebra,
    subspace_intersection,
)
from .linalg import Frame, bilinear, combine, dense, nullspace, split_symplectic, vec_add, vec_scale
from .scalars import G_ZERO, GScalar, frac_str


def _comm(a: dict, b: dict) -> dict:
    """ab - ba for sparse matrices (row, col) -> GScalar, zeros dropped."""
    out = {}
    for (i, k), x in a.items():
        for (l, j), y in b.items():
            if k == l:
                out[(i, j)] = out.get((i, j), G_ZERO) + x * y
            if j == i:
                out[(l, k)] = out.get((l, k), G_ZERO) - y * x
    return {e: x for e, x in out.items() if x}


def _flatten(m: dict, n: int) -> dict:
    """Real parts, then imaginary parts, of the entries of an n x n sparse
    matrix row by row, as a sparse vector: position -> nonzero value."""
    flat = {i * n + j: e.re for (i, j), e in m.items()}
    flat.update({n * n + i * n + j: e.im for (i, j), e in m.items()})
    return {t: x for t, x in flat.items() if x}


def _check_su1n(m: dict) -> bool:
    """Trace free with X^* J + J X = 0 for J = diag(-1, 1, ..., 1)."""
    if sum((e for (i, j), e in m.items() if i == j), G_ZERO):
        return False
    sign = lambda i: -1 if i == 0 else 1
    return not any(
        m.get((j, i), G_ZERO).conj().scale(sign(j)) + m.get((i, j), G_ZERO).scale(sign(i))
        for i, j in set(m) | {(j, i) for i, j in m}
    )


def _basis_matrices(N: int):
    one = GScalar.of(1)
    im = GScalar.of(0, 1)
    mats, labels, signs = [], [], []

    def add(label, sign, m):
        mats.append(m)
        labels.append(label)
        signs.append(Fraction(sign))

    for j in range(N):
        add(f"D{j}", 1, {(j, j): im, (j + 1, j + 1): -im})
    for k in range(1, N + 1):
        add(f"P{k}", -1, {(0, k): one, (k, 0): one})
    for k in range(1, N + 1):
        add(f"Q{k}", -1, {(0, k): im, (k, 0): -im})
    for j in range(1, N + 1):
        for k in range(j + 1, N + 1):
            add(f"R{j}_{k}", 1, {(j, k): one, (k, j): -one})
            add(f"S{j}_{k}", 1, {(j, k): im, (k, j): im})
    return mats, labels, signs


@dataclass
class RootDatum:
    """One restricted-root space with its coroot.

    lambda_of_H lists the root value on each basis vector of a (here a is
    one dimensional).  H_lambda is the unique element of a representing
    the root functional through the Killing form.
    """

    lambda_of_H: list
    space: Subspace
    H_lambda: MappingProxyType


@dataclass
class Su1nModel:
    N: int
    algebra: LieAlgebra
    sigma_diagonal: tuple
    k_space: Subspace
    p_space: Subspace
    a_space: Subspace
    n_space: Subspace
    m_space: Subspace
    s_space: Subspace
    roots: list
    H0: MappingProxyType
    beta: tuple
    beta_H0: Fraction
    matrices: tuple

    def apply_sigma(self, x: dict) -> dict:
        return {j: self.sigma_diagonal[j] * xj for j, xj in x.items()}

    def beta_form(self, x: dict, y: dict) -> Fraction:
        return bilinear(self.beta, x, y)

    def beta_sigma(self, x: dict, y: dict) -> Fraction:
        return -self.beta_form(x, self.apply_sigma(y))

    @cached_property
    def iwasawa_frame(self) -> Frame:
        """Coordinates along the direct sum g = s + k, s basis first."""
        return Frame(self.s_space.basis + self.k_space.basis)


@lru_cache(maxsize=None)
def build_su1n(N: int) -> Su1nModel:
    """Construct the su(1, N) model; results are cached.  Every vector of
    the model (the subspace bases, H0 and each H_lambda) is a read-only
    map, and the structure table, beta, sigma_diagonal and matrices are
    read-only at every level, so callers use them without copying."""
    if N < 1:
        raise ValueError("N must be at least 1")
    mats, labels, signs = _basis_matrices(N)
    if not all(_check_su1n(m) for m in mats):
        raise AssertionError("basis matrix leaves su(1,N)")
    n = N + 1
    frame = Frame([_flatten(m, n) for m in mats])
    dim = len(mats)
    structure = structure_in(frame, mats, lambda a, b: _flatten(_comm(a, b), n))
    algebra = LieAlgebra(dim, labels, structure)

    h0_index = N  # label P1
    H0 = MappingProxyType(algebra.basis_vector(h0_index))
    beta = algebra.killing_form()
    beta_H0 = beta[h0_index][h0_index]

    k_space = span_subspace(algebra, [algebra.basis_vector(i) for i in range(dim) if signs[i] == 1])
    p_space = span_subspace(algebra, [algebra.basis_vector(i) for i in range(dim) if signs[i] == -1])
    a_space = span_subspace(algebra, [H0])

    ad_h0 = algebra.ad(H0)
    roots = []
    for t in map(Fraction, (2, 1, 0, -1, -2)):
        shifted = [vec_add(row, {i: -t}) for i, row in enumerate(ad_h0)]
        space = span_subspace(algebra, nullspace(shifted, dim))
        if space.dim:
            roots.append(RootDatum([t], space, MappingProxyType(vec_scale(H0, t / beta_H0))))
    if sum(r.space.dim for r in roots) != dim:
        raise AssertionError("restricted-root spaces do not fill the algebra")

    n_vecs = [x for r in roots if r.lambda_of_H[0] > 0 for x in r.space.basis]
    n_space = span_subspace(algebra, n_vecs)
    s_space = span_subspace(algebra, a_space.basis + n_space.basis)
    # the weight-0 root space is the centralizer of a
    zero = next(r.space for r in roots if r.lambda_of_H[0] == 0)
    m_space = subspace_intersection(zero, k_space)

    return Su1nModel(
        N=N,
        algebra=algebra,
        sigma_diagonal=tuple(signs),
        k_space=k_space,
        p_space=p_space,
        a_space=a_space,
        n_space=n_space,
        m_space=m_space,
        s_space=s_space,
        roots=roots,
        H0=H0,
        beta=tuple(map(tuple, beta)),
        beta_H0=beta_H0,
        matrices=tuple(
            tuple(tuple(m.get((a, b), G_ZERO) for b in range(n)) for a in range(n)) for m in mats
        ),
    )


def _rational_sqrt(x: Fraction) -> Fraction:
    from math import isqrt

    if x <= 0:
        raise ValueError("square root of a nonpositive rational requested")
    pn, qd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn != x.numerator or qd * qd != x.denominator:
        raise ValueError(f"{x} has no rational square root")
    return Fraction(pn, qd)


def adapted_s_basis(model: Su1nModel):
    """Chart basis (H, V pairs, E) of the solvable part s.

    H is the restricted-root generator (eigenvalues 1 on the short root
    space and 2 on the top).  E spans the top root space, rescaled so
    that -beta(E, sigma E) = 2 beta(H, H).  The short root space is put
    into symplectic normal form for the bracket pairing [x, y] = b(x, y) E,
    ordered split-half so the pairing matrix is [[0, I], [-I, 0]].
    H, and any short root vector kept as it is, are the model's own.
    """
    top = [r for r in model.roots if r.lambda_of_H[0] == 2][0]
    e_raw = top.space.basis[0]
    scale = _rational_sqrt(2 * model.beta_H0 / model.beta_sigma(e_raw, e_raw))
    E = vec_scale(e_raw, scale)

    short = [r for r in model.roots if r.lambda_of_H[0] == 1]
    rem = list(short[0].space.basis) if short else []
    top_line = Frame([E])

    def bform(x, y):
        what = "short-root bracket left the top root line"
        return top_line.require(model.algebra.bracket(x, y), what).get(0, Fraction(0))

    xs, ys = [], []
    while rem:
        x = rem.pop(0)
        partner = next(i for i, w in enumerate(rem) if bform(x, w) != 0)
        w = rem.pop(partner)
        y = vec_scale(w, 1 / bform(x, w))
        reduced = []
        for u in rem:
            bu, bv = bform(x, u), bform(y, u)
            u2 = combine({0: Fraction(1), 1: -bu, 2: bv}, [u, y, x])
            if not u2:
                raise AssertionError("symplectic reduction collapsed a basis vector")
            reduced.append(u2)
        rem = reduced
        xs.append(x)
        ys.append(y)
    fs = xs + ys
    if [[bform(fi, fj) for fj in fs] for fi in fs] != split_symplectic(len(fs)):
        raise AssertionError("symplectic normal form check failed")
    return model.H0, fs, E


def verify_sigma_pairing(model: Su1nModel) -> CheckReport:
    """Check [X, sigma X] = beta(X, sigma X) H_lambda on every root basis.

    Also asserts the strict negativity beta(X, sigma X) < 0 for nonzero
    root vectors, which is what makes -beta(., sigma .) positive there.
    """
    failures = []
    checked = 0
    for r in model.roots:
        if r.lambda_of_H[0] == 0:
            continue
        for x in r.space.basis:
            checked += 1
            sx = model.apply_sigma(x)
            val = model.beta_form(x, sx)
            got = model.algebra.bracket(x, sx)
            want = vec_scale(r.H_lambda, val)
            if got != want:
                failures.append(("pairing", r.lambda_of_H[0], x))
            if val >= 0:
                failures.append(("sign", r.lambda_of_H[0], x))
    return CheckReport(not failures, checked, failures)


def verify_m_orthocomplement(model: Su1nModel) -> CheckReport:
    """Check [m, X] = orthocomplement of X inside its short root space.

    Orthogonality is with respect to the positive form -beta(., sigma .).
    Checked on the echelon basis and on a few fixed combinations.
    """
    failures = []
    checked = 0
    short = [r for r in model.roots if r.lambda_of_H[0] == 1]
    if not short:
        return CheckReport(True, 0, [])
    space = short[0].space
    basis = space.basis
    samples = list(basis)
    if len(basis) >= 2:
        samples += [vec_add(basis[0], basis[1]), combine({0: Fraction(2), 1: Fraction(-3)}, basis)]
    for x in samples:
        checked += 1
        bracket_span = span_subspace(
            model.algebra, [model.algebra.bracket(y, x) for y in model.m_space.basis]
        )
        row = [model.beta_sigma(x, b) for b in basis]
        ortho_vecs = [combine(c, basis) for c in nullspace([row], len(basis))]
        ortho = span_subspace(model.algebra, ortho_vecs)
        if bracket_span != ortho:
            failures.append(("orthocomplement", x))
    return CheckReport(not failures, checked, failures)


def iwasawa_project(model: Su1nModel, x: dict):
    """Split x = x_s + x_k along the direct sum g = s + k."""
    coords = model.iwasawa_frame.require(x, "vector outside the algebra span")
    ds = model.s_space.dim
    xs = combine({k: c for k, c in coords.items() if k < ds}, model.s_space.basis)
    return xs, vec_add(x, vec_scale(xs, -1))


@dataclass(frozen=True)
class SSubmodel:
    """The solvable part a + n as a Lie algebra in its own coordinates.

    embedding rows express the submodel basis inside the parent algebra,
    and frame reads coordinates against them; H is the restricted-root
    generator, and each entry of roots is a pair (root value on H, root
    space basis) in submodel coordinates.  embedding and roots are
    tuples and every vector is a read-only map (the embedding rows are
    the model's own s basis vectors), since s_submodel caches one
    instance per model object.
    """

    algebra: LieAlgebra
    embedding: tuple
    frame: Frame
    H: MappingProxyType
    roots: tuple

    def to_sub(self, x: dict) -> dict:
        return self.frame.require(x, "vector does not lie in the solvable part")


# id(model) -> (weak reference to model, submodel): Su1nModel is
# unhashable.  An entry is dropped when its model dies, so the cache
# holds no model alive and an id reused later finds no stale entry.
_S_SUBMODELS: dict = {}


def s_submodel(model: Su1nModel) -> SSubmodel:
    if id(model) in _S_SUBMODELS:
        return _S_SUBMODELS[id(model)][1]
    sub, embedding = subalgebra(
        model.algebra,
        model.s_space,
        labels=[f"s{i}" for i in range(model.s_space.dim)],
    )
    frame = model.s_space.frame
    to_sub = lambda x: MappingProxyType(frame.coords(x))
    out = SSubmodel(
        algebra=sub,
        embedding=tuple(embedding),
        frame=frame,
        H=to_sub(model.H0),
        roots=tuple(
            (r.lambda_of_H[0], tuple(map(to_sub, r.space.basis)))
            for r in model.roots
            if r.lambda_of_H[0] > 0
        ),
    )
    key = id(model)
    _S_SUBMODELS[key] = (weakref.ref(model, lambda _: _S_SUBMODELS.pop(key, None)), out)
    return out


def beta_sigma_gram(model: Su1nModel) -> list:
    return [[-b * s for b, s in zip(row, model.sigma_diagonal)] for row in model.beta]


def model_to_json(model: Su1nModel) -> dict:
    def strs(row):
        return [frac_str(c) for c in row]

    def vec_json(v):
        return strs(dense(v, model.algebra.dim))

    def basis_json(space):
        return [vec_json(v) for v in space.basis]

    return {
        "N": model.N,
        "algebra": model.algebra.to_json(),
        "sigma_diagonal": strs(model.sigma_diagonal),
        "subspaces": {
            "k": basis_json(model.k_space),
            "p": basis_json(model.p_space),
            "a": basis_json(model.a_space),
            "n": basis_json(model.n_space),
            "m": basis_json(model.m_space),
            "s": basis_json(model.s_space),
        },
        "roots": [
            {"lambda": strs(r.lambda_of_H), "dim": r.space.dim, "H_lambda": vec_json(r.H_lambda)}
            for r in model.roots
        ],
    }
