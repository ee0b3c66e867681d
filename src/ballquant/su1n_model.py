"""Rank one pseudo-unitary Lie algebra model.

Builds su(1, N) as a real Lie algebra with exact rational structure
constants.  Elements are trace-free complex matrices X with
X^* J + J X = 0 for J = diag(-1, 1, ..., 1).  The Cartan involution is
conjugation by J; its +1 eigenspace k is the maximal compact part and
the -1 eigenspace p contains the restricted-root generator
H0 = E_01 + E_10, whose adjoint action has rational eigenvalues
(+-2, +-1, 0).  The basis matrices are sparse Gaussian-integer maps.
Every bracket, the model's and the chart's, is read off the entries
(coordinates) of the commutator of its arguments' matrices, formed in
Gaussian integers (bracket_read), and the Killing form is the trace form
2(N + 1) Re tr(XY) (trace_form).  The structure table (_structure) is
built on the first read of Su1nModel.algebra, by h2 --su1n, the cocycle
suite (s_submodel), su1n-export and match_iwasawa only.  The root
decomposition of ad H0 is written down and checked (build_su1n), and the
adapted chart basis of s is taken from it and checked (adapted_s_basis).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from types import MappingProxyType
from weakref import WeakKeyDictionary

from .lie_core import CheckReport, LieAlgebra, Subspace, span_subspace, subalgebra
from .linalg import Frame, combine, nullspace, split_symplectic, vec_add, vec_scale
from .scalars import Record, frac_str, kept


def index_partners(sets: list) -> list:
    """For each i, the sorted list of j > i whose index set meets
    sets[i]: the pairs _structure forms.  E_ab E_cd is nonzero only when
    b = c, so matrices with disjoint index sets commute."""
    holders = {}
    for t, indices in enumerate(sets):
        for a in indices:
            holders.setdefault(a, []).append(t)
    return [sorted({j for a in s for j in holders[a] if j > i}) for i, s in enumerate(sets)]


def _check_su1n(m: dict) -> bool:
    """Trace free with X^* J + J X = 0 for J = diag(-1, 1, ..., 1), X a
    Gaussian-integer matrix: entry (i, j) is J_jj conj(X_ji) + J_ii X_ij."""
    if any(sum(e[p] for (i, j), e in m.items() if i == j) for p in (0, 1)):
        return False
    sign = lambda i: -1 if i == 0 else 1
    return not any(
        sign(j) * x + sign(i) * u or sign(i) * v - sign(j) * y
        for i, j in set(m) | {(j, i) for i, j in m}
        for (x, y), (u, v) in [(m.get((j, i), (0, 0)), m.get((i, j), (0, 0)))]
    )


def _basis_matrices(N: int):
    """The basis matrices {(row, col): (re, im)}, their labels and Cartan signs."""
    one, im = (1, 0), (0, 1)
    mats, labels, signs = [], [], []

    def add(label, sign, m):
        mats.append(m)
        labels.append(label)
        signs.append(Fraction(sign))

    for j in range(N):
        add(f"D{j}", 1, {(j, j): im, (j + 1, j + 1): (0, -1)})
    for k in range(1, N + 1):
        add(f"P{k}", -1, {(0, k): one, (k, 0): one})
    for k in range(1, N + 1):
        add(f"Q{k}", -1, {(0, k): im, (k, 0): (0, -1)})
    for j in range(1, N + 1):
        for k in range(j + 1, N + 1):
            add(f"R{j}_{k}", 1, {(j, k): one, (k, j): (-1, 0)})
            add(f"S{j}_{k}", 1, {(j, k): im, (k, j): im})
    return mats, labels, signs


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba for sparse Gaussian-integer matrices (row, col) -> (re, im),
    zero entries kept."""
    out = {}
    for (i, k), (x, y) in a.items():
        for (l, j), (u, v) in b.items():
            if k == l:
                r, s = out.get((i, j), (0, 0))
                out[i, j] = r + x * u - y * v, s + x * v + y * u
            if j == i:
                r, s = out.get((l, k), (0, 0))
                out[l, k] = r - u * x + v * y, s - u * y - v * x
    return out


@lru_cache(maxsize=None)
def _slots(n: int) -> tuple:
    """The positions of the basis matrices of su(1, n - 1) that coordinates
    reads: those of D_j by j, and the pair (P_k, Q_k) or (R_jk, S_jk) by
    the entry (j, k) it sits at, j < k."""
    at = {label: t for t, label in enumerate(_basis_matrices(n - 1)[1])}
    slot = lambda j, k: (at[f"P{k}"], at[f"Q{k}"]) if j == 0 else (at[f"R{j}_{k}"], at[f"S{j}_{k}"])
    upper = {(j, k): slot(j, k) for j in range(n) for k in range(j + 1, n)}
    return [at[f"D{j}"] for j in range(n - 1)], upper


def coordinates(n: int, m: dict) -> dict:
    """The int coordinates against _basis_matrices of an n x n
    Gaussian-integer matrix m in su(1, n - 1), read off its entries: P_k
    and Q_k (real and imaginary part) from entry (0, k), R_jk and S_jk from
    entry (j, k), 1 <= j < k, and D_j from the running sum of Im m_aa over
    a <= j (build_su1n certifies the read)."""
    diagonal, upper = _slots(n)
    c, diagonal_entries = {}, []
    for (a, b), (x, y) in m.items():
        if a == b:
            diagonal_entries.append((a, y))
        elif a < b:
            if x:
                c[upper[a, b][0]] = x
            if y:
                c[upper[a, b][1]] = y
    diagonal_entries.sort()
    run, ends = 0, [a for a, _ in diagonal_entries[1:]] + [n - 1]
    for (a, y), end in zip(diagonal_entries, ends):
        run += y
        if run:
            c.update((diagonal[j], run) for j in range(a, end))
    return c


def bracket_read(n: int, X: tuple, Y: tuple) -> tuple:
    """(d, c): the int coordinates c of d [X, Y] for X and Y as gaussian reads
    them, d the product of their d's, read off the commutator's entries."""
    (dx, x), (dy, y) = X, Y
    return dx * dy, coordinates(n, _commutator(x, y))


def _structure(mats: list) -> dict:
    """The structure table of su(1, N) on the basis matrices mats, formed
    and read in Gaussian integers, each constant a Fraction at the end.

    The commutator of each pair that shares an index (index_partners) is
    formed in ints; any other pair commutes.  Its coordinates are read off
    its entries (coordinates), the coordinate map of su(1, N) by the
    certificate of build_su1n.  su(1, N) is closed under commutators, so
    every commutator is read exactly, e_k -> mats[k] carries the table to
    the commutator, and the table, a matrix algebra's, satisfies Jacobi.
    """
    n = isqrt(len(mats) + 1)
    structure = {}
    for i, js in enumerate(index_partners([{a for entry in m for a in entry} for m in mats])):
        for j in js:
            if c := coordinates(n, _commutator(mats[i], mats[j])):
                structure[i, j] = {k: Fraction(v) for k, v in c.items()}
    return structure


def gaussian(matrices: tuple, x: dict) -> tuple:
    """(d, {(row, col): (re, im)}): the least d > 0 that makes d X
    Gaussian-integral, and the entries of d X, for the matrix X of the
    algebra vector x, summed in ints off the sparse basis matrices."""
    D = lcm(*(c.denominator for c in x.values()))
    acc = {}
    for t, c in x.items():
        k = c.numerator * (D // c.denominator)
        for e, (a, b) in matrices[t].items():
            re, im = acc.get(e, (0, 0))
            acc[e] = re + k * a, im + k * b
    g = gcd(D, *(v for pair in acc.values() for v in pair))
    return D // g, {e: (re // g, im // g) for e, (re, im) in acc.items() if re or im}


def trace_form(n: int, X: tuple, Y: tuple) -> Fraction:
    """The Killing form 2n Re tr(XY) of su(1, n - 1), X and Y as gaussian
    reads them, summed in ints and divided once.  Every value is real: the
    basis matrices lie in su(1, N) (_check_su1n, in build_su1n), so
    X^* = -J X J and conj tr(XY) = tr(Y^* X^*) = tr(J Y X J) = tr(XY).
    AssertionError when a trace is not real (matrices off su(1, N))."""
    (dx, xs), (dy, ys) = X, Y
    re = im = 0
    for (a, b), (p, q) in xs.items():
        r, s = ys.get((b, a), (0, 0))
        re, im = re + p * r - q * s, im + p * s + q * r
    if im:
        raise AssertionError("the trace of two algebra matrices is not real")
    return Fraction(2 * n * re, dx * dy)


class RootDatum(Record, frozen=True):
    """One restricted-root space with its coroot.

    lambda_of_H is the tuple of the root values on the basis vectors of a
    (here a is one dimensional).  H_lambda is the unique element of a
    representing the root functional through the Killing form.
    """

    lambda_of_H: tuple
    space: Subspace
    H_lambda: MappingProxyType


class Su1nModel(Record, frozen=True, eq=False):
    N: int
    sigma_diagonal: tuple
    k_space: Subspace
    p_space: Subspace
    a_space: Subspace
    n_space: Subspace
    m_space: Subspace
    s_space: Subspace
    roots: tuple
    H0: MappingProxyType
    beta_H0: Fraction
    matrices: tuple

    def bracket(self, x: dict, y: dict) -> dict:
        """[x, y], read off the matrices of x and y (bracket_read) and divided once."""
        d, c = bracket_read(self.N + 1, gaussian(self.matrices, x), gaussian(self.matrices, y))
        return {k: Fraction(v, d) for k, v in c.items()}

    @kept
    def algebra(self) -> LieAlgebra:
        """The structure table, built on first read (_structure proves Jacobi)."""
        return LieAlgebra.written(_basis_matrices(self.N)[1], _structure(self.matrices))

    def apply_sigma(self, x: dict) -> dict:
        return {j: self.sigma_diagonal[j] * xj for j, xj in x.items()}

    def beta_form(self, x: dict, y: dict) -> Fraction:
        """The Killing form of x and y, read off their matrices (trace_form)."""
        return trace_form(self.N + 1, gaussian(self.matrices, x), gaussian(self.matrices, y))

    def beta_sigma(self, x: dict, y: dict) -> Fraction:
        return -self.beta_form(x, self.apply_sigma(y))

    @kept
    def iwasawa_frame(self) -> Frame:
        """Coordinates along the direct sum g = s + k, s basis first."""
        return Frame(self.s_space.basis + self.k_space.basis)


def _written_roots(at: dict, N: int) -> tuple:
    """The written vectors of the root values +-2 and +-1 of ad H0, by
    value, and the written basis of m (see build_su1n)."""
    vec = lambda *terms: {at[label]: Fraction(c) for label, c in terms}
    ks, spaces = range(2, N + 1), {}
    for s in (1, -1):
        spaces[2 * s] = [vec(("D0", 1), ("Q1", -s))]
        spaces[s] = [vec((f"{x}{k}", 1), (f"{y}1_{k}", s)) for x, y in ("PR", "QS") for k in ks]
    m = [vec(("D0", 1), ("D1", 2))] if N > 1 else []
    m += [vec((f"D{j}", 1)) for j in range(2, N)]
    m += [vec((f"{x}{j}_{k}", 1)) for j in ks for k in range(j + 1, N + 1) for x in "RS"]
    return spaces, m


@lru_cache(maxsize=None)
def build_su1n(N: int) -> Su1nModel:
    """Construct the su(1, N) model; results are cached.  The model and
    its root data are frozen, their sequences (subspace bases, roots) are
    tuples, every vector (the subspace bases, H0 and each H_lambda) is a
    read-only map, and sigma_diagonal and matrices are read-only at every
    level, so callers use them without copying.  matrices holds the basis
    matrices as _basis_matrices builds them, sparse Gaussian-integer maps
    {(row, col): (re, im)}; every bracket and Killing form is read off
    them, and no structure table is built here (Su1nModel.algebra).

    The certificate: each basis matrix lies in su(1, N) (_check_su1n),
    there are (N + 1)^2 - 1 = dim su(1, N) of them, and each reads back as
    its unit vector; AssertionError otherwise.  The read is linear, so
    they are a basis and coordinates is the coordinate map of su(1, N):
    every bracket (Su1nModel.bracket, the chart's, _structure) rests on it.
    The root spaces of ad H0 are written:
    t = +-2: D0 -+ Q1; t = +-1: P_k +- R1_k and Q_k +- S1_k (k = 2 .. N);
    t = 0: H0 = P1 and m = {D0 + 2 D1, D_j (j >= 2), R_jk, S_jk (2 <= j < k)}.
    AssertionError, naming the check, unless each written space (the five
    and m) has full rank, the dimensions sum to dim g, every m vector lies
    in k and [H0, x] = t x for each written x.  Eigenvectors of
    distinct eigenvalues are independent, so written eigenspaces that
    fill g are the whole eigenspaces.  g_0 is sigma-stable and holds a in
    p: an x of g_0 in k is c H0 + y with y in the span of m, and c H0 =
    x - y lies in k and in p, so c = 0 and m = g_0 intersected with k.
    """
    if type(N) is not int:
        raise TypeError(f"N must be an int, got {N!r}")
    if N < 1:
        raise ValueError("N must be at least 1")
    mats, labels, signs = _basis_matrices(N)
    if not all(_check_su1n(m) for m in mats):
        raise AssertionError("basis matrix leaves su(1,N)")
    n, dim = N + 1, len(mats)
    if n * n - 1 != dim:
        raise AssertionError("the basis count is not (N + 1)^2 - 1")
    if any(coordinates(n, m) != {t: 1} for t, m in enumerate(mats)):
        raise AssertionError("a basis matrix does not read back as its unit vector")

    H0 = MappingProxyType({N: Fraction(1)})  # label P1
    h0 = gaussian(mats, H0)
    beta_H0 = trace_form(n, h0, h0)

    units = lambda c: [{i: Fraction(1)} for i in range(dim) if signs[i] == c]
    k_space, p_space = span_subspace(units(1)), span_subspace(units(-1))
    a_space = span_subspace([H0])

    written, m = _written_roots({label: t for t, label in enumerate(labels)}, N)
    written[0] = [H0, *m]
    spaces = {t: span_subspace(written[t]) for t in (2, 1, 0, -1, -2)}
    m_space = span_subspace(m)  # independent inside the written space of t = 0
    if any(spaces[t].dim != len(written[t]) for t in spaces):
        raise AssertionError("a written root space is not of full rank")
    if sum(space.dim for space in spaces.values()) != dim:
        raise AssertionError("the written root spaces do not fill the algebra")
    if any(signs[i] != 1 for x in m for i in x):
        raise AssertionError("a written m vector leaves k")
    coroot = lambda t: MappingProxyType(vec_scale(H0, Fraction(t) / beta_H0))
    roots = [RootDatum((Fraction(t),), sp, coroot(t)) for t, sp in spaces.items() if sp.dim]

    n_space = span_subspace([x for r in roots if r.lambda_of_H[0] > 0 for x in r.space.basis])
    model = Su1nModel(
        N=N, sigma_diagonal=tuple(signs), k_space=k_space, p_space=p_space, a_space=a_space,
        n_space=n_space, m_space=m_space, s_space=span_subspace(a_space.basis + n_space.basis),
        roots=tuple(roots), H0=H0, beta_H0=beta_H0, matrices=tuple(map(MappingProxyType, mats)),
    )
    if any(model.bracket(H0, x) != vec_scale(x, t) for t, xs in written.items() for x in xs):
        raise AssertionError("a written root vector is not an eigenvector of ad H0")
    return model


# model -> its checked chart basis, keyed weakly as _S_SUBMODELS is.
_ADAPTED: WeakKeyDictionary = WeakKeyDictionary()


def adapted_s_basis(model: Su1nModel) -> tuple:
    """Chart basis (H, f_1 .. f_nv, E) of the solvable part s, scaled
    copies of the model's root vectors, checked once per model object: a
    model made by replace is checked anew.  The result is read-only, H the
    model's own H0, the f's a tuple of read-only maps and E one.

    H = P1 is the model's H0 and E = D0 - Q1 spans the top root space.
    The echelon basis of the short root space is the one build_su1n
    writes, P_k + R1_k and then Q_k + S1_k, so for k = 2 .. N

        f_{k-1} = P_k + R1_k,    f_{N-2+k} = -(Q_k + S1_k) / 2,

    and each f touches the one index k of 2 .. N.  AssertionError, naming
    the check, when the two root spaces do not have dimensions 1 and
    2(N - 1), when -beta(E, sigma E) != 2 beta(H, H), or when the pairing
    [x, y] = b(x, y) E is not split-half, b = [[0, I], [-I, 0]].
    """
    if model in _ADAPTED:
        return _ADAPTED[model]
    space = {r.lambda_of_H[0]: r.space.basis for r in model.roots}
    short, top = space.get(1, ()), space.get(2, ())  # N = 1 has no short roots, and then no f
    if len(top) != 1 or len(short) != 2 * (model.N - 1):
        raise AssertionError("root space dimensions are not 1 and 2(N - 1)")
    scales = [1] * (len(short) // 2) + [Fraction(-1, 2)] * (len(short) // 2)
    fs = tuple(MappingProxyType(vec_scale(x, c)) for x, c in zip(short, scales))
    E = MappingProxyType(dict(top[0]))
    if model.beta_sigma(E, E) != 2 * model.beta_H0:
        raise AssertionError("top root vector is not normalized to 2 beta(H, H)")
    top_line, what = Frame([E]), "short-root bracket left the top root line"
    bform = lambda x, y: top_line.require(model.bracket(x, y), what).get(0, Fraction(0))
    if [[bform(fi, fj) for fj in fs] for fi in fs] != split_symplectic(len(fs)):
        raise AssertionError("symplectic normal form check failed")
    out = _ADAPTED[model] = model.H0, fs, E
    return out


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
            got = model.bracket(x, sx)
            want = vec_scale(r.H_lambda, val)
            if got != want:
                failures.append(("pairing", r.lambda_of_H[0], x))
            if val >= 0:
                failures.append(("sign", r.lambda_of_H[0], x))
    return CheckReport(not failures, checked, failures)


def verify_m_orthocomplement(model: Su1nModel) -> CheckReport:
    """Check [m, X] = orthocomplement of X inside its short root space.

    Orthogonality is with respect to the positive form -beta(sigma ., .),
    each matrix read once, on the echelon basis and a few fixed combinations.
    """
    failures = []
    checked = 0
    basis = next((r.space.basis for r in model.roots if r.lambda_of_H[0] == 1), ())
    basis_read = [gaussian(model.matrices, b) for b in basis]
    samples = list(basis)
    if len(basis) >= 2:
        samples += [vec_add(basis[0], basis[1]), combine({0: Fraction(2), 1: Fraction(-3)}, basis)]
    for x in samples:
        checked += 1
        bracket_span = span_subspace([model.bracket(y, x) for y in model.m_space.basis])
        sx = gaussian(model.matrices, model.apply_sigma(x))
        row = [-trace_form(model.N + 1, sx, b) for b in basis_read]
        ortho_vecs = [combine(c, basis) for c in nullspace([row], len(basis))]
        ortho = span_subspace(ortho_vecs)
        if bracket_span != ortho:
            failures.append(("orthocomplement", x))
    return CheckReport(not failures, checked, failures)


def iwasawa_project(model: Su1nModel, x: dict):
    """Split x = x_s + x_k along the direct sum g = s + k."""
    coords = model.iwasawa_frame.require(x, "vector outside the algebra span")
    ds = model.s_space.dim
    xs = combine({k: c for k, c in coords.items() if k < ds}, model.s_space.basis)
    return xs, vec_add(x, vec_scale(xs, -1))


class SSubmodel(Record, frozen=True):
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


# model -> submodel, keyed weakly: the cache holds no model alive.
_S_SUBMODELS: WeakKeyDictionary = WeakKeyDictionary()


def s_submodel(model: Su1nModel) -> SSubmodel:
    if model in _S_SUBMODELS:
        return _S_SUBMODELS[model]
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
    _S_SUBMODELS[model] = out
    return out


def model_to_json(model: Su1nModel) -> dict:
    def strs(row):
        return [frac_str(c) for c in row]

    zero = frac_str(Fraction(0))

    def vec_json(v):
        return [frac_str(v[j]) if j in v else zero for j in range(model.algebra.dim)]

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
