"""Reference computations the tests check the package against.

The package keeps every vector as a sparse map {index: nonzero
Fraction}; ``dense`` writes one out as a list, so a test can compare it
with a dense literal or a dense oracle, and ``sparse`` reads a list
back.

The linear-algebra oracles (rref_oracle, nullspace_oracle read off it,
det, identity_matrix, mat_mul) are plain textbook loops over Fraction
on dense lists, written independently of the sparse fraction-free
elimination in ``ballquant.linalg``.  poisson_pairs reads the directed
pairs of a Poisson structure off its Fraction matrix, and
transvection_oracle is (1/m!) C_m summed over every multiset of m of
them, with Fraction weights prod val^c / c! and no pruning.
verify_qmm_oracle checks the moment identity on Fractions from that
enumeration alone, never through the package's walk or star products,
and uncapped_walk_oracle is the transvection walk before its exponent
caps, its Fraction weights converted to the walk's integer ones.
pair_walk_oracle is the capped walk of one operand pair, as the package
walked each pair before it walked a coefficient against a whole row.
apply_operator_oracle applies a retract operator through whole-series
resize, product and sum, as the package did before it accumulated the
products in place; retract_exact_oracle is the retract operator's exact
flag by the rule it had before every walked term landed in a NuSum; and
binom_oracle is the binomial coefficient as a full falling-factorial
product.  radial_pde_residual_oracle evaluates
the radial operator as the package did before it built one coefficient
table per call: each term a chain of XiFn products through its constant
factors.  field_bracket_oracle is the commutator of two vector fields as
a whole-CoefFn sum over every pair of components, and
poisson_covariance_failures is the classical limit of the moment
identity, {mu_X, mu_Y} = mu_[X,Y] on the nu^0 moments through C_1 and
the su(1, N) bracket, which verify_qmm checks at order 0.  normalizer
and pullback_cochain are the normalizer of a subspace and the pullback
of a two-cochain, each by its definition, and beta_sigma_gram is the
matrix of the form -beta(x, sigma y) of the su(1, N) model.  delta2_oracle is the
Chevalley-Eilenberg differential of a two-cochain evaluated on every
basis triple through the bracket, without any table of the differential.
rebuild_oracle compares each entry of a structure table with the dense
commutator of the matrices it was read from (gmat_mul products), which
dense_matrices writes out from the model's sparse ones.
realified_structure_oracle reads the structure constants of su(1, N) as
su1n_model did before it read them off the matrix entries: each
commutator written out as the real and then the imaginary parts of its
entries (flatten) and solved against a Frame over the flattened basis.
solve_zeta is the correction functional zeta on m solved from the
chart's brackets, and integration_moments_oracle the nu^0 moment table
as build_qmm made it before it read the coadjoint orbit: classical_moment
of each vector of s + m plus alpha zeta, and the sigma moments written
out by hand.
substitute_alpha sets the formal parameter alpha of a chart function to a
number, as build_qmm did to every coefficient of a symbolic table before
a numeric alpha entered it as a constant.  degree is the largest total
degree of a chart function in v and z.  tuple_mul, tuple_diff and
tuple_caps are the product, derivatives and exponent caps of a chart
function written with tuple keys, as CoefFn.decoded writes it, the
reference for the packed keys.  adapted_s_basis_oracle finds the
adapted chart basis by search, as su1n_model did before it wrote the
basis down: short root vectors paired by trial, a symplectic
Gram-Schmidt over them, and E rescaled by a rational square root.
nullspace_roots_oracle finds the restricted-root spaces and m as
su1n_model did before it wrote them down: each root space the kernel
of ad H0 - t, and m the intersection of the zero root space with k.
full_structure_oracle reads the su(1, N) table from every pair of basis
matrices, as build_su1n did before it read only the pairs that share an
index, with the GScalar commutator _comm and the EntryReader that
rebuilds each read matrix and compares it, as build_su1n did before it
formed and read its commutators in Gaussian integers.  The package
holds its basis matrices as int pairs (re, im); gscalar_matrices turns
them into GScalar matrices, so that dense_matrices, flatten, _comm,
EntryReader and realified_structure_oracle keep their own GScalar
arithmetic.
DenseSeries is a nu series as a padded list of order + 1 coefficients,
with the series operations the package had before it stored only the
nonzero powers, and nu_series builds the package's series from such a
list.
oracle_wv0 and oracle_om0 are the nu^0 parts of the radial operator,
the (w|v) and Omega(w, v) parts, transcribed by hand from the displayed
coefficient groups.
reduction_closure_oracle checks the reduction geometry as
retract_pde.check_reduction_closure did before it read it off the root
grading: every bracket of s with W and of W with W, and a rank over
them.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import factorial, isqrt, lcm, perm
from sys import maxsize
from types import MappingProxyType

from ballquant.ball_quantization import QmmReport, _within, classical_moment, inner_square
from ballquant.ball_quantization import resolve_truncation_order
from ballquant.ce_cohomology import zero_two_cochain
from ballquant.formal_star import CoefFn, NuSeries, NuSum, c_operator, coef_to_json
from ballquant.formal_star import key_layout, transvection_terms
from ballquant.lie_core import LieAlgebra, Subspace, span_subspace, structure_in
from ballquant.lie_core import subspace_intersection
from ballquant.linalg import Frame, bilinear, combine, nullspace, solve_in_span, split_symplectic
from ballquant.linalg import transpose, vec_add, vec_scale
from ballquant.retract_pde import ClosureReport, XiFn
from ballquant.scalars import GScalar
from ballquant.su1n_model import RootDatum, _basis_matrices

G_ZERO = GScalar.of(0, 0)


def gscalar_matrices(mats) -> list:
    """Sparse Gaussian-integer matrices {(row, col): (re, im)}, as the
    package holds them, as sparse GScalar matrices, so that the oracles
    below do their own Gaussian-rational arithmetic."""
    return [{e: GScalar.of(re, im) for e, (re, im) in m.items()} for m in mats]


def dense(v: dict, n: int) -> list:
    """The n coordinates of the sparse vector v as a list."""
    return [F(v.get(j, 0)) for j in range(n)]


def sparse(v: list) -> dict:
    """The nonzero coordinates of the list v as a sparse vector."""
    return {j: x for j, x in enumerate(v) if x}


def rref_oracle(rows):
    """Dense Gauss-Jordan reduction over Fraction, independent of the
    fraction-free elimination in linalg."""
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
        inv = F(1) / m[r][c]
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


def nullspace_oracle(rows, ncols):
    """Canonical kernel basis read off rref_oracle, as dense lists."""
    red, pivots = rref_oracle(rows)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fcol] = F(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -red[r][fcol]
        basis.append(v)
    return basis


def identity_matrix(n: int) -> list:
    """The n x n identity matrix as dense rows."""
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Dense matrix product."""
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def det(a) -> F:
    """Determinant by Gaussian elimination with row swaps."""
    m = [row[:] for row in a]
    n = len(m)
    out = F(1)
    for c in range(n):
        pick = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pick is None:
            return F(0)
        if pick != c:
            m[c], m[pick] = m[pick], m[c]
            out = -out
        out *= m[c][c]
        inv = F(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def leading_principal_minors(a) -> list:
    """Determinants of the k x k leading blocks for k = 1..n."""
    return [det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]


def gmat_mul(a, b):
    """Dense product of square Gaussian-rational matrices."""
    n = len(a)
    out = [[G_ZERO] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            x = a[i][k]
            if x:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] = out[i][j] + x * b[k][j]
    return out


def dense_matrices(model) -> list:
    """The model's sparse basis matrices written out as dense lists of
    GScalar rows, for gmat_mul."""
    n = model.N + 1
    mats = gscalar_matrices(model.matrices)
    return [[[m.get((a, b), G_ZERO) for b in range(n)] for a in range(n)] for m in mats]


def rebuild_oracle(matrices, structure) -> list:
    """The pairs i < j, in order, whose table entry does not rebuild the
    commutator of their matrices: sum_k c_ij^k M_k != M_i M_j - M_j M_i,
    on dense Gaussian-rational matrices.  An empty list makes e_k -> M_k
    a homomorphism, so a table with independent matrices satisfies
    Jacobi."""
    n = len(matrices[0])
    failures = []
    for i, j in combinations(range(len(matrices)), 2):
        ab, ba = gmat_mul(matrices[i], matrices[j]), gmat_mul(matrices[j], matrices[i])
        want = [[x - y for x, y in zip(r, q)] for r, q in zip(ab, ba)]
        got = [[G_ZERO] * n for _ in range(n)]
        for k, c in structure.get((i, j), {}).items():
            got = [[x + y.scale(c) for x, y in zip(r, q)] for r, q in zip(got, matrices[k])]
        if got != want:
            failures.append((i, j))
    return failures


def flatten(m: dict, n: int) -> dict:
    """Real parts, then imaginary parts, of the entries of an n x n sparse
    matrix row by row, as a sparse vector: position -> nonzero value."""
    flat = {i * n + j: e.re for (i, j), e in m.items()}
    flat.update({n * n + i * n + j: e.im for (i, j), e in m.items()})
    return {t: x for t, x in flat.items() if x}


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


class EntryReader:
    """Exact coordinates of an su(1, N) matrix against the basis of
    _basis_matrices, read off its entries, for ``structure_in``.

    Entry (0, k) gives the coefficients of P_k (real part) and Q_k
    (imaginary part), entry (j, k), 1 <= j < k, those of R_jk and S_jk,
    and the coefficient of D_j is the running sum of Im X_aa over a <= j.
    coords rebuilds the matrix from them and compares, so a matrix
    outside the span reads as None, as in a Frame.  The constructor reads
    each basis matrix back as its unit vector (ValueError otherwise), so
    the basis is independent.
    """

    def __init__(self, mats: list, labels: list):
        at = {label: t for t, label in enumerate(labels)}
        n = 1 + sum(label.startswith("D") for label in labels)
        self.mats = mats
        self.diagonal = [at[f"D{j}"] for j in range(n - 1)]
        self.upper = {(0, k): (at[f"P{k}"], at[f"Q{k}"]) for k in range(1, n)}
        for j in range(1, n):
            for k in range(j + 1, n):
                self.upper[(j, k)] = (at[f"R{j}_{k}"], at[f"S{j}_{k}"])
        if any(self.coords(m) != {t: 1} for t, m in enumerate(mats)):
            raise ValueError("a basis matrix does not read back as its unit vector")

    def coords(self, m: dict):
        """The coordinates of the sparse matrix m (position t for basis
        matrix t), or None when the basis does not rebuild m."""
        c, diagonal = {}, []
        for (a, b), e in m.items():
            if a == b:
                diagonal.append((a, e.im))
            elif a < b:
                if (slots := self.upper.get((a, b))) is None:
                    return None
                (t_re, t_im), (x, y, d) = slots, e  # e = (x + y i) / d
                if x:
                    c[t_re] = F(x, d)
                if y:
                    c[t_im] = F(y, d)
        if diagonal:
            diagonal.sort()
            run, ends = 0, [a for a, _ in diagonal[1:]] + [len(self.diagonal)]
            for (a, y), end in zip(diagonal, ends):
                run += y
                if run:
                    c.update((self.diagonal[j], run) for j in range(a, end))
        rebuilt = {}
        for t, x in c.items():
            for entry, e in self.mats[t].items():
                rebuilt[entry] = rebuilt.get(entry, G_ZERO) + e.scale(x)
        return c if {entry: e for entry, e in rebuilt.items() if e} == m else None


def realified_structure_oracle(mats: list, n: int) -> dict:
    """The structure table of the n x n sparse matrices mats, read through
    a Frame over their flattened entries; ValueError when the rows are
    dependent or a commutator leaves their span."""
    frame = Frame([flatten(m, n) for m in mats])
    return structure_in(frame, mats, lambda a, b: flatten(_comm(a, b), n))


def delta2_oracle(algebra, c) -> dict:
    """(delta c)(e_i, e_j, e_k) = c([e_i, e_j], e_k) + c([e_j, e_k], e_i)
    + c([e_k, e_i], e_j) for every triple i < j < k, zeros included."""
    e = [algebra.basis_vector(i) for i in range(algebra.dim)]
    out = {}
    for i, j, k in combinations(range(algebra.dim), 3):
        out[i, j, k] = F(0)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            out[i, j, k] += bilinear(c.data, algebra.bracket(e[x], e[y]), e[z])
    return out


def poisson_pairs(matrix) -> list:
    """(u, w, Lambda^{uw}) for every nonzero entry of a Poisson matrix
    (PoissonStructure.matrix, Fractions), row by row."""
    return [(u, w, x) for u, row in enumerate(matrix) for w, x in enumerate(row) if x]


def transvection_oracle(f: CoefFn, g: CoefFn, matrix, m: int, memo=None) -> CoefFn:
    """(1/m!) C_m(f, g) summed over every multiset of m directed pairs of
    the Poisson matrix, each with the Fraction weight prod val^c / c! over
    its pairs: no branch is pruned.  Each derivative is taken once per
    multi-index, one coordinate from the derivative of the multi-index
    one lower in its last differentiated coordinate, and kept in memo, a
    pair of dicts for f and g that calls on the same f and g may share."""
    pairs, dim = poisson_pairs(matrix), len(matrix)
    memo = ({}, {}) if memo is None else memo

    def diff(side, h, index):
        d = memo[side].get(index)
        if d is None:
            if not any(index):
                d = h
            else:
                k = max(c for c, n in enumerate(index) if n)
                parent = diff(side, h, index[:k] + (index[k] - 1,) + index[k + 1 :])
                d = parent.diff_coord(k) if parent.terms else parent
            memo[side][index] = d
        return d

    total = CoefFn.zero(f.nv)
    for combo in combinations_with_replacement(range(len(pairs)), m):
        counts = {idx: combo.count(idx) for idx in set(combo)}
        u, w = [0] * dim, [0] * dim
        for idx, c in counts.items():
            u[pairs[idx][0]] += c
            w[pairs[idx][1]] += c
        df = diff(0, f, tuple(u))
        dg = diff(1, g, tuple(w)) if df.terms else df
        if dg.terms:
            weight = F(1)
            for idx, c in counts.items():
                weight *= pairs[idx][2] ** c / factorial(c)
            total = total.add(df.mul(dg).scale(weight))
    return total


def degree(f: CoefFn) -> int:
    """Largest total degree of f in the polynomial coordinates v and z."""
    return max((sum(k) + q for (_, k, _, q) in f.decoded()), default=0)


def tuple_mul(f: dict, g: dict) -> dict:
    """The product of two chart functions written {(p, k, s, q): c}, as
    CoefFn.decoded writes them: the exponents of each pair of terms are
    added tuple by tuple."""
    out = {}
    for (p1, k1, s1, q1), c1 in f.items():
        for (p2, k2, s2, q2), c2 in g.items():
            key = (p1 + p2, tuple(a + b for a, b in zip(k1, k2)), s1 + s2, q1 + q2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def tuple_diff(f: dict, index: tuple) -> dict:
    """d^index of a chart function written {(p, k, s, q): c}, for a
    multi-index over (a, v_1 .. v_nv, z): each term by the rule for each
    factor, e^{pa} giving p per step and x^e the falling power of e."""
    ia, *iv, iz = index
    out = {}
    for (p, k, s, q), c in f.items():
        factor = p**ia * perm(q, iz)
        for e, n in zip(k, iv):
            factor *= perm(e, n)
        if factor:
            out[(p, tuple(e - n for e, n in zip(k, iv)), s, q - iz)] = c * factor
    return out


def tuple_caps(f: dict, nv: int) -> tuple:
    """The exponent caps of a chart function written {(p, k, s, q): c}:
    maxsize for a when some p is nonzero, else 0, then the largest
    exponent of each v and of z."""
    caps = [maxsize if any(p for p, _, _, _ in f) else 0] + [0] * (nv + 1)
    for _, k, _, q in f:
        caps[1:] = map(max, caps[1:], (*k, q))
    return tuple(caps)


@lru_cache(maxsize=4096)
def odd_transvections(f_terms: frozenset, g_terms: frozenset, rows: frozenset) -> tuple:
    """(m, (1/m!) C_m(f, g)) for the functions with the given term items,
    for every odd m up to their joint polynomial degree, past which every
    C_m vanishes: each Lambda entry differentiates a polynomial coordinate
    on one side.  Kept per pair of term sets and Poisson matrix (the set
    of its (index, row tuple) pairs), so the tables of one N share the
    enumeration; a frozenset keeps its hash, so a repeated key is cheap."""
    matrix = [row for _, row in sorted(rows)]
    nv, memo = len(matrix) - 2, ({}, {})
    f, g = CoefFn(nv, dict(f_terms)), CoefFn(nv, dict(g_terms))
    top = degree(f) + degree(g)
    return tuple((m, transvection_oracle(f, g, matrix, m, memo)) for m in range(1, top + 1, 2))


def nu_series(coeffs: list, exact: bool = True) -> NuSeries:
    """The package's series of order len(coeffs) - 1 whose nu^t
    coefficient is coeffs[t]: the nonzero ones are stored as they are,
    not copied."""
    stored = {t: f for t, f in enumerate(coeffs) if f.terms}
    return NuSeries(coeffs[0].nv, len(coeffs) - 1, stored, exact)


class DenseSeries:
    """A nu series as the package held one before it stored only the
    nonzero powers: order + 1 CoefFns, nu^0 first, and the exact flag,
    with the operations it had, on whole padded lists.  A sum of another
    order raises ValueError; adding 0 times a series keeps self's flag;
    resizing clears exact when a nonzero coefficient is dropped."""

    def __init__(self, order: int, coeffs: list, exact: bool = True):
        self.order, self.coeffs, self.exact = order, coeffs, exact

    @classmethod
    def from_coef(cls, f: CoefFn, order: int) -> DenseSeries:
        return cls(order, [f] + [CoefFn.zero(f.nv)] * order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def resize(self, order: int) -> DenseSeries:
        dropped, zero = self.coeffs[order + 1 :], CoefFn.zero(self.coeffs[0].nv)
        coeffs = self.coeffs[: order + 1] + [zero] * (order + 1 - len(self.coeffs))
        return DenseSeries(order, coeffs, self.exact and all(c.is_zero() for c in dropped))

    def add(self, other: DenseSeries, c=1) -> DenseSeries:
        if self.order != other.order:
            raise ValueError("series orders differ")
        if not c:
            return self
        coeffs = [a.add(b.scale(c)) for a, b in zip(self.coeffs, other.coeffs)]
        return DenseSeries(self.order, coeffs, self.exact and other.exact)

    def sub(self, other: DenseSeries) -> DenseSeries:
        return self.add(other, -1)

    def scale(self, c) -> DenseSeries:
        return DenseSeries(self.order, [f.scale(c) for f in self.coeffs], self.exact)

    def to_json(self) -> dict:
        coeffs = [coef_to_json(c) for c in self.coeffs]
        return {"order": self.order, "exact": self.exact, "coeffs": coeffs}


def verify_qmm_oracle(table, order=None, pairs="all") -> QmmReport:
    """verify_qmm from the definition, in Fractions.  Each moment is
    resized to the order; for every pair the left side is the sum of the
    moments along the frame coordinates of the bracket, read afresh from
    the algebra, and the commutator is sum nu^(i+j+m-1) (1/m!) C_m over
    the moments' coefficients i, j and odd m, each C_m from
    transvection_oracle.  The residual is the left side minus the
    commutator.  A pair's commutator is exact when both moments are and
    no nonzero term falls past the order; exact is the AND over pairs,
    and a residual is exact when its commutator and every moment on its
    left side are."""
    order = resolve_truncation_order(order)
    nv = table.chart.nv
    size = len(table.basis) if pairs == "all" else 2 + nv
    algebra = table.chart.model.algebra
    lifted = [m.resize(order) for m in table.moments]
    keys = [[frozenset(c.terms.items()) for c in s.coeffs] for s in lifted]
    rows = frozenset(enumerate(map(tuple, table.P.matrix)))
    failures = []
    checked = 0
    exact = True
    for i in range(size):
        for j in range(i + 1, size):
            checked += 1
            coords = table.frame.coords(algebra.bracket(table.basis[i], table.basis[j]))
            res = [CoefFn.zero(nv)] * (order + 1)
            pair_exact = lifted[i].exact and lifted[j].exact
            for a, f in enumerate(keys[i]):
                for b, g in enumerate(keys[j]):
                    for m, c in odd_transvections(f, g, rows) if f and g else ():
                        t = a + b + m - 1
                        if t <= order:
                            res[t] = res[t].sub(c)
                        elif not c.is_zero():
                            pair_exact = False
            exact = exact and pair_exact
            for k, c in coords.items():
                res = [r.add(h.scale(c)) for r, h in zip(res, lifted[k].coeffs)]
            res_exact = pair_exact and all(lifted[k].exact for k in coords)
            series = nu_series(res, res_exact)
            if not series.is_zero():
                failures.append((table.labels[i], table.labels[j], series))
    return QmmReport(not failures, order, exact, checked, failures)


def uncapped_walk_oracle(f, g, P, limit: int) -> list:
    """transvection_terms as it was before the exponent caps: every pair
    is tried until a derivative vanishes, and each derivative is taken by
    CoefFn.diff with no memo.  The weights are Fractions prod val^c / c!
    over the matrix entries, recorded as the walk's integer weights
    m! delta^m prod val^c / c!, delta the least common denominator of the
    entries."""
    zero, one = (0,) * (P.nv + 2), F(1)
    units = [tuple(int(c == u) for c in range(P.nv + 2)) for u in range(P.nv + 2)]
    pairs = poisson_pairs(P.matrix)
    delta = lcm(*(x.denominator for row in P.matrix for x in row))
    terms = [[] for _ in range(limit + 1)]

    def extend(start, size, u, w, df, dg, weight):
        left = limit - size
        for idx in range(start, len(pairs)):
            a, b, val = pairs[idx]
            ua, wb, d, e, wt = list(u), list(w), df, dg, weight
            for c in range(1, left + 1):
                ua[a] += 1
                wb[b] += 1
                d = d.diff(units[a])
                if not d.terms:
                    break
                if g is not None:
                    e = e.diff(units[b])
                    if not e.terms:
                        break
                wt = wt * val / c
                m = size + c
                terms[m].append((tuple(wb), d, e, wt * factorial(m) * delta**m))
                if c < left:
                    extend(idx + 1, m, tuple(ua), tuple(wb), d, e, wt)

    if f.terms and (g is None or g.terms):
        terms[0].append((zero, f, g, one))
        extend(0, 0, zero, zero, f, g, one)
    while terms and not terms[-1]:
        terms.pop()
    return terms


def pair_walk_oracle(f, g, P, limit: int) -> list:
    """transvection_terms as it was before it walked a row: the walk of
    one operand pair (f, g), or of f alone for g None, up to one limit,
    recording every size.  Each directed pair (a, b) is taken as often as
    the caps of df along a, of dg along b and the limit allow, the joint
    walk reading the memos (CoefFn.step) and the one-sided one stepping
    by CoefFn.diff_coord.  Returns terms, terms[m] listing
    (w, d^u f, d^w g, weight) for every multiset of m pairs whose
    derivatives are nonzero, w packed and weight the walk's int.  Each
    prefix is expanded by one call of _pair_extend, so a test can count
    the expansions by wrapping it."""
    terms = []
    if f.terms and (g is None or g.terms):
        terms.append([(0, f, g, 1)])
        walk = (P.directed_pairs, key_layout(P.nv).units, limit, f, g, terms)
        _pair_extend(walk, 0, 0, 0, 0, f, g, 1)
    return terms


def _pair_extend(walk, start, size, u, w, df, dg, weight):
    pairs, units, limit, f, g, terms = walk
    left = limit - size
    fcaps = df.caps
    gcaps = None if g is None else dg.caps
    for idx in range(start, len(pairs)):
        a, b, val = pairs[idx]
        n = min(fcaps[a], left, maxsize if gcaps is None else gcaps[b])
        uk, wk, d, e, wt = u, w, df, dg, weight
        for c in range(1, n + 1):
            uk += units[a]
            wk += units[b]
            if g is None:
                d = d.diff_coord(a)
            else:
                d, e = f.step(uk, d, a), g.step(wk, e, b)
            wt = wt * val * (size + c) // c
            if size + c == len(terms):
                terms.append([])
            terms[size + c].append((wk, d, e, wt))
            if c < left:
                _pair_extend(walk, idx + 1, size + c, uk, wk, d, e, wt)


def apply_operator_oracle(op: dict, theta: NuSeries, order=None) -> NuSeries:
    """Apply a retract operator key by key: resize both sides to the order,
    differentiate every coefficient of theta, multiply the series and add
    the partial sums."""
    order = resolve_truncation_order(order)
    base = theta.resize(order)
    out = NuSeries.zero(base.nv, order)
    for key, series in op.items():
        dtheta = nu_series([c.diff(key) for c in base.coeffs], base.exact)
        out = out.add(series.resize(order).mul(dtheta))
    return out


def retract_exact_oracle(table, x: dict, order: int) -> bool:
    """Walk each power nu^i of mu_x up to past, the first odd size m with
    i + m - 1 > order, and call the operator exact iff no power has a
    multiset of that size (nor mu_x a term past nu^2)."""
    mu = NuSum(table.chart.nv, 2)
    for k, c in table.frame.require(x, "outside the table").items():
        mu.add(table.moments[k], c)
    exact = mu.exact
    for i, f in enumerate(mu.series().coeffs):
        past = (order - i + 2) | 1
        exact = exact and len(transvection_terms(f, None, table.P, past)[0]) <= past
    return exact


def field_bracket_oracle(f1: list, f2: list) -> list:
    """Commutator of two vector fields given by chart components: for each
    component u the sum over w of f1[w] d_w f2[u] - f2[w] d_w f1[u]."""
    n = len(f1)
    out = []
    for u in range(n):
        acc = CoefFn.zero(f1[0].nv)
        for w in range(n):
            acc = acc.add(f1[w].mul(f2[u].diff_coord(w)))
            acc = acc.sub(f2[w].mul(f1[u].diff_coord(w)))
        out.append(acc)
    return out


def solve_zeta(chart) -> list:
    """The linear functional zeta on m of the quantum correction, as
    build_qmm solved it before the orbit gave it: zeta([m, m]) = 0
    together with zeta([f_i, sigma f_j]_m) = -Omega_ij, both families read
    off the chart's brackets and solved as one exact linear system,
    against the columns of its matrix; independent columns make the
    solution unique.  ValueError names a bracket that leaves its block,
    and an underdetermined or inconsistent system."""
    nv, dm = chart.nv, len(chart.m_basis)
    m_block = range(2 + nv, 2 + nv + dm)
    rows = []
    for i in m_block:
        for j in range(i + 1, m_block.stop):
            coords = _within(chart.bracket(i, j), "[m, m] left m", m_block)
            rows.append({k - m_block.start: c for k, c in coords.items()})
    rhs = {}
    for i in range(nv):
        for j in range(nv):
            coords = chart.bracket(1 + i, m_block.stop + j)
            _within(coords, "[V, sigma V] left a + m", range(1), m_block)
            if chart.omega[i][j]:
                rhs[len(rows)] = -chart.omega[i][j]
            rows.append({k - m_block.start: c for k, c in coords.items() if k})
    try:
        columns = Frame(transpose(rows, dm))
    except ValueError:
        raise ValueError("correction functional is underdetermined") from None
    zeta = columns.require(rhs, "correction functional equations are inconsistent")
    return [F(zeta.get(j, 0)) for j in range(dm)]


def integration_moments_oracle(chart, P, alpha) -> list:
    """The nu^0 moments of the chart basis, in its order, as build_qmm
    made them before it read them off the coadjoint orbit: the classical
    moment of each vector of s + m (its fundamental field integrated,
    classical_moment), plus alpha zeta on m (solve_zeta), and the sigma
    moments written out from the Gram and Omega matrices,

        mu_sigma(w) = e^a (4 (w|v) z - ((v|v) + alpha) Omega(w, v)),
        mu_sigma(E) = e^{2a} (4 z^2 + ((v|v) + alpha)^2).

    alpha None is the formal parameter."""
    nv, zero_k = chart.nv, (0,) * chart.nv
    units = [tuple(int(i == j) for i in range(nv)) for j in range(nv)]
    if alpha is None:
        alpha_fn = CoefFn.monomial(nv, 0, zero_k, 1, 0, 1)
    else:
        alpha_fn = CoefFn.const(nv, alpha)
    zeta = [0] * (2 + nv) + solve_zeta(chart)  # zero on s; the zip stops after m
    moments = [
        classical_moment(chart, x, P).add(alpha_fn.scale(z)) for x, z in zip(chart.basis, zeta)
    ]
    vv_alpha = inner_square(chart).add(alpha_fn)
    z1 = CoefFn.monomial(nv, 0, zero_k, 0, 1, 1)
    ea = CoefFn.monomial(nv, 1, zero_k, 0, 0, 1)
    for j in range(nv):
        pairing = CoefFn.of(nv, (((0, k, 0, 0), x) for k, x in zip(units, chart.gram[j])))
        omega_j = CoefFn.of(nv, (((0, k, 0, 0), x) for k, x in zip(units, chart.omega[j])))
        moments.append(pairing.mul(z1).scale(4).sub(vv_alpha.mul(omega_j)).mul(ea))
    z2 = CoefFn.monomial(nv, 0, zero_k, 0, 2, 4)
    e2a = CoefFn.monomial(nv, 2, zero_k, 0, 0, 1)
    moments.append(z2.add(vv_alpha.mul(vv_alpha)).mul(e2a))
    return moments


def beta_sigma_gram(model) -> list:
    """The matrix of Su1nModel.beta_sigma on the basis of the algebra."""
    units = [model.algebra.basis_vector(i) for i in range(model.algebra.dim)]
    return [[model.beta_sigma(x, y) for y in units] for x in units]


def poisson_covariance_failures(table) -> dict:
    """The classical limit of the moment identity on the nu^0 coefficients
    mu of the moments: for each basis pair i < j the residual
    sum_k c_k mu_k - {mu_i, mu_j}, with c the coordinates of the su(1, N)
    bracket of the two basis vectors over the table basis and the Poisson
    bracket {f, g} = C_1(f, g), keyed by the pair's labels where nonzero."""
    mus = [s.coeffs[0] for s in table.moments]
    bracket = table.chart.model.algebra.bracket
    out = {}
    for i, j in combinations(range(len(mus)), 2):
        coords = solve_in_span(table.basis, bracket(table.basis[i], table.basis[j]))
        res = c_operator(mus[i], mus[j], table.P, 1).neg()
        for c, mu in zip(coords, mus):
            res = res.add(mu.scale(c))
        if not res.is_zero():
            out[(table.labels[i], table.labels[j])] = res
    return out


def normalizer(algebra, sub):
    """The largest subspace n with [n, sub] inside sub: x lies in it when
    every functional a that vanishes on sub vanishes on [x, s] for each
    basis vector s of sub, one row i -> a([e_i, s]) per pair (s, a)."""
    dim = algebra.dim
    annihilators = nullspace(sub.basis, dim)
    rows = []
    for s in sub.basis:
        images = [algebra.bracket(algebra.basis_vector(i), s) for i in range(dim)]
        for a in annihilators:
            row = {i: sum(a.get(k, 0) * v for k, v in x.items()) for i, x in enumerate(images)}
            rows.append({i: v for i, v in row.items() if v})
    return Subspace(nullspace(rows, dim))


def pullback_cochain(c, images: list):
    """The two-cochain (i, j) -> c(images[i], images[j]) on the basis
    that the images are indexed by."""
    out = zero_two_cochain(len(images))
    for i, j in combinations(range(len(images)), 2):
        out.data[i][j] = bilinear(c.data, images[i], images[j])
        out.data[j][i] = -out.data[i][j]
    return out


def substitute_alpha(f: CoefFn, value: F) -> CoefFn:
    """f with every power alpha^s replaced by value^s."""
    items = (((p, k, 0, q), c * value**s) for (p, k, s, q), c in f.decoded().items())
    return CoefFn.of(f.nv, items)


def binom_oracle(e: F, t: int) -> F:
    """Binomial coefficient with an arbitrary rational top entry."""
    out = F(1)
    for s in range(t):
        out *= e - s
    return out / factorial(t)


def _xt(k=0, m=0, n=0, h=0, j=0, re=0, im=0):
    return XiFn({(k, m, n, h, j): GScalar.of(re, im)})


def radial_pde_residual_oracle(theta: XiFn, n: int, order: int | None = None):
    """The radial operator for sigma(v0) applied to theta, term by term:
    the pair of XiFn coefficients along (w|v) and Omega(w, v), expanded
    to order when one is given."""
    th_a = theta.diff_a()
    th_r = theta.diff_r()
    th_rr = th_r.diff_r()
    th_rrr = th_rr.diff_r()
    th_xi = theta.diff_xi()
    th_ar = th_r.diff_a()
    th_xir = th_r.diff_xi()

    one_plus = _xt(re=1).add(_xt(h=1, re=1))
    s_minus = _xt(h=1, re=1).sub(_xt(re=1))
    n_weight = GScalar.of(2 * n - 3)

    wv = XiFn({})
    bulk = one_plus.mul(_xt(m=2, re=1)).add(_xt(re=2)).add(_xt(k=-1, n=1, im=2))
    wv = wv.add(_xt(k=1, n=1, im=1).mul(bulk).mul(theta))
    front = _xt(k=1, n=-1, im=1).mul(s_minus)
    radial_pair = th_rr.add(_xt(m=-1, re=1).scale(n_weight).mul(th_r))
    wv = wv.sub(front.mul(radial_pair))
    wv = wv.add(front.scale(GScalar.of(2)).mul(th_rr))
    wv = wv.sub(front.scale(GScalar.of(2)).mul(_xt(m=-1, re=1)).mul(th_r))
    wv = wv.sub(front.scale(GScalar.of(2)).mul(_xt(m=-1, re=1)).mul(th_ar))
    wv = wv.sub(_xt(k=1, m=-1, h=1, im=4).mul(th_xir))

    om = XiFn({})
    om = om.sub(_xt(k=1, re=1).mul(one_plus).mul(theta))
    om = om.sub(_xt(k=1, re=1).mul(one_plus).mul(th_a))
    drag = _xt(k=1, re=1).mul(s_minus).sub(_xt(k=-1, m=-1, re=1))
    om = om.add(drag.mul(_xt(m=1, re=1)).mul(th_r))
    lift = one_plus.mul(_xt(m=2, re=1)).add(_xt(re=2))
    om = om.add(_xt(k=1, re=1).mul(lift).mul(_xt(m=-1, re=F(1, 2))).mul(th_r))
    om = om.sub(_xt(k=1, n=1, h=1, re=2).mul(th_xi))
    tail = _xt(m=-1, re=1).scale(n_weight).mul(th_rr)
    tail = tail.sub(_xt(m=-2, re=1).scale(n_weight).mul(th_r))
    tail = tail.add(th_rrr)
    om = om.sub(
        _xt(k=1, n=-2, re=1).mul(s_minus).mul(_xt(m=-1, re=F(1, 2))).mul(tail)
    )

    if order is not None:
        return wv.expand_nu(order), om.expand_nu(order)
    return wv, om


def rational_sqrt(x: F) -> F:
    if x <= 0:
        raise ValueError("square root of a nonpositive rational requested")
    pn, qd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn != x.numerator or qd * qd != x.denominator:
        raise ValueError(f"{x} has no rational square root")
    return F(pn, qd)


def adapted_s_basis_oracle(model):
    """(H, fs, E) by search: E is the echelon generator of the top root
    space rescaled so that -beta(E, sigma E) = 2 beta(H, H); each short
    root vector in turn is paired with the first later one it brackets
    to a nonzero multiple of E, and the rest are reduced against the
    pair, so the pairing comes out split-half."""
    top = [r for r in model.roots if r.lambda_of_H[0] == 2][0]
    e_raw = top.space.basis[0]
    E = vec_scale(e_raw, rational_sqrt(2 * model.beta_H0 / model.beta_sigma(e_raw, e_raw)))
    short = [r for r in model.roots if r.lambda_of_H[0] == 1]
    rem = list(short[0].space.basis) if short else []
    top_line = Frame([E])

    def bform(x, y):
        return top_line.require(model.algebra.bracket(x, y), "left the top line").get(0, F(0))

    xs, ys = [], []
    while rem:
        x = rem.pop(0)
        partner = next(i for i, w in enumerate(rem) if bform(x, w) != 0)
        w = rem.pop(partner)
        y = vec_scale(w, 1 / bform(x, w))
        reduced = []
        for u in rem:
            bu, bv = bform(x, u), bform(y, u)
            u2 = combine({0: F(1), 1: -bu, 2: bv}, [u, y, x])
            if not u2:
                raise AssertionError("symplectic reduction collapsed a basis vector")
            reduced.append(u2)
        rem = reduced
        xs.append(x)
        ys.append(y)
    fs = xs + ys
    assert [[bform(fi, fj) for fj in fs] for fi in fs] == split_symplectic(len(fs))
    return model.H0, fs, E


def oracle_wv0(theta: XiFn) -> XiFn:
    """Independent transcription of the (w|v) part at nu = 0:
    [2 i xi e^a (r^2 + 1) - 2 xi^2] theta - 4 i e^a (1/r) d_xi d_r theta."""
    c0 = XiFn(
        {
            (1, 2, 1, 0, 0): GScalar.of(0, 2),
            (1, 0, 1, 0, 0): GScalar.of(0, 2),
            (0, 0, 2, 0, 0): GScalar.of(-2),
        }
    )
    mixed = XiFn({(1, -1, 0, 0, 0): GScalar.of(0, -4)})
    return c0.mul(theta).add(mixed.mul(theta.diff_r().diff_xi()))


def oracle_om0(theta: XiFn) -> XiFn:
    """Independent transcription of the Omega(w, v) part at nu = 0:
    -2 e^a theta - 2 e^a d_a theta + [e^a (r^2 + 1)/r - e^{-a}] d_r theta
    - 2 e^a xi d_xi theta."""
    out = XiFn({(1, 0, 0, 0, 0): GScalar.of(-2)}).mul(theta)
    out = out.add(XiFn({(1, 0, 0, 0, 0): GScalar.of(-2)}).mul(theta.diff_a()))
    radial = XiFn(
        {
            (1, 1, 0, 0, 0): GScalar.of(1),
            (1, -1, 0, 0, 0): GScalar.of(1),
            (-1, 0, 0, 0, 0): GScalar.of(-1),
        }
    )
    out = out.add(radial.mul(theta.diff_r()))
    return out.add(XiFn({(1, 0, 1, 0, 0): GScalar.of(-2)}).mul(theta.diff_xi()))


def nullspace_roots_oracle(model) -> tuple:
    """(roots, spaces) of the model found by solving: each root space is
    the kernel of ad H0 - t for t = 2, 1, 0, -1, -2, the nonempty ones in
    that order; k and p the kernels of sigma - 1 and sigma + 1, a the
    line of H0, n the sum of the positive root spaces, s = a + n, and m
    the zero root space intersected with k."""
    algebra, H0 = model.algebra, model.H0
    sigma = lambda c: [{i: s - c} for i, s in enumerate(model.sigma_diagonal) if s != c]
    ad_h0 = algebra.ad(H0)
    roots = []
    for t in map(F, (2, 1, 0, -1, -2)):
        shifted = [vec_add(row, {i: -t}) for i, row in enumerate(ad_h0)]
        space = Subspace(nullspace(shifted, algebra.dim))
        if space.dim:
            roots.append(RootDatum((t,), space, MappingProxyType(vec_scale(H0, t / model.beta_H0))))
    zero = next(r.space for r in roots if r.lambda_of_H[0] == 0)
    k = Subspace(nullspace(sigma(1), algebra.dim))
    a = Subspace([H0])
    n = Subspace([x for r in roots if r.lambda_of_H[0] > 0 for x in r.space.basis])
    spaces = {"k": k, "p": Subspace(nullspace(sigma(-1), algebra.dim)), "a": a, "n": n}
    spaces.update(s=Subspace(a.basis + n.basis), m=subspace_intersection(zero, k))
    return tuple(roots), spaces


def full_structure_oracle(N: int):
    """The su(1, N) algebra read from the commutator of every pair of
    basis matrices, zero or not."""
    mats, labels, _ = _basis_matrices(N)
    mats = gscalar_matrices(mats)
    return LieAlgebra.written(labels, structure_in(EntryReader(mats, labels), mats, _comm))


def reduction_closure_oracle(model) -> ClosureReport:
    """W = s + m + (root space of the negative short root) must be stable
    under the adjoint action of the solvable part, and W + [W, W] must
    fill the whole algebra: every bracket formed, and a rank over them."""
    algebra = model.algebra
    w_vecs = model.s_space.basis + model.m_space.basis
    for r in model.roots:
        if r.lambda_of_H[0] == -1:
            w_vecs += r.space.basis
    w = span_subspace(w_vecs)
    failures = []
    for i, z in enumerate(model.s_space.basis):
        for j, x in enumerate(w.basis):
            if not w.contains(algebra.bracket(z, x)):
                failures.append((i, j))
    brackets = [
        algebra.bracket(x, y)
        for a, x in enumerate(w.basis)
        for y in w.basis[a + 1 :]
    ]
    filled = span_subspace([*w.basis, *brackets])
    ok = not failures and filled.dim == algebra.dim
    return ClosureReport(ok, w.dim, filled.dim, failures)
