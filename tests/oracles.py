"""Reference computations the tests check the package against.

The package keeps every vector as a sparse map {index: nonzero
Fraction}; ``dense`` writes one out as a list, so a test can compare it
with a dense literal or a dense oracle, and ``sparse`` reads a list
back.

The linear-algebra oracles (rref_oracle, nullspace_oracle read off it,
det, identity_matrix, mat_mul) are plain textbook loops over Fraction
on dense lists, written independently of the sparse fraction-free
elimination in ``ballquant.linalg``.  verify_qmm_oracle checks the
moment identity with a left-side sum minus a separate half_commutator
series per pair, as the package did before it landed the commutator in
the residual sum, and uncapped_walk_oracle is the transvection walk
before its exponent caps.
apply_operator_oracle applies a retract operator through whole-series
resize, product and sum, as the package did before it accumulated the
products in place; retract_exact_oracle is the retract operator's exact
flag by the rule it had before every walked term landed in a NuSum; and
binom_oracle is the binomial coefficient as a full falling-factorial
product.  radial_pde_residual_oracle evaluates
the radial operator as the package did before it built one coefficient
table per call: each term a chain of XiFn products through its constant
factors.  field_bracket_oracle is the commutator of two vector fields as
a whole-CoefFn sum over every pair of components.  delta2_oracle is the
Chevalley-Eilenberg differential of a two-cochain evaluated on every
basis triple through the bracket, without any table of the differential.
rebuild_oracle compares each entry of a structure table with the dense
commutator of the matrices it was read from (gmat_mul products).
"""
from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations
from math import factorial

from ballquant.ball_quantization import QmmReport, resolve_truncation_order
from ballquant.formal_star import CoefFn, NuSeries, NuSum, half_commutator, transvection_terms
from ballquant.linalg import bilinear
from ballquant.retract_pde import XiFn
from ballquant.scalars import G_ZERO, GScalar


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


def verify_qmm_oracle(table, order=None, pairs="all") -> QmmReport:
    """verify_qmm by the formula it had before it landed each commutator
    in the pair's residual sum: the left side summed in a NuSum from the
    frame coordinates of each bracket, minus the half_commutator series,
    which is built on its own.  Every scaled series is scaled by
    NuSeries.scale before it lands, so no scaled landing of NuSum.add is
    on this side of the comparison.  exact is the AND of the
    commutators' flags."""
    order = resolve_truncation_order(order)
    size = len(table.basis) if pairs == "all" else 2 + table.chart.nv
    algebra = table.chart.model.algebra
    lifted = [m.resize(order) for m in table.moments]
    failures = []
    checked = 0
    exact = True
    for i in range(size):
        for j in range(i + 1, size):
            checked += 1
            coords = table.frame.coords(algebra.bracket(table.basis[i], table.basis[j]))
            lhs = NuSum(table.chart.nv, order)
            for k, c in coords.items():
                lhs.add(lifted[k].scale(c))
            rhs = half_commutator(lifted[i], lifted[j], table.P, order)
            exact = exact and rhs.exact
            res = lhs.add(rhs.scale(-1)).series()
            if not res.is_zero():
                failures.append((table.labels[i], table.labels[j], res))
    return QmmReport(not failures, order, exact, checked, failures)


def uncapped_walk_oracle(f, g, P, limit: int) -> list:
    """transvection_terms as it was before the exponent caps: every pair
    is tried until a derivative vanishes, and each derivative is taken by
    CoefFn.diff with no memo."""
    zero, one = (0,) * (P.nv + 2), F(1)
    terms = [[] for _ in range(limit + 1)]

    def extend(start, size, u, w, df, dg, weight):
        left = limit - size
        for idx in range(start, len(P.directed_pairs)):
            a, b, val = P.directed_pairs[idx]
            ua, wb, d, e, wt = list(u), list(w), df, dg, weight
            for c in range(1, left + 1):
                ua[a] += 1
                wb[b] += 1
                d = d.diff(P.units[a])
                if not d.terms:
                    break
                if g is not None:
                    e = e.diff(P.units[b])
                    if not e.terms:
                        break
                wt = wt * val / c
                terms[size + c].append((tuple(wb), d, e, wt))
                if c < left:
                    extend(idx + 1, size + c, tuple(ua), tuple(wb), d, e, wt)

    if f.terms and (g is None or g.terms):
        terms[0].append((zero, f, g, one))
        extend(0, 0, zero, zero, f, g, one)
    while terms and not terms[-1]:
        terms.pop()
    return terms


def apply_operator_oracle(op: dict, theta: NuSeries, order=None) -> NuSeries:
    """Apply a retract operator key by key: resize both sides to the order,
    differentiate every coefficient of theta, multiply the series and add
    the partial sums."""
    order = resolve_truncation_order(order)
    base = theta.resize(order)
    out = NuSeries.zero(base.coeffs[0].nv, order)
    for key, series in op.items():
        dtheta = NuSeries(order, [c.diff(key) for c in base.coeffs], base.exact)
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
        exact = exact and len(transvection_terms(f, None, table.P, past)) <= past
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
