"""Quantization chart for the rank one solvable group and its moments.

The chart identifies the group AN, for su(1, N), with coordinates
(a, v, z) through exp(a H) exp(v) exp(z E), using the adapted solvable
basis (H, f_1 .. f_nv, E).  Group elements are stored with t = exp(-a)
so that the whole group law is rational.

build_chart assembles the adapted basis of the whole algebra once, in
table order (H, f, E, m, sigma f, sigma E), as read-only vectors, with
one Frame over it; every coordinate read on the chart and in the
moment table, which shares both, goes through that frame.  The chart
reads each basis vector's Gaussian-integer matrix once (BallChart._reads),
and its gram, the orbit moments and its brackets (never the model's
stored table) are all read off those matrices.

On this chart every basis element X of the subalgebra spanned by the
solvable part and the compact centralizer m has a fundamental vector
field X* = d/dt|_0 of left translation by exp(-tX), and the moment table
is Hamiltonian for it: X* = -Lambda grad mu_X^(0) for the constant
Poisson structure Lambda.  The table comes from one coadjoint orbit
(Kirillov-Kostant-Souriau, after the retract method):

    mu_X^(0) = Re tr(Z(alpha) g^-1 X g),   g = exp(a H) exp(v) exp(z E),

on every basis vector X of the whole algebra, with one complex matrix
Z(alpha) supported on the entries (0, 0), (0, 1) and (1, 1) of the
defining representation.  It holds the alpha zeta term of m (zeta(Y) is
Im Y_00) and the closed forms of the sigma moments,

    mu_sigma(w) = e^a (4 (w|v) z - ((v|v) + alpha) Omega(w, v)),
    mu_sigma(E) = e^{2a} (4 z^2 + ((v|v) + alpha)^2) + (N - 1) nu^2 e^{2a},

with (u|w) a fixed multiple of -beta(u, sigma w); the nu^2 term of
sigma E is the one term written down.  build_qmm evaluates the orbit in
Gaussian integers (_orbit_moments), with no integration and no linear
solve; classical_moment, which integrates the fundamental field, stays
as the benchmark's reading of that integration.  verify_qmm checks the
moment identity mu_[X,Y] = (1/(2 nu)) [mu_X, mu_Y] pairwise and exactly.

The two scale conventions (the a-z Poisson weight and the inner product
scale) set the Poisson structure, not the table, and they are not free:
calibrate() checks the table over a grid at order 1 and a unique pair
survives, (1/2, 1/2).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from types import MappingProxyType

from .formal_star import CoefFn, NuSeries, NuSum, PoissonStructure, half_commutator, key_layout
from .formal_star import series_to_json
from .linalg import Frame, bilinear, split_symplectic
from .linalg import solve_in_span  # noqa: F401, callers read it here
from .scalars import Record, accumulate, collect, exact, frac_str, kept
from .scalars import resolve_truncation_order
from .scalars import TRUNCATION_ENV, TruncationOrderError  # noqa: F401, callers read them here
from .su1n_model import Su1nModel, adapted_s_basis, bracket_read, build_su1n, gaussian, trace_form

CALIBRATED_AZ_WEIGHT = Fraction(1, 2)
CALIBRATED_INNER_SCALE = Fraction(1, 2)
_NO_TERMS = MappingProxyType({})


class BallChart(Record, frozen=True):
    model: Su1nModel
    H: MappingProxyType
    fs: list
    E: MappingProxyType
    nv: int
    omega: list
    m_basis: list
    basis: tuple
    frame: Frame

    @kept
    def _brackets(self) -> dict:
        return {}

    @kept
    def _reads(self) -> tuple:
        """The gaussian read (d, entries) of each basis vector, in basis order,
        the indices of its entries as the bits of one int, and q and the
        frame's dual times q, the lcm of its denominators; ValueError unless
        the frame spans g, so that its dual reads every vector."""
        dual = self.frame.dual
        if len(dual) != len(self.model.matrices):
            raise ValueError("the chart frame does not span the algebra")
        reads = [gaussian(self.model.matrices, x) for x in self.basis]
        touched = [sum({1 << a for e in entries for a in e}) for _, entries in reads]
        q = lcm(*(d.denominator for m in dual.values() for _, d in m))
        return reads, touched, q, {p: [(k, int(d * q)) for k, d in m] for p, m in dual.items()}

    @kept
    def gram(self) -> list:
        """(f_i|f_j), -beta(f_i, sigma f_j) / beta(H0, H0) times the scale
        CALIBRATED_INNER_SCALE, off the reads of the basis's f and sigma f."""
        reads, nv = self._reads[0], self.nv
        fs, sfs = reads[1 : 1 + nv], reads[-1 - nv : -1]
        scale = -CALIBRATED_INNER_SCALE / self.model.beta_H0
        return [[scale * trace_form(self.model.N + 1, u, sw) for sw in sfs] for u in fs]

    def bracket(self, i: int, j: int) -> MappingProxyType:
        """The read-only frame coordinates of [basis[i], basis[j]], i < j,
        read on first use (_read) and kept; a chart made by replace starts
        with none, and zero brackets share one empty mapping.  A pair whose
        matrices share no index is zero, neither read nor kept."""
        if not self._reads[1][i] & self._reads[1][j]:
            return _NO_TERMS
        if (i, j) not in self._brackets:
            read = self._read(i, j)
            self._brackets[(i, j)] = MappingProxyType(read) if read else _NO_TERMS
        return self._brackets[(i, j)]

    def _read(self, i: int, j: int) -> dict:
        """The model's int read of the bracket of the two read matrices
        (bracket_read), then against the dual rows, divided once by d q."""
        reads, _, q, dual = self._reads
        d, c = bracket_read(self.model.N + 1, reads[i], reads[j])
        read = collect((k, v * e) for l, v in c.items() for k, e in dual[l])
        return {k: Fraction(v, d * q) for k, v in read.items()}


def build_chart(N: int) -> BallChart:
    """Adapted chart data for su(1, N), exact over the rationals.

    basis is the adapted basis of the whole algebra in qmm_labels order,
    (H, f, E, m, sigma f, sigma E), a tuple of read-only vectors: the
    model's own where it has them (H, m_basis), the checked ones that
    adapted_s_basis keeps for the model (f, E), and the chart's own, with
    one Frame over it; the chart reads everything else on first use.
    """
    model = build_su1n(N)
    H, fs, E = adapted_s_basis(model)
    nv, m_basis = len(fs), list(model.m_space.basis)
    sigma = [MappingProxyType(model.apply_sigma(x)) for x in (*fs, E)]
    basis = (H, *fs, E, *m_basis, *sigma)
    return BallChart(model, H, list(fs), E, nv, split_symplectic(nv), m_basis, basis, Frame(basis))


def _within(coords, what: str, *blocks: range):
    """coords, read in the chart frame; ValueError(what) when it has a
    nonzero coordinate outside the given blocks of positions."""
    if not all(any(k in block for block in blocks) for k in coords):
        raise ValueError(what)
    return coords


def poisson_structure(
    chart: BallChart, az_weight=CALIBRATED_AZ_WEIGHT, inner_scale=CALIBRATED_INNER_SCALE
) -> PoissonStructure:
    """Constant Poisson matrix on (a, v, z): the one place the scales enter.

    The a-z entry is the weight az_weight and the v block is
    (az_weight / inner_scale) Omega; at the calibrated values this is the
    standard symplectic matrix.  A scale that is not an int or a Fraction
    raises TypeError, a zero one ValueError.
    """
    az_weight, inner_scale = exact(az_weight, "az_weight"), exact(inner_scale, "inner_scale")
    for name, scale in (("inner_scale", inner_scale), ("az_weight", az_weight)):
        if not scale:
            raise ValueError(f"{name} must be nonzero")
    dim = chart.nv + 2
    m = [[Fraction(0)] * dim for _ in range(dim)]
    m[0][dim - 1] = az_weight
    m[dim - 1][0] = -az_weight
    vscale = az_weight / inner_scale
    for i in range(chart.nv):
        for j in range(chart.nv):
            m[1 + i][1 + j] = vscale * chart.omega[i][j]
    return PoissonStructure(chart.nv, m)


class GroupElement(Record):
    """Point of AN in chart coordinates, with t = exp(-a)."""

    t: Fraction
    v: tuple
    z: Fraction


def group_mul(chart: BallChart, g1: GroupElement, g2: GroupElement) -> GroupElement:
    t = g1.t * g2.t
    v = tuple(g2.t * a + b for a, b in zip(g1.v, g2.v))
    vv = bilinear(chart.omega, dict(enumerate(g1.v)), dict(enumerate(g2.v)))
    z = g2.z + g2.t**2 * g1.z + Fraction(1, 2) * g2.t * vv
    return GroupElement(t, v, z)


def group_identity(chart: BallChart) -> GroupElement:
    return GroupElement(Fraction(1), (Fraction(0),) * chart.nv, Fraction(0))


def group_inverse(chart: BallChart, g: GroupElement) -> GroupElement:
    return GroupElement(1 / g.t, tuple(-a / g.t for a in g.v), -g.z / g.t**2)


def fundamental_field(chart: BallChart, x: dict) -> list:
    """Components (a, v_1 .. v_nv, z) of the fundamental field of x.

    Defined for x in s + m.  The sign convention makes
    X -> X* a homomorphism of Lie algebras.  m acts on V by the chart's
    brackets [f_j, m_k].
    """
    nv = chart.nv
    what = "element lies outside the solvable part plus m"
    m_action = "m does not preserve the short root space"
    coords = _within(chart.frame.require(x, what), what, range(2 + nv + len(chart.m_basis)))
    a, *v, z = key_layout(nv).units
    items = [[] for _ in range(nv + 2)]
    for k, c in coords.items():
        if k == 0:
            items[0].append((0, -c))
        elif k <= nv:
            items[k].append((-a, -c))
            items[nv + 1] += [(v[j] - a, -c * w / 2) for j, w in enumerate(chart.omega[k - 1]) if w]
        elif k == nv + 1:
            items[nv + 1].append((-2 * a, -c))
        else:
            for j in range(nv):
                col = _within(chart.bracket(1 + j, k), m_action, range(1, 1 + nv))
                for i, b in col.items():
                    items[i].append((v[j], c * b))
    return [CoefFn(nv, collect(terms)) for terms in items]


def apply_field(field: list, f: CoefFn) -> CoefFn:
    """The derivative of f along the vector field with chart components
    field: the sum of field[w] d_w f, accumulated in place."""
    acc = {}
    for w, comp in enumerate(field):
        if comp.terms:
            comp.mul_into(acc, f.diff_coord(w))
    return CoefFn(f.nv, acc)


class IntegrabilityError(Exception):
    def __init__(self, residuals: list):
        super().__init__("gradient is not exact on this chart")
        self.residuals = residuals


def integrate_exact_gradient(components: list) -> CoefFn:
    """Potential of an exact gradient, built from canonical antiderivatives.

    The z component is integrated first, then each v coordinate in turn,
    then the remaining pure-exponential a part.  The reconstruction is
    verified against every component and IntegrabilityError carries the
    mismatch when the input is not an exact gradient.
    """
    nv = len(components) - 2

    def residuals(lam: CoefFn) -> list:
        return [comp.sub(lam.diff_coord(u)) for u, comp in enumerate(components)]

    lam = components[-1].antiderivative_z()
    for i in range(nv):
        rem = components[1 + i].sub(lam.diff_coord(1 + i))
        if not rem.is_zero():
            lam = lam.add(rem.antiderivative_v(i))
    rem_a = components[0].sub(lam.diff_coord(0))
    if any(any(k) or q or p == 0 for (p, k, s, q) in rem_a.decoded()):
        raise IntegrabilityError(residuals(lam))
    if not rem_a.is_zero():
        lam = lam.add(rem_a.antiderivative_a())
    mismatch = residuals(lam)
    if any(not r.is_zero() for r in mismatch):
        raise IntegrabilityError(mismatch)
    return lam


def classical_moment(chart: BallChart, x: dict, P: PoissonStructure) -> CoefFn:
    """The function lambda with X* = -Lambda grad lambda.

    The additive gauge is fixed by canonical antiderivatives.  For x in
    a + m the field has only weight-zero terms (a constant a component
    for H, terms linear in v for m), so lambda has no term free of v and
    z: it already vanishes at the identity.
    """
    field = fundamental_field(chart, x)
    grad = []
    for row in P.inverse:
        items = (kv for c, comp in zip(row, field) if c for kv in comp.scale(-c).terms.items())
        grad.append(CoefFn(chart.nv, collect(items)))
    return integrate_exact_gradient(grad)


def inner_square(chart: BallChart) -> CoefFn:
    """(v|v) as a polynomial on the chart."""
    nv, v, gram = chart.nv, key_layout(chart.nv).units[1:-1], chart.gram
    return CoefFn(nv, collect((v[k] + v[l], gram[k][l]) for k in range(nv) for l in range(nv)))


class QmmTable(Record, frozen=True):
    chart: BallChart
    P: PoissonStructure
    alpha: Fraction | None
    labels: list
    basis: tuple
    frame: Frame
    moments: list


def qmm_labels(N: int) -> list:
    """Labels of the moment table basis of su(1, N), in table order: H,
    the short root vectors f, E, the basis of m, then sigma of f and E."""
    nv, dm = 2 * (N - 1), (N - 1) ** 2
    return (
        ["H"] + [f"f{i + 1}" for i in range(nv)] + ["E"] + [f"m{i + 1}" for i in range(dm)]
        + [f"sf{j + 1}" for j in range(nv)] + ["sE"]
    )


def build_qmm(N: int, alpha: Fraction | None = None) -> QmmTable:
    """Quantum moment table over the adapted basis of the whole algebra.

    The nu^0 moments are those of the coadjoint orbit (_orbit_moments);
    the one term written down is the nu^2 term (N - 1) e^{2a} of sigma E.
    alpha = None keeps the parameter symbolic; a number, an int or a
    Fraction (else TypeError), enters as that constant.  P is at the
    calibrated scales, which set it and not the moments.
    """
    alpha = None if alpha is None else exact(alpha, "alpha")
    chart = build_chart(N)
    P = poisson_structure(chart)
    nv = chart.nv
    *moments, top = _orbit_moments(chart, alpha)
    moments = [NuSeries.from_coef(mu, 2) for mu in moments]
    e2a = CoefFn.monomial(nv, 2, (0,) * nv, 0, 0, Fraction(N - 1))
    moments.append(NuSeries(nv, 2, {0: top, 2: e2a} if N > 1 else {0: top}))
    return QmmTable(chart, P, alpha, qmm_labels(N), chart.basis, chart.frame, moments)


def _orbit_moments(chart: BallChart, alpha: Fraction | None) -> list:
    """The nu^0 moments of the chart basis, in its order, off the orbit:

        mu_X = e^{-lambda a} Re tr(Z(alpha) n^-1 X n),  n = exp(v) exp(z E),

    for X of root lambda (0, 1, 2, 0, -1, -2 on H, f, E, m, sigma f,
    sigma E), since Ad_{exp(-a H)} X = e^{-lambda a} X: exp(a H) enters
    only as a shift of the p field of each key.  Z(alpha) has the entries
    -i (1 + alpha)^2 / 4, -i (1 - alpha^2) / 2 and i (1 - alpha)^2 / 4 at
    (0, 0), (0, 1) and (1, 1) (_z_entries), so tr(Z M) reads only columns
    0 and 1 of n and rows 0 and 1 of n^-1.  Since [f_i, E] = 0 (1 + 2 is
    not a root), n = exp(v + z E) is one series (_exp_apply), and since n
    is J-unitary, J = diag(-1, 1, .., 1), (n^-1)_br = J_bb J_rr conj(n_rb):
    the rows are read off the columns.  Every factor is a Gaussian-integer
    multiple: the chart's read of each basis matrix (BallChart._reads, f
    and E at 1 .. nv + 1), 4 q^2 Z for alpha = p / q (q = 1 when alpha is
    the formal variable) and the exponential; a complex entry is a pair
    (re, im) of int CoefFns, and each term is divided back into Q once.
    """
    reads, nv = chart._reads[0], chart.nv
    layout = key_layout(nv)
    gens = [(layout.units[k], *reads[k]) for k in range(1, nv + 2)]  # f and E
    S, cols = _exp_apply(nv, chart.model.N + 1, gens)
    if alpha is None:
        q, p = 1, {layout.pack(0, (0,) * nv, 1, 0): 1}
    else:
        q, p = alpha.denominator, {0: alpha.numerator}
    plus = CoefFn(nv, collect(p.items(), {0: q}))
    minus = CoefFn(nv, collect(((k, -c) for k, c in p.items()), {0: q}))
    # x_a = sum_b Z_ab (row b of n^-1), so that W = n Z n^-1 is sum_a (col a of n) x_a;
    # with Z_ab = i z_ab, Z_ab (n^-1)_br = J_bb J_rr z_ab (Im n_rb + i Re n_rb)
    xs = [{}, {}]
    for (a, b), zab in _z_entries(plus, minus).items():
        for r, (re, im) in cols[b].items():
            sign = (-1) ** ((b == 0) + (r == 0))
            xre, xim = xs[a].setdefault(r, ({}, {}))
            zab.mul_into(xre, im, sign)
            zab.mul_into(xim, re, sign)
    xs = [{c: (CoefFn(nv, re), CoefFn(nv, im)) for c, (re, im) in x.items()} for x in xs]
    W = {}
    roots = [0] + [1] * nv + [2] + [0] * len(chart.m_basis) + [-1] * nv + [-2]
    moments = []
    for (d, entries), root in zip(reads, roots):
        acc = {}
        # Re tr(Z n^-1 X n) = Re tr(W X), the sum of Re(X_rc W_cr)
        for (r, c), (gr, gi) in entries.items():
            if (c, r) not in W:
                W[c, r] = w = ({}, {})
                for col, xa in zip(cols, xs):
                    if c in col and r in xa:
                        _cmul(w, col[c], xa[r])
            re, im = W[c, r]
            if gr:
                accumulate(acc, ((k, gr * v) for k, v in re.items()))
            if gi:
                accumulate(acc, ((k, -gi * v) for k, v in im.items()))
        shift, den = -root << layout.top, S * S * 4 * q * q * d
        moments.append(CoefFn(nv, {k + shift: Fraction(v, den) for k, v in acc.items()}))
    return moments


def _z_entries(plus: CoefFn, minus: CoefFn) -> dict:
    """The imaginary parts of the entries of 4 q^2 Z(p / q), from plus = q + p
    and minus = q - p: Z has no real part and no entry (1, 0)."""
    return {
        (0, 0): plus.mul(plus).neg(),
        (0, 1): plus.mul(minus).scale(-2),
        (1, 1): minus.mul(minus),
    }


def _cmul(acc: tuple, x: tuple, y: tuple) -> None:
    """Add the product of the complex x and y, pairs (re, im) of CoefFns,
    into acc, a pair of term dicts."""
    (xr, xi), (yr, yi) = x, y
    xr.mul_into(acc[0], yr)
    xi.mul_into(acc[0], yi, -1)
    xr.mul_into(acc[1], yi)
    xi.mul_into(acc[1], yr)


def _exp_apply(nv: int, n: int, gens: list) -> tuple:
    """(S, [u_0, u_1]): the columns 0 and 1 of S exp(M), u_j = S exp(M) e_j,
    each entry a pair (re, im) of int CoefFns.  gens lists the terms
    (unit, d, G) of M, the chart variable of that packed unit times G / d,
    G an n x n Gaussian-integer matrix.

    M is nilpotent, so its series ends: with s the lcm of the d and K the
    last power that leaves a column nonzero, the power k enters as
    (K! / k!) s^(K - k) (s M)^k, all in integers, and S = K! s^K.  A
    nonzero power n, which a nilpotent n x n matrix never has, raises
    AssertionError, so no exponent grows past n.
    """
    s = lcm(*(d for _, d, _ in gens))
    gens = [(unit, s // d, G) for unit, d, G in gens]
    series = []
    for j in (0, 1):
        powers = [{j: ({0: 1}, {})}]
        while powers[-1]:
            if len(powers) > n:
                raise AssertionError("the exponential series did not end")
            powers.append(_apply_once(powers[-1], gens))
        series.append(powers[:-1])
    K = max(map(len, series)) - 1
    cols = []
    for powers in series:
        acc = {}
        for k, power in enumerate(powers):
            c = factorial(K) // factorial(k) * s ** (K - k)
            for i, (re, im) in power.items():
                are, aim = acc.setdefault(i, ({}, {}))
                accumulate(are, ((key, c * v) for key, v in re.items()))
                accumulate(aim, ((key, c * v) for key, v in im.items()))
        cols.append({i: (CoefFn(nv, re), CoefFn(nv, im)) for i, (re, im) in acc.items()})
    return factorial(K) * s**K, cols


def _apply_once(vec: dict, gens: list) -> dict:
    """sum over gens (unit, m, G) of m x G vec, x the chart variable of
    that packed unit: each product only shifts keys."""
    out = {}
    for unit, m, G in gens:
        for (r, c), (gr, gi) in G.items():
            if c in vec:
                (re, im), (ore, oim) = vec[c], out.setdefault(r, ({}, {}))
                gr, gi = gr * m, gi * m
                if gr:
                    accumulate(ore, ((k + unit, gr * v) for k, v in re.items()))
                    accumulate(oim, ((k + unit, gr * v) for k, v in im.items()))
                if gi:
                    accumulate(ore, ((k + unit, -gi * v) for k, v in im.items()))
                    accumulate(oim, ((k + unit, gi * v) for k, v in re.items()))
    return {i: p for i, p in out.items() if p[0] or p[1]}


class QmmReport(Record):
    ok: bool
    order: int
    exact: bool
    checked: int
    failures: list


def verify_qmm(table: QmmTable, order: int | None = None, pairs: str = "all") -> QmmReport:
    """Check mu_[X,Y] = (1/(2 nu)) [mu_X, mu_Y] for basis pairs.

    pairs "all" checks the pairs i < j of the whole table basis, "s" those
    of its first 2 + nv vectors (H, f, E: the solvable chart part).  One
    half_commutator call per row lands the commutator of moment i with
    each later one in that pair's NuSum, whose exact flag is read before
    the left side is subtracted.  A pair fails when a term dict of that
    sum is nonempty, and only then is the sum made a series, its
    residual, reported negated, as the left side minus the commutator:
    its nonzero powers, whatever the order.  exact, the AND of the
    commutators' flags, says whether every star commutator terminated
    inside the truncation.  At order 0 this is Poisson covariance,
    {mu_X, mu_Y} = mu_[X,Y] on the nu^0 moments, the classical limit.

    The check runs in Z and reports in Q.  D is the common denominator
    of the moments' coefficients, and each row has its own int weight
    L = lcm(top! delta^top, the denominators of the row's brackets, read
    as it is walked): L keeps every scale L / (m! delta^m) of an odd
    m <= top and every left-side factor L D c of the row an int.  top is
    order + 1, or twice the largest sum of v and z caps (CoefFn.caps) of
    a lifted coefficient when less: every pair of P steps along a v or z
    on one side, so no partner's walk is longer.  Each pair lands L D^2
    times its residual, with int coefficients only, in its NuSum, and
    only a failing residual is divided back by its row's L D^2.

    Each moment is lifted once (_in_z): scaled by D into fresh int
    coefficients, one per stored power, and truncated to the order when
    that is below the moment's own (clearing exact for a nonzero term, as
    resizing does), so a walk takes only the powers the moments hold.
    The copies' derivative memos (CoefFn.step) and caps fill as the rows
    are walked, on either side of a transvection, so each derivative is
    taken at most once per call; a row's walk is dropped once the row is
    summed, and the copies on return, so the table's own coefficients,
    and those its mutations share, never hold a memo or caps.  The left
    sides are the chart's brackets (BallChart.bracket), each pair read
    once per chart: a table, its mutations (which share its chart) and
    both pair sets read the same kept pairs, and the s pairs read only
    brackets of the solvable part.
    """
    order = resolve_truncation_order(order)
    chart, nv = table.chart, table.chart.nv
    if pairs == "all":
        n = len(table.basis)
    elif pairs == "s":
        n = 2 + nv
    else:
        raise ValueError("pairs must be 'all' or 's'")
    P = table.P
    stored = [f for s in table.moments for f in s.terms.values()]
    D = lcm(*(c.denominator for f in stored for c in f.terms.values()))
    lifted = [_in_z(s, D, order) for s in table.moments]
    caps = (sum(f.caps[1:]) for s in lifted for f in s.terms.values())
    top = min(order + 1, 2 * max(caps, default=0))
    weight = factorial(top) * P.delta**top
    failures = []
    exact = True
    for i in range(n - 1):
        row = [chart.bracket(i, j) for j in range(i + 1, n)]
        L = lcm(weight, *(c.denominator for b in row for c in b.values()))
        LD = L * D
        sums = [NuSum(nv, order) for _ in row]
        half_commutator(lifted[i], lifted[i + 1 : n], P, order, sums, L)
        for j, bracket, res in zip(range(i + 1, n), row, sums):
            exact = exact and res.exact
            for k, c in bracket.items():
                res.add(lifted[k], -c.numerator * (LD // c.denominator))
            if any(res.terms.values()):
                residual = res.series().scale(Fraction(-1, LD * D))
                failures.append((table.labels[i], table.labels[j], residual))
    return QmmReport(not failures, order, exact, n * (n - 1) // 2, failures)


def _in_z(s: NuSeries, D: int, order: int) -> NuSeries:
    """D s in fresh coefficients that are all ints, one per stored power,
    truncated to the order when that is below s's own (resize, which
    clears exact for a nonzero term it drops), so that a coefficient past
    the order is never walked.  D must clear every denominator of s."""
    lifted = s.replace(terms={
        t: CoefFn(f.nv, {k: c.numerator * (D // c.denominator) for k, c in f.terms.items()})
        for t, f in s.terms.items()
    })
    return lifted.resize(order) if order < s.order else lifted


def mutate_drop_nu2(table: QmmTable) -> QmmTable:
    """Remove every second-order coefficient from the moment table."""
    moments = [s.replace(terms={t: f for t, f in s.terms.items() if t != 2}) for s in table.moments]
    return table.replace(moments=moments)


def mutate_add_nu_const(table: QmmTable, label: str, value: Fraction) -> QmmTable:
    """Shift the moment of one basis element by nu times a constant, an
    int or a Fraction (else TypeError); a label not in the table raises
    ValueError."""
    value = exact(value, "value")
    if label not in table.labels:
        raise ValueError(f"{label!r} is not a moment label of this table")
    idx = table.labels.index(label)
    moments = list(table.moments)
    shifted = NuSum(table.chart.nv, moments[idx].order).add(moments[idx])
    shifted.land(1, CoefFn.const(shifted.nv, value).terms.items())
    moments[idx] = shifted.series()
    return table.replace(moments=moments)


class CalibrationResult(Record):
    passing: list
    tried: int


CALIBRATION_GRID = [s * Fraction(x) for x in (1, 2, "1/2", "1/4") for s in (1, -1)]


def calibrate(N: int) -> CalibrationResult:
    """Search the scale grid for conventions making the table verify.

    The orbit table does not depend on the scales, and the Poisson
    structure does: one table is checked under each grid point's
    structure, and a point fails when the moment identity already breaks
    at first order.  For N = 1 the
    inner product scale never enters (there are no short roots), so only
    the a-z weight is searched and the result is reported with the
    conventional value 1/2.
    """
    passing = []
    tried = 0
    table = build_qmm(N)
    inner_choices = CALIBRATION_GRID if N >= 2 else [CALIBRATED_INNER_SCALE]
    for az in CALIBRATION_GRID:
        for inner in inner_choices:
            tried += 1
            P = poisson_structure(table.chart, az, inner)
            if verify_qmm(table.replace(P=P), order=1).ok:
                passing.append((az, inner))
    return CalibrationResult(passing, tried)


def qmm_table_to_json(table: QmmTable) -> dict:
    return {
        "N": table.chart.model.N,
        "alpha": "symbolic" if table.alpha is None else frac_str(table.alpha),
        "labels": list(table.labels),
        "gram": [[frac_str(x) for x in row] for row in table.chart.gram],
        "poisson": [[frac_str(x) for x in row] for row in table.P.matrix],
        "moments": [series_to_json(s) for s in table.moments],
    }
