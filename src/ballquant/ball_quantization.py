"""Quantization chart for the rank one solvable group and its moments.

The chart identifies the group AN, for su(1, N), with coordinates
(a, v, z) through exp(a H) exp(v) exp(z E), using the adapted solvable
basis (H, f_1 .. f_nv, E).  Group elements are stored with t = exp(-a)
so that the whole group law is rational.

On this chart every basis element X of the subalgebra spanned by the
solvable part and the compact centralizer m has a fundamental vector
field X* = d/dt|_0 of left translation by exp(-tX), and a classical
moment lambda_X with X* = -Lambda grad lambda_X for the constant
Poisson structure Lambda.  The quantum moment table extends the
classical one to the whole algebra:

    mu_X        = lambda_X                      on the solvable part,
    mu_Y        = lambda_Y + alpha zeta(Y)      on m,
    mu_sigma(w) = e^a (4 (w|v) z - ((v|v) + alpha) Omega(w, v)),
    mu_sigma(E) = e^{2a} (4 z^2 + ((v|v) + alpha)^2 + (N - 1) nu^2),

with (u|w) a fixed multiple of -beta(u, sigma w) and zeta the unique
linear functional on m with zeta([m, m]) = 0 and
zeta([f_i, sigma f_j]_m) = -Omega_ij.  verify_qmm checks the moment
identity mu_[X,Y] = (1/(2 nu)) [mu_X, mu_Y] pairwise and exactly.

The two scale conventions (the a-z Poisson weight and the inner product
scale) are not free: calibrate() runs the whole construction over a
grid and a unique pair survives, (1/2, 1/2).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .formal_star import CoefFn, NuSeries, PoissonStructure, half_commutator
from .linalg import mat_inverse, solve_in_span
from .su1n_model import Su1nModel, adapted_s_basis, build_su1n

CALIBRATED_AZ_WEIGHT = Fraction(1, 2)
CALIBRATED_INNER_SCALE = Fraction(1, 2)

TRUNCATION_ENV = "BALLQUANT_TRUNCATION_ORDER"
DEFAULT_TRUNCATION = 12


@dataclass
class BallChart:
    model: Su1nModel
    inner_scale: Fraction
    H: list
    fs: list
    E: list
    nv: int
    omega: list
    gram: list
    m_basis: list
    m_actions: list


def build_chart(N: int, inner_scale: Fraction = CALIBRATED_INNER_SCALE) -> BallChart:
    """Adapted chart data for su(1, N), exact over the rationals."""
    model = build_su1n(N)
    H, fs, E = adapted_s_basis(model)
    nv = len(fs)
    half = nv // 2
    omega = [[Fraction(0)] * nv for _ in range(nv)]
    for i in range(half):
        omega[i][half + i] = Fraction(1)
        omega[half + i][i] = Fraction(-1)
    gram = [
        [inner_scale * model.beta_sigma(u, w) / model.beta_H0 for w in fs] for u in fs
    ]
    m_basis = [b[:] for b in model.m_space.basis]
    m_actions = []
    for y in m_basis:
        cols = []
        for f in fs:
            c = solve_in_span(fs, model.algebra.bracket(y, f))
            if c is None:
                raise AssertionError("m does not preserve the short root space")
            cols.append(c)
        m_actions.append([[cols[j][i] for j in range(nv)] for i in range(nv)])
    return BallChart(model, inner_scale, H, fs, E, nv, omega, gram, m_basis, m_actions)


def poisson_structure(
    chart: BallChart, az_weight: Fraction = CALIBRATED_AZ_WEIGHT
) -> PoissonStructure:
    """Constant Poisson matrix on (a, v, z).

    The a-z entry is the weight az_weight and the v block is
    (az_weight / inner_scale) Omega; at the calibrated values this is
    the standard symplectic matrix.
    """
    dim = chart.nv + 2
    m = [[Fraction(0)] * dim for _ in range(dim)]
    m[0][dim - 1] = az_weight
    m[dim - 1][0] = -az_weight
    vscale = az_weight / chart.inner_scale
    for i in range(chart.nv):
        for j in range(chart.nv):
            m[1 + i][1 + j] = vscale * chart.omega[i][j]
    return PoissonStructure(chart.nv, m)


@dataclass
class GroupElement:
    """Point of AN in chart coordinates, with t = exp(-a)."""

    t: Fraction
    v: tuple
    z: Fraction


def _omega_pair(chart: BallChart, v1, v2) -> Fraction:
    return sum(
        (
            chart.omega[i][j] * v1[i] * v2[j]
            for i in range(chart.nv)
            for j in range(chart.nv)
        ),
        Fraction(0),
    )


def group_mul(chart: BallChart, g1: GroupElement, g2: GroupElement) -> GroupElement:
    t = g1.t * g2.t
    v = tuple(g2.t * a + b for a, b in zip(g1.v, g2.v))
    z = g2.z + g2.t**2 * g1.z + Fraction(1, 2) * g2.t * _omega_pair(chart, g1.v, g2.v)
    return GroupElement(t, v, z)


def group_identity(chart: BallChart) -> GroupElement:
    return GroupElement(Fraction(1), (Fraction(0),) * chart.nv, Fraction(0))


def group_inverse(chart: BallChart, g: GroupElement) -> GroupElement:
    return GroupElement(1 / g.t, tuple(-a / g.t for a in g.v), -g.z / g.t**2)


def _chart_coords(chart: BallChart, x: list) -> tuple:
    basis = [chart.H] + chart.fs + [chart.E] + chart.m_basis
    coords = solve_in_span(basis, x)
    if coords is None:
        raise ValueError("element lies outside the solvable part plus m")
    nv = chart.nv
    return coords[0], coords[1 : 1 + nv], coords[1 + nv], coords[2 + nv :]


def fundamental_field(chart: BallChart, x: list) -> list:
    """Components (a, v_1 .. v_nv, z) of the fundamental field of x.

    Defined for x in s + m.  The sign convention makes
    X -> X* a homomorphism of Lie algebras.
    """
    nv = chart.nv
    c_h, c_f, c_e, c_m = _chart_coords(chart, x)
    comps = [CoefFn.zero(nv) for _ in range(nv + 2)]
    zero_k = (0,) * nv

    comps[0] = CoefFn.monomial(nv, 0, zero_k, 0, 0, -c_h)
    comps[nv + 1] = comps[nv + 1].add(CoefFn.monomial(nv, -2, zero_k, 0, 0, -c_e))
    for i, ci in enumerate(c_f):
        if not ci:
            continue
        comps[1 + i] = comps[1 + i].add(CoefFn.monomial(nv, -1, zero_k, 0, 0, -ci))
        for j in range(nv):
            if chart.omega[i][j]:
                k = zero_k[:j] + (1,) + zero_k[j + 1 :]
                comps[nv + 1] = comps[nv + 1].add(
                    CoefFn.monomial(nv, -1, k, 0, 0, -ci * chart.omega[i][j] / 2)
                )
    for a_mat, cm in zip(chart.m_actions, c_m):
        if not cm:
            continue
        for i in range(nv):
            for j in range(nv):
                if a_mat[i][j]:
                    k = zero_k[:j] + (1,) + zero_k[j + 1 :]
                    comps[1 + i] = comps[1 + i].add(
                        CoefFn.monomial(nv, 0, k, 0, 0, -cm * a_mat[i][j])
                    )
    return comps


def field_bracket(f1: list, f2: list) -> list:
    """Commutator of two vector fields given by chart components."""
    n = len(f1)
    out = []
    for u in range(n):
        acc = CoefFn.zero(f1[0].nv)
        for w in range(n):
            acc = acc.add(f1[w].mul(f2[u].diff_coord(w)))
            acc = acc.sub(f2[w].mul(f1[u].diff_coord(w)))
        out.append(acc)
    return out


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
    lam = components[-1].antiderivative_z()
    for i in range(nv):
        rem = components[1 + i].sub(lam.diff_v(i))
        if not rem.is_zero():
            lam = lam.add(rem.antiderivative_v(i))
    rem_a = components[0].sub(lam.diff_a())
    if any(any(k) or q or p == 0 for (p, k, s, q) in rem_a.terms):
        residuals = [components[0].sub(lam.diff_a())]
        residuals += [components[1 + i].sub(lam.diff_v(i)) for i in range(nv)]
        residuals.append(components[-1].sub(lam.diff_z()))
        raise IntegrabilityError(residuals)
    if not rem_a.is_zero():
        lam = lam.add(rem_a.antiderivative_a())
    residuals = [components[0].sub(lam.diff_a())]
    residuals += [components[1 + i].sub(lam.diff_v(i)) for i in range(nv)]
    residuals.append(components[-1].sub(lam.diff_z()))
    if any(not r.is_zero() for r in residuals):
        raise IntegrabilityError(residuals)
    return lam


def classical_moment(chart: BallChart, x: list, P: PoissonStructure) -> CoefFn:
    """The function lambda with X* = -Lambda grad lambda.

    The additive gauge is fixed by canonical antiderivatives, plus a
    vanishing-at-identity normalization for the directions commuting
    with H (where no bracket identity pins the constant).
    """
    field = fundamental_field(chart, x)
    lam_matrix = [[-c for c in row] for row in mat_inverse(P.matrix)]
    grad = []
    for u in range(chart.nv + 2):
        acc = CoefFn.zero(chart.nv)
        for w in range(chart.nv + 2):
            if lam_matrix[u][w]:
                acc = acc.add(field[w].scale(lam_matrix[u][w]))
        grad.append(acc)
    lam = integrate_exact_gradient(grad)
    if all(c == 0 for c in chart.model.algebra.bracket(chart.H, x)):
        lam = lam.sub(lam.origin_part())
    return lam


def _solve_zeta(chart: BallChart) -> list:
    """The linear functional on m entering the quantum correction.

    Defined by zeta([m, m]) = 0 together with
    zeta([f_i, sigma f_j]_m) = -Omega_ij; both families are solved as
    one exact linear system and the solution is checked to be unique.
    """
    from .linalg import nullspace, solve_linear

    model = chart.model
    dm = len(chart.m_basis)
    if dm == 0:
        return []
    rows = []
    rhs = []
    for i in range(dm):
        for j in range(i + 1, dm):
            br = model.algebra.bracket(chart.m_basis[i], chart.m_basis[j])
            coords = solve_in_span(chart.m_basis, br)
            if coords is None:
                raise AssertionError("m is not bracket closed")
            rows.append(coords)
            rhs.append(Fraction(0))
    am_basis = [chart.H] + chart.m_basis
    for i in range(chart.nv):
        for j in range(chart.nv):
            br = model.algebra.bracket(chart.fs[i], model.apply_sigma(chart.fs[j]))
            coords = solve_in_span(am_basis, br)
            if coords is None:
                raise AssertionError("[V, sigma V] left a + m")
            rows.append(coords[1:])
            rhs.append(-chart.omega[i][j])
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise AssertionError("correction functional equations are inconsistent")
    if nullspace(rows, dm):
        raise AssertionError("correction functional is underdetermined")
    return sol


def inner_square(chart: BallChart) -> CoefFn:
    """(v|v) as a polynomial on the chart."""
    nv = chart.nv
    zero_k = (0,) * nv
    vv = CoefFn.zero(nv)
    for k in range(nv):
        for l in range(nv):
            if chart.gram[k][l]:
                kk = list(zero_k)
                kk[k] += 1
                kk[l] += 1
                vv = vv.add(CoefFn.monomial(nv, 0, tuple(kk), 0, 0, chart.gram[k][l]))
    return vv


@dataclass
class QmmTable:
    chart: BallChart
    P: PoissonStructure
    alpha: Fraction | None
    labels: list
    basis: list
    moments: list


def qmm_labels(N: int) -> list:
    """Labels of the moment table basis of su(1, N), in table order: H,
    the short root vectors f, E, the basis of m, then sigma of f and E."""
    nv, dm = 2 * (N - 1), (N - 1) ** 2
    return (
        ["H"] + [f"f{i + 1}" for i in range(nv)] + ["E"] + [f"m{i + 1}" for i in range(dm)]
        + [f"sf{j + 1}" for j in range(nv)] + ["sE"]
    )


def build_qmm(
    N: int,
    alpha: Fraction | None = None,
    az_weight: Fraction = CALIBRATED_AZ_WEIGHT,
    inner_scale: Fraction = CALIBRATED_INNER_SCALE,
) -> QmmTable:
    """Quantum moment table over the adapted basis of the whole algebra.

    alpha = None keeps the parameter symbolic; a Fraction substitutes it
    everywhere.
    """
    chart = build_chart(N, inner_scale)
    P = poisson_structure(chart, az_weight)
    nv = chart.nv
    model = chart.model
    zero_k = (0,) * nv

    labels = qmm_labels(N)
    basis = [chart.H] + [f[:] for f in chart.fs] + [chart.E]
    moments = [
        NuSeries.from_coef(classical_moment(chart, x, P), 2) for x in basis
    ]

    zeta = _solve_zeta(chart)
    alpha_fn = CoefFn.monomial(nv, 0, zero_k, 1, 0, Fraction(1))
    for i, y in enumerate(chart.m_basis):
        basis.append(y[:])
        mu = classical_moment(chart, y, P).add(alpha_fn.scale(zeta[i]))
        moments.append(NuSeries.from_coef(mu, 2))

    vv_alpha = inner_square(chart).add(alpha_fn)
    z1 = CoefFn.monomial(nv, 0, zero_k, 0, 1, Fraction(1))
    ea = CoefFn.monomial(nv, 1, zero_k, 0, 0, Fraction(1))
    e2a = CoefFn.monomial(nv, 2, zero_k, 0, 0, Fraction(1))

    for j in range(nv):
        basis.append(model.apply_sigma(chart.fs[j]))
        pairing = CoefFn.zero(nv)
        omega_j = CoefFn.zero(nv)
        for i in range(nv):
            k = zero_k[:i] + (1,) + zero_k[i + 1 :]
            if chart.gram[j][i]:
                pairing = pairing.add(CoefFn.monomial(nv, 0, k, 0, 0, chart.gram[j][i]))
            if chart.omega[j][i]:
                omega_j = omega_j.add(CoefFn.monomial(nv, 0, k, 0, 0, chart.omega[j][i]))
        mu = pairing.mul(z1).scale(Fraction(4)).sub(vv_alpha.mul(omega_j)).mul(ea)
        moments.append(NuSeries.from_coef(mu, 2))

    basis.append(model.apply_sigma(chart.E))
    z2 = CoefFn.monomial(nv, 0, zero_k, 0, 2, Fraction(4))
    mu0 = z2.add(vv_alpha.mul(vv_alpha)).mul(e2a)
    mu2 = e2a.scale(Fraction(N - 1))
    moments.append(NuSeries(2, [mu0, CoefFn.zero(nv), mu2], True))

    if alpha is not None:
        moments = [
            NuSeries(s.order, [c.substitute_alpha(alpha) for c in s.coeffs], s.exact)
            for s in moments
        ]
    return QmmTable(chart, P, alpha, labels, basis, moments)


@dataclass
class QmmReport:
    ok: bool
    order: int
    exact: bool
    checked: int
    failures: list


class TruncationOrderError(ValueError):
    """A truncation order that is not a non-negative integer."""


def resolve_truncation_order(order: int | None) -> int:
    """The given order, else BALLQUANT_TRUNCATION_ORDER, else 12; raises
    TruncationOrderError naming the source unless it is an integer >= 0."""
    source = "the order argument"
    if order is None:
        source = TRUNCATION_ENV
        raw = os.environ.get(TRUNCATION_ENV, str(DEFAULT_TRUNCATION))
        try:
            order = int(raw)
        except ValueError:
            order = raw
    if not isinstance(order, int) or order < 0:
        raise TruncationOrderError(
            f"truncation order from {source} must be a non-negative integer, got {order!r}"
        )
    return order


def verify_qmm(table: QmmTable, order: int | None = None, pairs: str = "all") -> QmmReport:
    """Check mu_[X,Y] = (1/(2 nu)) [mu_X, mu_Y] for basis pairs.

    pairs selects "all" basis pairs or only "s" (the solvable chart
    part).  Residuals are reported per failing pair; exact records
    whether every star commutator terminated inside the truncation.
    """
    order = resolve_truncation_order(order)
    if pairs == "all":
        idx = list(range(len(table.basis)))
    elif pairs == "s":
        idx = list(range(2 + table.chart.nv))
    else:
        raise ValueError("pairs must be 'all' or 's'")
    algebra = table.chart.model.algebra
    failures = []
    checked = 0
    exact = True
    lifted = [m.resize(order) for m in table.moments]
    for pos, i in enumerate(idx):
        for j in idx[pos + 1 :]:
            checked += 1
            br = algebra.bracket(table.basis[i], table.basis[j])
            coords = solve_in_span(table.basis, br)
            if coords is None:
                raise AssertionError("bracket left the table basis span")
            lhs = NuSeries.zero(table.chart.nv, order)
            for c, m in zip(coords, lifted):
                if c:
                    lhs = lhs.add(m.scale(c))
            rhs = half_commutator(lifted[i], lifted[j], table.P, order)
            exact = exact and rhs.exact
            res = lhs.sub(rhs)
            if not res.is_zero():
                failures.append((table.labels[i], table.labels[j], res))
    return QmmReport(not failures, order, exact, checked, failures)


def mutate_drop_nu2(table: QmmTable) -> QmmTable:
    """Remove every second-order coefficient from the moment table."""
    nv = table.chart.nv
    moments = [
        NuSeries(s.order, s.coeffs[:2] + [CoefFn.zero(nv)] * (s.order - 1), s.exact)
        for s in table.moments
    ]
    return QmmTable(table.chart, table.P, table.alpha, table.labels, table.basis, moments)


def mutate_add_nu_const(table: QmmTable, label: str, value: Fraction) -> QmmTable:
    """Shift the moment of one basis element by nu times a constant."""
    nv = table.chart.nv
    idx = table.labels.index(label)
    moments = list(table.moments)
    s = moments[idx]
    coeffs = list(s.coeffs)
    coeffs[1] = coeffs[1].add(CoefFn.const(nv, value))
    moments[idx] = NuSeries(s.order, coeffs, s.exact)
    return QmmTable(table.chart, table.P, table.alpha, table.labels, table.basis, moments)


@dataclass
class CalibrationResult:
    passing: list
    tried: int


CALIBRATION_GRID = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 4),
    Fraction(-1, 4),
]


def calibrate(N: int) -> CalibrationResult:
    """Search the scale grid for conventions making the table verify.

    A grid point fails if some classical moment is not integrable or if
    the moment identity already breaks at first order.  For N = 1 the
    inner product scale never enters (there are no short roots), so only
    the a-z weight is searched and the result is reported with the
    conventional value 1/2.
    """
    passing = []
    tried = 0
    inner_choices = CALIBRATION_GRID if N >= 2 else [CALIBRATED_INNER_SCALE]
    for az in CALIBRATION_GRID:
        for inner in inner_choices:
            tried += 1
            try:
                table = build_qmm(N, az_weight=az, inner_scale=inner)
            except IntegrabilityError:
                continue
            if verify_qmm(table, order=1).ok:
                passing.append((az, inner))
    return CalibrationResult(passing, tried)


def qmm_table_to_json(table: QmmTable) -> dict:
    from .formal_star import series_to_json
    from .scalars import frac_str

    return {
        "N": table.chart.model.N,
        "alpha": "symbolic" if table.alpha is None else frac_str(table.alpha),
        "labels": list(table.labels),
        "gram": [[frac_str(x) for x in row] for row in table.chart.gram],
        "poisson": [[frac_str(x) for x in row] for row in table.P.matrix],
        "moments": [series_to_json(s) for s in table.moments],
    }
