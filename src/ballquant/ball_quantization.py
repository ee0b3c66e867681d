"""Quantization chart for the rank one solvable group and its moments.

The chart identifies the group AN, for su(1, N), with coordinates
(a, v, z) through exp(a H) exp(v) exp(z E), using the adapted solvable
basis (H, f_1 .. f_nv, E).  Group elements are stored with t = exp(-a)
so that the whole group law is rational.

build_chart assembles the adapted basis of the whole algebra once, in
table order (H, f, E, m, sigma f, sigma E), as read-only vectors, with
one Frame over it; every coordinate read on the chart and in the
moment table, which shares both, goes through that frame, and brackets
of basis vectors are read there once per pair and kept (BallChart.bracket).

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

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import add
from types import MappingProxyType

from .formal_star import CoefFn, NuSeries, NuSum, PoissonStructure, half_commutator
from .formal_star import series_to_json
from .linalg import Frame, bilinear, dense, split_symplectic, transpose
from .linalg import solve_in_span  # noqa: F401, callers read it here
from .scalars import accumulate, collect, exact, frac_str, resolve_truncation_order
from .scalars import TRUNCATION_ENV, TruncationOrderError  # noqa: F401, callers read them here
from .su1n_model import Su1nModel, adapted_s_basis, build_su1n

CALIBRATED_AZ_WEIGHT = Fraction(1, 2)
CALIBRATED_INNER_SCALE = Fraction(1, 2)
_NO_TERMS = MappingProxyType({})


@dataclass(frozen=True)
class BallChart:
    model: Su1nModel
    inner_scale: Fraction
    H: MappingProxyType
    fs: list
    E: MappingProxyType
    nv: int
    omega: list
    gram: list
    m_basis: list
    basis: tuple
    frame: Frame

    @cached_property
    def _brackets(self) -> dict:
        return {}

    def bracket(self, i: int, j: int) -> MappingProxyType:
        """The read-only frame coordinates of [basis[i], basis[j]], i < j,
        read on first use and kept; a chart made by replace starts with
        none, and zero brackets share one empty mapping."""
        if (i, j) not in self._brackets:
            x = self.model.algebra.bracket(self.basis[i], self.basis[j])
            read = self.frame.require(x, f"the bracket of vectors {i} and {j} leaves the span")
            self._brackets[(i, j)] = MappingProxyType(read) if read else _NO_TERMS
        return self._brackets[(i, j)]


def build_chart(N: int, inner_scale: Fraction = CALIBRATED_INNER_SCALE) -> BallChart:
    """Adapted chart data for su(1, N), exact over the rationals.

    basis is the adapted basis of the whole algebra in qmm_labels order,
    (H, f, E, m, sigma f, sigma E), a tuple of read-only vectors: the
    model's own where it has them (H, m_basis), else ones the chart owns.
    H, fs, E and m_basis are its entries, and frame reads coordinates
    against it.
    """
    model = build_su1n(N)
    read_only = lambda x: x if isinstance(x, MappingProxyType) else MappingProxyType(x)
    H, fs, E = adapted_s_basis(model)
    fs, E = [read_only(x) for x in fs], read_only(E)
    nv = len(fs)
    omega = split_symplectic(nv)
    m_basis = list(model.m_space.basis)
    sigma = [MappingProxyType(model.apply_sigma(x)) for x in fs + [E]]
    basis = (H, *fs, E, *m_basis, *sigma)
    frame = Frame(basis)
    gram = [
        [-inner_scale * model.beta_form(u, sw) / model.beta_H0 for sw in sigma[:nv]] for u in fs
    ]
    return BallChart(model, inner_scale, H, fs, E, nv, omega, gram, m_basis, basis, frame)


def _within(coords, what: str, *blocks: range):
    """coords, read in the chart frame; ValueError(what) when it has a
    nonzero coordinate outside the given blocks of positions."""
    if not all(any(k in block for block in blocks) for k in coords):
        raise ValueError(what)
    return coords


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
    zero_k, unit = (0,) * nv, _units(nv)
    items = [[] for _ in range(nv + 2)]
    for k, c in coords.items():
        if k == 0:
            items[0].append(((0, zero_k, 0, 0), -c))
        elif k <= nv:
            items[k].append(((-1, zero_k, 0, 0), -c))
            items[nv + 1] += [
                ((-1, unit[j], 0, 0), -c * w / 2) for j, w in enumerate(chart.omega[k - 1]) if w
            ]
        elif k == nv + 1:
            items[nv + 1].append(((-2, zero_k, 0, 0), -c))
        else:
            for j in range(nv):
                col = _within(chart.bracket(1 + j, k), m_action, range(1, 1 + nv))
                for i, a in col.items():
                    items[i].append(((0, unit[j], 0, 0), c * a))
    return [CoefFn(nv, collect(terms)) for terms in items]


def _units(nv: int) -> list:
    """The unit multi-indices over v_1 .. v_nv."""
    return [tuple(int(i == j) for i in range(nv)) for j in range(nv)]


def apply_field(field: list, f: CoefFn) -> CoefFn:
    """The derivative of f along the vector field with chart components
    field: the sum of field[w] d_w f, accumulated in place."""
    acc = {}
    for w, comp in enumerate(field):
        if comp.terms:
            accumulate(acc, comp.mul_items(f.diff_coord(w)))
    return CoefFn(f.nv, acc)


def field_bracket(f1: list, f2: list) -> list:
    """Commutator of two vector fields given by chart components."""
    return [apply_field(f1, b).sub(apply_field(f2, a)) for a, b in zip(f1, f2)]


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
        rem = components[1 + i].sub(lam.diff_v(i))
        if not rem.is_zero():
            lam = lam.add(rem.antiderivative_v(i))
    rem_a = components[0].sub(lam.diff_a())
    if any(any(k) or q or p == 0 for (p, k, s, q) in rem_a.terms):
        raise IntegrabilityError(residuals(lam))
    if not rem_a.is_zero():
        lam = lam.add(rem_a.antiderivative_a())
    mismatch = residuals(lam)
    if any(not r.is_zero() for r in mismatch):
        raise IntegrabilityError(mismatch)
    return lam


def classical_moment(chart: BallChart, x: dict, P: PoissonStructure) -> CoefFn:
    """The function lambda with X* = -Lambda grad lambda.

    The additive gauge is fixed by canonical antiderivatives, plus a
    vanishing-at-identity normalization for the directions commuting
    with H (where no bracket identity pins the constant).  [H, x] is
    read through the chart's kept brackets [basis[0], basis[k]].
    """
    field = fundamental_field(chart, x)
    grad = []
    for row in P.inverse:
        items = (kv for c, comp in zip(row, field) if c for kv in comp.scale(-c).terms.items())
        grad.append(CoefFn(chart.nv, collect(items)))
    lam = integrate_exact_gradient(grad)
    coords = chart.frame.coords(x).items()
    if not collect((l, c * v) for k, c in coords if k for l, v in chart.bracket(0, k).items()):
        lam = lam.sub(lam.origin_part())
    return lam


def _solve_zeta(chart: BallChart) -> list:
    """The linear functional on m entering the quantum correction.

    Defined by zeta([m, m]) = 0 together with
    zeta([f_i, sigma f_j]_m) = -Omega_ij; both families are the chart's
    brackets, solved as one exact linear system, read as coordinates
    against the columns of its matrix; independent columns make the
    solution unique.
    """
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
    return dense(zeta, dm)


def inner_square(chart: BallChart) -> CoefFn:
    """(v|v) as a polynomial on the chart."""
    nv, unit = chart.nv, _units(chart.nv)
    return CoefFn(
        nv,
        collect(
            ((0, tuple(map(add, unit[k], unit[l])), 0, 0), chart.gram[k][l])
            for k in range(nv)
            for l in range(nv)
        ),
    )


@dataclass(frozen=True)
class QmmTable:
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


def build_qmm(
    N: int,
    alpha: Fraction | None = None,
    az_weight: Fraction = CALIBRATED_AZ_WEIGHT,
    inner_scale: Fraction = CALIBRATED_INNER_SCALE,
) -> QmmTable:
    """Quantum moment table over the adapted basis of the whole algebra.

    alpha = None keeps the parameter symbolic; a Fraction substitutes it
    everywhere.  alpha, az_weight and inner_scale are ints or Fractions,
    else TypeError.
    """
    alpha = None if alpha is None else exact(alpha, "alpha")
    az_weight, inner_scale = exact(az_weight, "az_weight"), exact(inner_scale, "inner_scale")
    chart = build_chart(N, inner_scale)
    P = poisson_structure(chart, az_weight)
    nv = chart.nv
    zero_k, unit = (0,) * nv, _units(nv)

    alpha_fn = CoefFn.monomial(nv, 0, zero_k, 1, 0, Fraction(1))
    zeta = [0] * (2 + nv) + _solve_zeta(chart)  # zero on s; the zip stops after m
    moments = []
    for x, z in zip(chart.basis, zeta):
        mu = classical_moment(chart, x, P).add(alpha_fn.scale(z))
        moments.append(NuSeries.from_coef(mu, 2))

    vv_alpha = inner_square(chart).add(alpha_fn)
    z1 = CoefFn.monomial(nv, 0, zero_k, 0, 1, Fraction(1))
    ea = CoefFn.monomial(nv, 1, zero_k, 0, 0, Fraction(1))
    e2a = CoefFn.monomial(nv, 2, zero_k, 0, 0, Fraction(1))

    for j in range(nv):
        pairing = CoefFn(nv, collect(((0, k, 0, 0), x) for k, x in zip(unit, chart.gram[j])))
        omega_j = CoefFn(nv, collect(((0, k, 0, 0), x) for k, x in zip(unit, chart.omega[j])))
        mu = pairing.mul(z1).scale(Fraction(4)).sub(vv_alpha.mul(omega_j)).mul(ea)
        moments.append(NuSeries.from_coef(mu, 2))

    z2 = CoefFn.monomial(nv, 0, zero_k, 0, 2, Fraction(4))
    mu0 = z2.add(vv_alpha.mul(vv_alpha)).mul(e2a)
    mu2 = e2a.scale(Fraction(N - 1))
    moments.append(NuSeries(2, [mu0, CoefFn.zero(nv), mu2], True))

    if alpha is not None:
        moments = [
            NuSeries(s.order, [c.substitute_alpha(alpha) for c in s.coeffs], s.exact)
            for s in moments
        ]
    return QmmTable(chart, P, alpha, qmm_labels(N), chart.basis, chart.frame, moments)


@dataclass
class QmmReport:
    ok: bool
    order: int
    exact: bool
    checked: int
    failures: list


def verify_qmm(table: QmmTable, order: int | None = None, pairs: str = "all") -> QmmReport:
    """Check mu_[X,Y] = (1/(2 nu)) [mu_X, mu_Y] for basis pairs.

    pairs "all" checks the pairs i < j of the whole table basis, "s" those
    of its first 2 + nv vectors (H, f, E: the solvable chart part).  Each
    pair is summed in one NuSum: half_commutator lands the commutator
    there, the sum's exact flag is read, and then the left side is
    subtracted.  A pair fails when that sum is nonzero, and its residual
    is reported negated, as the left side minus the commutator.  exact
    is the AND of the commutators' own flags, so it records whether
    every star commutator terminated inside the truncation.

    Each moment is resized to the order once, into fresh coefficients
    whose derivative memos (CoefFn.step) and exponent caps (CoefFn.caps)
    fill as the pairs are walked, on either side of a transvection, so
    each derivative is taken at most once per call.  The joint walk of
    two coefficients is not kept: half_commutator takes it once per pair
    and drops it when the pair is summed.  The resized copies, their
    memos and caps with them, are dropped on return, so the table's own
    coefficients gain none.  The left sides are the chart's brackets
    (BallChart.bracket), each pair read once per chart: a table, its
    mutations (which share its chart) and both pair sets read the same
    kept pairs, and the s pairs read only brackets of the solvable part.
    """
    order = resolve_truncation_order(order)
    chart, nv = table.chart, table.chart.nv
    if pairs == "all":
        n = len(table.basis)
    elif pairs == "s":
        n = 2 + nv
    else:
        raise ValueError("pairs must be 'all' or 's'")
    failures = []
    exact = True
    lifted = [m.resize(order) for m in table.moments]
    for i in range(n):
        for j in range(i + 1, n):
            res = half_commutator(lifted[i], lifted[j], table.P, order, NuSum(nv, order))
            exact = exact and res.exact
            for k, c in chart.bracket(i, j).items():
                res.add(lifted[k], -c)
            res = res.series()
            if not res.is_zero():
                failures.append((table.labels[i], table.labels[j], res.scale(-1)))
    return QmmReport(not failures, order, exact, comb(n, 2), failures)


def mutate_drop_nu2(table: QmmTable) -> QmmTable:
    """Remove every second-order coefficient from the moment table."""
    nv = table.chart.nv
    moments = [
        NuSeries(s.order, s.coeffs[:2] + [CoefFn.zero(nv)] * (s.order - 1), s.exact)
        for s in table.moments
    ]
    return replace(table, moments=moments)


def mutate_add_nu_const(table: QmmTable, label: str, value: Fraction) -> QmmTable:
    """Shift the moment of one basis element by nu times a constant, an
    int or a Fraction (else TypeError)."""
    value = exact(value, "value")
    nv = table.chart.nv
    idx = table.labels.index(label)
    moments = list(table.moments)
    shifted = NuSum(nv, moments[idx].order).add(moments[idx])
    shifted.land(1, CoefFn.const(nv, value).terms.items())
    moments[idx] = shifted.series()
    return replace(table, moments=moments)


@dataclass
class CalibrationResult:
    passing: list
    tried: int


CALIBRATION_GRID = [s * Fraction(x) for x in (1, 2, "1/2", "1/4") for s in (1, -1)]


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
    return {
        "N": table.chart.model.N,
        "alpha": "symbolic" if table.alpha is None else frac_str(table.alpha),
        "labels": list(table.labels),
        "gram": [[frac_str(x) for x in row] for row in table.chart.gram],
        "poisson": [[frac_str(x) for x in row] for row in table.P.matrix],
        "moments": [series_to_json(s) for s in table.moments],
    }
