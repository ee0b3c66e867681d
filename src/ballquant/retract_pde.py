"""Radial reduction of the quantized action.

The sigma-fixed subalgebra k acts on chart functions through the
operators

    D_X = (1/(2 nu)) [mu_X, - ]_star,

which are honest differential operators with nu-series coefficients
because every Moyal term differentiates the polynomial moment mu_X.
For X in m the corrections vanish and D_X is the fundamental field, so
m-invariant functions are exactly the functions of (a, r^2, z) with
r^2 = (v|v); radial_reduce rewrites them in that form.

retract_operator takes the one-sided transvection walk of formal_star
once per stored power of mu_X, for every size up to the first odd order
past the truncation, each derivative of mu_X derived from its parent by
one step.  The operator is carried in Z: mu_X is lifted by the common
denominator D of its coefficients, and the walk term of odd size m, with
its int weight, is scaled by the int S / (m! delta^m), where
S = top! delta^top and top is the walk limit of nu^0, the largest.  It
lands every odd size, that last one included, in the NuSum of the
derivative multi-index each term puts on the argument, packed as the
walk packs it; at the end each key is unpacked once and each
coefficient of its NuSum's dicts, as they landed, is divided once, by
S D, into its series.  As for every series of formal_star, land is the
one point where a term past the order is dropped, clearing that NuSum's
exact flag, and the operator is exact when mu_X and all its NuSums are.
apply_operator differentiates each stored coefficient of its argument
once per key that its exponent caps (CoefFn.caps) allow, since a key
past a cap gives zero, and skips a key that leaves no derivative.  It
sums each product within the order straight into one NuSum and forms
none past it: a product of nonzero chart functions is nonzero, so one
that falls past the order only clears the exact flag, which is the flag
that resizing both sides to the order and multiplying would give.

After a partial Fourier transform in z the operator for sigma(v0),
applied to a radial symbol theta(a, r, xi), closes on coefficients
generated by e^{ka}, integer powers of r and xi, and half powers of
1 - nu^2 xi^2.  XiFn implements that coefficient calculus exactly: its
ring arithmetic is the SparseSum core of scalars, shared with CoefFn,
and it adds only the rules of the half-power axis (diff_xi, canonical,
expand_nu and a zero test through canonical).  The binomial series of a
half power is summed by the ratio of consecutive coefficients, one row
per exponent and length, reused by every term that needs it.

radial_pde_residual evaluates the operator, split along the two
covectors (w|v) and Omega(w, v) of the direction vector w.  The
operator is a table, built once per n, from each derivative of theta
(theta, d_a, d_r, d_rr, d_rrr, d_a d_r, d_xi and d_xi d_r) to its pair of
XiFn coefficients; each call takes each derivative once and accumulates
every coefficient-derivative product in place into one term dict per
covector.  Products of XiFn only add exponent keys, so grouping the
constant factors this way gives the very terms of the operator written
term by term.

The radial calculus needs scalars alone: the functions on the chart and
the moment table import the star product, chart and Lie modules where
they run, so a process that only evaluates radial_pde_residual loads
none of them.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm
from operator import add, le
from types import MappingProxyType

from .scalars import GScalar, SparseSum, collect, frac_str, keyed, parse_frac, shaped
from .scalars import Record, resolve_truncation_order


class XiFn(SparseSum, Record, frozen=True):
    """Coefficient function of (a, r, xi) in the radial calculus.

    terms maps (k, m, n, h, j) to a Gaussian rational multiplying

        e^{k a} r^m xi^n (1 - nu^2 xi^2)^{h/2} nu^j,

    with m, n, h integers of either sign and j >= 0.  The representation
    is not unique because even powers of the square root factor expand;
    use canonical or is_zero for comparisons.
    """

    terms: dict

    def __init__(self, terms: dict):
        object.__setattr__(self, "terms", terms)  # past the frozen __setattr__, as CoefFn does

    def _new(self, terms: dict) -> XiFn:
        return XiFn(terms)

    @staticmethod
    def _key_mul(k1, k2):
        return tuple(map(add, k1, k2))

    def diff_a(self) -> XiFn:
        return XiFn({key: c.scale(key[0]) for key, c in self.terms.items() if key[0]})

    def diff_r(self) -> XiFn:
        return XiFn(
            {(k, m - 1, n, h, j): c.scale(m) for (k, m, n, h, j), c in self.terms.items() if m}
        )

    def diff_xi(self) -> XiFn:
        """d/dxi; the square root factor differentiates to
        -h nu^2 xi (1 - nu^2 xi^2)^{(h-2)/2}."""
        items = []
        for (k, m, n, h, j), c in self.terms.items():
            items.append(((k, m, n - 1, h, j), c.scale(n)))
            items.append(((k, m, n + 1, h - 2, j + 2), c.scale(-h)))
        return XiFn(collect(items))

    def canonical(self) -> XiFn:
        """Push every even half-power to a common exponent and every odd
        one likewise, multiplying the difference out as a polynomial."""
        odd = [h for (_, _, _, h, _) in self.terms if h % 2]
        even = [h for (_, _, _, h, _) in self.terms if h % 2 == 0]
        target_odd = min(odd) if odd else 0
        target_even = min([0] + even)
        items = []
        for key, c in self.terms.items():
            target = target_odd if key[3] % 2 else target_even
            d = (key[3] - target) // 2
            items += _binomial_terms(key, c, 2 * d, target, d + 1)
        return XiFn(collect(items))

    def is_zero(self) -> bool:
        return not self.canonical().terms

    def expand_nu(self, order: int) -> XiFn:
        """Expand the square root factors into nu series, truncated past
        nu^order.  Integer powers terminate on their own."""
        items = []
        for key, c in self.terms.items():
            _, _, _, h, j = key
            if j <= order:
                count = (order - j) // 2 + 1 if h else 1
                items += _binomial_terms(key, c, h, 0, count)
        return XiFn(collect(items))


@lru_cache(maxsize=256)
def _binomial_row(e2: int, count: int) -> tuple:
    """The signed coefficients b_t = (-1)^t binom(e, t), e = e2 / 2, for
    t < count, by b_{t+1} = b_t (t - e) / (t + 1), keyed by the int e2."""
    row, b, e = [], Fraction(1), Fraction(e2, 2)
    for t in range(count):
        row.append(b)
        b = b * (t - e) / (t + 1)
    return tuple(row)


def _binomial_terms(key: tuple, c: GScalar, e2: int, h: int, count: int) -> list:
    """The first count terms of c (1 - nu^2 xi^2)^(e2/2) times the
    monomial of key, with its half power replaced by h."""
    k, m, n, _, j = key
    row = _binomial_row(e2, count)
    return [((k, m, n + 2 * t, h, j + 2 * t), c.scale(b)) for t, b in enumerate(row)]


def xifn_to_json(f: XiFn) -> dict:
    terms = [
        [k, m, n, h, j, frac_str(c.re), frac_str(c.im)]
        for (k, m, n, h, j), c in sorted(f.terms.items())
    ]
    return {"terms": terms}


def xifn_from_json(data: dict) -> XiFn:
    """Sum the listed terms [k, m, n, h, j, re, im]: int exponents, the nu power >= 0."""
    items = []
    (terms,) = keyed(data, "an XiFn", "terms")
    for term in shaped(terms, list, "terms"):
        if len(shaped(term, list, "a term")) != 7:
            raise ValueError(f"an XiFn term must have 7 items, got {term!r}")
        *key, re, im = term
        if any(type(e) is not int for e in key) or key[4] < 0:
            raise ValueError(f"XiFn exponents must be five ints, the nu power >= 0, got {key!r}")
        items.append((tuple(key), GScalar(parse_frac(re), parse_frac(im))))
    return XiFn(collect(items))


class ClosureReport(Record):
    ok: bool
    dim_w: int
    dim_filled: int
    failures: list


def check_reduction_closure(model: Su1nModel) -> ClosureReport:
    """Check that W = s + m + g_(-1) is stable under ad s and W + [W, W] = g,
    off the root grading build_su1n certifies: g is the direct sum of the root
    spaces g_t of ad H0, and by Jacobi [g_a, g_b] lies in g_(a+b).  failures
    names the failed premises (dim W is the sum of the dim g_t with t >= -1,
    g_(-2) is a line, all dim g_t sum to dim g; s lies in a + g_1 + g_2) and
    the (t, k) of each basis vector k of a g_t, t >= -1, outside W.  With
    none, W is the sum of those g_t, so [s, W] lies in W, and only
    [g_(-1), g_(-1)] of [W, W] leaves W, into the line g_(-2): W + [W, W] = g
    exactly when a bracket of two g_(-1) basis vectors is nonzero.  They are
    read until one is; dim_filled is dim W + 1 then, else dim W.
    """
    from .lie_core import span_subspace

    spaces = {r.lambda_of_H[0]: r.space.basis for r in model.roots}
    lower, graded = spaces.get(-1, ()), {t: b for t, b in spaces.items() if t >= -1}
    w = span_subspace([*model.s_space.basis, *model.m_space.basis, *lower])
    upper = span_subspace([*model.a_space.basis, *spaces.get(1, ()), *spaces.get(2, ())])
    failures = [(t, k) for t, b in graded.items() for k, x in enumerate(b) if not w.contains(x)]
    dims = [w.dim, len(spaces.get(-2, ())), sum(map(len, spaces.values()))]
    if dims != [sum(map(len, graded.values())), 1, len(model.matrices)]:
        failures.append("the dimensions of W, g_(-2) and g are not those of the root grading")
    if not all(map(upper.contains, model.s_space.basis)):
        failures.append("s leaves a + g_1 + g_2")
    filled = not failures and any(model.bracket(x, y) for x, y in combinations(lower, 2))
    return ClosureReport(filled, w.dim, w.dim + filled, failures)


def m_invariance_residuals(chart: BallChart, f: CoefFn) -> list:
    """Lie derivatives of f along the m fundamental fields, one per
    generator; all zero exactly when f is m-invariant."""
    from .ball_quantization import apply_field, fundamental_field

    return [apply_field(fundamental_field(chart, y), f) for y in chart.m_basis]


def radial_reduce(chart: BallChart, f: CoefFn) -> dict:
    """Write an m-invariant chart polynomial as a sum of
    c e^{p a} (v|v)^s z^q, returned as {(p, s, q): c}.

    Raises ValueError when f is not m-invariant or (for the trivial m of
    low rank charts) not a polynomial in the squared radius.
    """
    from .ball_quantization import inner_square
    from .formal_star import CoefFn
    from .linalg import solve_in_span

    for r in m_invariance_residuals(chart, f):
        if not r.is_zero():
            raise ValueError("function is not m-invariant")
    nv = chart.nv
    u = inner_square(chart)
    groups: dict = {}
    for (p, k, apow, q), c in f.decoded().items():
        if apow:
            raise ValueError("the alpha parameter is not supported here")
        groups.setdefault((p, q), {})[k] = c
    out: dict = {}
    for (p, q), vterms in sorted(groups.items()):
        deg = max(sum(k) for k in vterms)
        if deg % 2:
            raise ValueError("odd v-degree part cannot be radial")
        powers = [CoefFn.const(nv, Fraction(1))]
        for _ in range(deg // 2):
            powers.append(powers[-1].mul(u))
        powers = [pw.decoded() for pw in powers]
        monos = {k for pw in powers for (_, k, _, _) in pw} | set(vterms)
        index = {k: r for r, k in enumerate(sorted(monos))}
        sol = solve_in_span(
            [{index[k]: c for (_, k, _, _), c in pw.items()} for pw in powers],
            {index[k]: c for k, c in vterms.items()},
        )
        if sol is None:
            raise ValueError("not a polynomial in the squared radius")
        out.update(((p, s, q), c) for s, c in enumerate(sol) if c)
    return out


def k_basis(chart: BallChart):
    """Basis of the sigma-fixed subalgebra adapted to the chart: the m
    generators, then f_i + sigma f_i, then E + sigma E, with the sigma
    images read from the chart basis."""
    from .linalg import vec_add

    labels = [f"m{i + 1}" for i in range(len(chart.m_basis))]
    labels += [f"kf{i + 1}" for i in range(chart.nv)] + ["kE"]
    sigma = chart.basis[-(chart.nv + 1) :]
    vecs = chart.m_basis + [vec_add(x, sx) for x, sx in zip(chart.fs + [chart.E], sigma)]
    return labels, vecs


def retract_operator(table: QmmTable, x: dict, order: int | None = None) -> dict:
    """The action (1/(2 nu)) [mu_x, - ]_star as a differential operator.

    Keys are derivative multi-indices over the chart coordinates
    (a, v_1 .. v_nv, z); values are the NuSeries coefficients up to the
    requested truncation order.  Only odd Moyal terms survive the
    commutator, and the term of order m on mu_x's nu^i coefficient
    contributes at nu^(i+m-1).  For every nu^i the walk runs up to the
    first odd m past the truncation, and each odd size lands in the NuSum
    of its key.  All series share one exact flag: mu_x's and that of
    every NuSum, which land clears for a term past the order.  Every
    longer multiset contains one of that first size, so an exact operator
    dropped no term, not even from a key that lies wholly past the
    truncation and so is absent from the result.
    """
    from .formal_star import CoefFn, NuSeries, NuSum, key_layout, transvection_terms

    order = resolve_truncation_order(order)
    coords = table.frame.require(x, "vector lies outside the moment table")
    nv, delta = table.chart.nv, table.P.delta
    mu = NuSum(nv, 2)
    for k, c in coords.items():
        mu.add(table.moments[k], c)
    mu = mu.series()
    D = lcm(*(c.denominator for f in mu.terms.values() for c in f.terms.values()))
    top = (order + 2) | 1  # the largest walk limit, that of nu^0
    S = factorial(top) * delta**top
    buckets = defaultdict(lambda: NuSum(nv, order))
    for i, f in mu.terms.items():
        f = CoefFn(nv, {k: c.numerator * (D // c.denominator) for k, c in f.terms.items()})
        past = (order - i + 2) | 1  # the first odd m with i + m - 1 > order
        terms, = transvection_terms(f, None, table.P, past, odd=True)
        for m in range(1, len(terms), 2):
            scale = S // (factorial(m) * delta**m)
            for w, dw, _, weight in terms[m]:
                wt = weight * scale
                buckets[w].land(i + m - 1, [(k, v * wt) for k, v in dw.terms.items()])
    exact = mu.exact and all(s.exact for s in buckets.values())
    index, SD = key_layout(nv).index, S * D
    out = {}
    for w, s in buckets.items():
        terms = {
            t: CoefFn(nv, {k: Fraction(v, SD) for k, v in d.items()})
            for t, d in sorted(s.terms.items()) if d
        }
        if terms:
            out[index(w)] = NuSeries(nv, order, terms, exact)
    return out


def apply_operator(op: dict, theta: NuSeries, order: int | None = None) -> NuSeries:
    """Apply a differential operator from retract_operator to a series.

    One pass over the operator's keys checks each key's nv, folds its
    series into the exact flag and differentiates theta within the caps.
    exact is what resizing both sides to the order and multiplying would
    give: it needs exact inputs with nothing past the order, and it is
    cleared, with no product formed, when a product of nonzero
    coefficients, itself nonzero because chart functions form an
    integral domain, falls past the order.  An empty operator gives the
    exact zero series.
    """
    from .formal_star import NuSum

    order = resolve_truncation_order(order)
    nv = theta.nv
    exact = theta.exact and max(theta.terms, default=0) <= order
    out = NuSum(nv, order)
    thetas = [(j, c, c.caps) for j, c in theta.terms.items()]
    for key, series in op.items():
        if series.nv != nv:
            raise ValueError(f"an operator on {series.nv} v coordinates and a series on {nv} differ")
        exact = exact and series.exact and max(series.terms, default=0) <= order
        dthetas = [
            (j, d) for j, c, caps in thetas if all(map(le, key, caps)) and (d := c.diff(key)).terms
        ]
        for i, f in series.terms.items() if dthetas else ():
            for j, d in dthetas:
                if i + j <= order:
                    f.mul_into(out.terms[i + j], d)
                else:
                    exact = False
    out.exact = exact or not op
    return out.series()


def _xt(k=0, m=0, n=0, h=0, j=0, re=0, im=0):
    return XiFn({(k, m, n, h, j): GScalar.of(re, im)})


# One step of a derivative of theta in the radial table.
_STEPS = {"a": XiFn.diff_a, "r": XiFn.diff_r, "xi": XiFn.diff_xi}


@lru_cache(maxsize=64)
def _radial_table(n: int) -> MappingProxyType:
    """The radial operator for sigma(v0) in dimension n as a read-only
    table, built once per n.

    Each derivative of theta, written as its steps d_a, d_r, d_xi applied
    left to right, maps to its pair of XiFn coefficients along (w|v) and
    Omega(w, v).  Every derivative follows one already in the table, so
    the table can be walked in order, one step per entry.  S is the half
    power (1 - nu^2 xi^2)^{1/2} and n_w = 2n - 3.
    """
    one, s = _xt(re=1), _xt(h=1, re=1)
    s_minus = s.sub(one)
    lift = one.add(s).mul(_xt(m=2, re=1)).add(_xt(re=2))  # (1 + S) r^2 + 2
    e_plus = _xt(k=1, re=-1).mul(one.add(s))  # -e^a (1 + S)
    front = _xt(k=1, n=-1, im=1).mul(s_minus)  # i e^a (S - 1) / xi
    back = _xt(k=1, m=-1, n=-2, re=Fraction(1, 2)).mul(s_minus)  # e^a (S - 1) / (2 r xi^2)
    n_w = 2 * n - 3
    drag = _xt(k=1, m=1, re=1).mul(s_minus).add(_xt(k=-1, re=-1))  # (e^a (S - 1) - e^{-a} / r) r
    om_r = drag.add(_xt(k=1, m=-1, re=Fraction(1, 2)).mul(lift)).add(back.mul(_xt(m=-2, re=n_w)))
    none = XiFn({})
    return MappingProxyType({
        (): (_xt(k=1, n=1, im=1).mul(lift).add(_xt(n=2, re=-2)), e_plus),
        ("a",): (none, e_plus),
        ("r",): (front.mul(_xt(m=-1, re=-(n_w + 2))), om_r),
        ("r", "r"): (front, back.mul(_xt(m=-1, re=-n_w))),
        ("r", "r", "r"): (none, back.neg()),
        ("r", "a"): (front.mul(_xt(m=-1, re=-2)), none),
        ("xi",): (none, _xt(k=1, n=1, h=1, re=-2)),
        ("r", "xi"): (_xt(k=1, m=-1, h=1, im=-4), none),
    })


def radial_pde_residual(theta: XiFn, n: int, order: int | None = None):
    """Radial operator for the direction sigma(v0) applied to theta.

    theta is a radial symbol theta(a, r, xi) and n the complex dimension
    of the domain.  Returns the exact pair of XiFn coefficients along
    (w|v) and Omega(w, v); pass order to expand the square root factors
    into truncated nu series instead.  An order is checked as
    resolve_truncation_order checks it; n must be an integer of at least
    2, since v0 lies in V of dimension 2(n - 1).
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"the dimension n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"the dimension n must be at least 2, got {n}")
    if order is not None:
        order = resolve_truncation_order(order)
    derivs = {(): theta}
    wv, om = {}, {}
    for path, (c_wv, c_om) in _radial_table(n).items():
        if path:
            derivs[path] = _STEPS[path[-1]](derivs[path[:-1]])
        c_wv.mul_into(wv, derivs[path])
        c_om.mul_into(om, derivs[path])
    wv, om = XiFn(wv), XiFn(om)
    if order is not None:
        return wv.expand_nu(order), om.expand_nu(order)
    return wv, om
