"""The four benchmark workloads.

Each workload builds its exact objects cold in ``setup``; ``steps``
lists the parts of one full pass of its checks, in order.  ``setup`` and
every step return a list of ``(check, ok, detail)`` triples: ``ok`` says whether the answer matched
what this commit is known to produce, ``detail`` is a short canonical
string of the output, hashed to compare a traced pass with an untraced
one.  Inputs come only from the seed.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ballquant import (
    ball_quantization as bq,
    ce_cohomology as ce,
    psd_builder as pb,
    retract_pde as rp,
    su1n_model as sm,
)
from ballquant.formal_star import CoefFn, NuSeries
from ballquant.retract_pde import XiFn
from ballquant.scalars import GScalar
from tracer import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Captured before any wrapper is installed, so the cache can always be
# cleared through the lru_cache object itself.
BUILD_SU1N = sm.build_su1n

N_CHART = 3
QMM_ORDER = 12
RETRACT_ORDER = 8
PDE_ORDER = 12


def _cold_start() -> bool:
    """Drop both model caches; True when nothing cached survived."""
    BUILD_SU1N.cache_clear()
    sm._S_SUBMODELS.clear()
    return BUILD_SU1N.cache_info().currsize == 0 and not sm._S_SUBMODELS


def _cold_check(was_cold: bool, expected_misses: int) -> tuple:
    info = BUILD_SU1N.cache_info()
    ok = was_cold and info.misses == expected_misses
    return ("setup.cold", ok, f"misses={info.misses}")


def digest(checks: list) -> str:
    h = hashlib.sha256()
    for name, ok, detail in checks:
        h.update(f"{name}|{ok}|{detail}\n".encode())
    return h.hexdigest()


def _rational(rng: random.Random) -> Fraction:
    """A seeded rational with a three digit numerator and denominator."""
    while True:
        p, q = rng.randint(101, 999), rng.randint(101, 999)
        value = Fraction(rng.choice([-1, 1]) * p, q)
        if value.denominator > 100:
            return value


def _series_detail(s: NuSeries) -> str:
    return ";".join(
        f"{i}:{len(c.terms)}:{sum(map(abs, c.terms.values()))}" for i, c in enumerate(s.coeffs)
    )


class Qmm:
    """verify_qmm over all pairs at N = 3, symbolic and seeded alpha,
    plus the two planted mutations that must fail."""

    def __init__(self, seed: int):
        self.alpha = _rational(random.Random(seed))

    def setup(self) -> list:
        cold = _cold_start()
        self.sym = bq.build_qmm(N_CHART, None)
        self.rat = bq.build_qmm(N_CHART, self.alpha)
        return [_cold_check(cold, 1)]

    def _report(self, name: str, table, must_pass: bool) -> tuple:
        rep = bq.verify_qmm(table, order=QMM_ORDER, pairs="all")
        residual_nonzero = all(not res.is_zero() for _, _, res in rep.failures)
        if must_pass:
            ok = rep.ok and rep.exact and rep.checked == EXPECTED["qmm"]["pairs"]
        else:
            ok = not rep.ok and bool(rep.failures) and residual_nonzero
        failed = ",".join(f"{a}-{b}" for a, b, _ in rep.failures)
        residuals = "|".join(_series_detail(res) for _, _, res in rep.failures)
        return (name, ok, f"{rep.ok}/{rep.exact}/{rep.checked}/{failed}/{residuals}")

    def steps(self) -> list:
        return [
            lambda: [self._report("qmm.symbolic", self.sym, True)],
            lambda: [self._report("qmm.rational", self.rat, True)],
            lambda: [self._report("qmm.drop-nu2", bq.mutate_drop_nu2(self.rat), False)],
            lambda: [
                self._report(
                    "qmm.add-nu-const", bq.mutate_add_nu_const(self.rat, "E", Fraction(1)), False
                )
            ],
        ]


BLOCK_SPECS = [[3, 2, 3], [3, 3, 3], [4, 4], [3]]


class Structure:
    """The Lie layer and exact linear algebra: su(1,3), block algebras,
    cohomology, cocycle tests and the reduction geometry."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list:
        cold = _cold_start()
        self.model = sm.build_su1n(N_CHART)
        self.psds = {",".join(map(str, b)): pb.build_psd(pb.PsdSpec(len(b), b)) for b in BLOCK_SPECS}
        return [_cold_check(cold, 1)]

    def _cochain_checks(self, key: str, psd, rng: random.Random) -> list:
        g = psd.algebra
        basis = ce.cocycle_space(g)
        exp = EXPECTED["structure"]["cocycle_dim"][key]
        out = [(f"cocycle_space.{key}", len(basis) == exp, str(len(basis)))]
        h_idx = [psd.blocks[j]["H"] for j in range(1, psd.spec.r + 1)]
        agree = closed_ok = prim_ok = 0
        for _ in range(3):
            c = ce.random_two_cochain(g.dim, rng)
            agree += ce.is_cocycle(g, c) == ce.check_psd_cocycle_conditions(psd, c).ok
            closed = ce.zero_two_cochain(g.dim)
            for b in basis:
                w = Fraction(rng.randint(-3, 3))
                for i in range(g.dim):
                    for j in range(g.dim):
                        closed.data[i][j] += w * b.data[i][j]
            closed_ok += ce.is_cocycle(g, closed) and ce.check_psd_cocycle_conditions(psd, closed).ok
            for a in h_idx:
                for b in h_idx:
                    closed.data[a][b] = Fraction(0)
            alpha = ce.coboundary_primitive_psd(psd, closed)
            prim_ok += ce.delta(g, alpha).data == closed.data
        out.append((f"cochains.{key}", agree == closed_ok == prim_ok == 3, f"{agree}{closed_ok}{prim_ok}"))
        return out

    def steps(self) -> list:
        return [self._pass]

    def _pass(self) -> list:
        # s_submodel keeps its own cache; every pass rebuilds it so that
        # passes do equal work.
        sm._S_SUBMODELS.clear()
        exp = EXPECTED["structure"]
        model = self.model
        rng = random.Random(self.seed)
        out = []
        pairing = sm.verify_sigma_pairing(model)
        ortho = sm.verify_m_orthocomplement(model)
        out.append(("sigma_pairing", pairing.ok, str(pairing.checked)))
        out.append(("m_orthocomplement", ortho.ok, str(ortho.checked)))
        h2 = ce.h2_dimension(model.algebra)
        out.append(("h2.su1n", h2 == exp["h2"]["su1n"], str(h2)))
        for key, psd in self.psds.items():
            h2 = ce.h2_dimension(psd.algebra)
            out.append((f"h2.{key}", h2 == exp["h2"][key], str(h2)))
        sub, basis = ce.invariant_cocycle_space(model)
        dims = [sub.algebra.dim, len(basis)]
        out.append(("invariant_cocycles", dims == exp["invariant"], str(dims)))
        prim = all(
            ce.delta(sub.algebra, ce.coboundary_primitive_roots(model, gen)).data == gen.data
            for gen in basis
        )
        out.append(("primitive_roots", prim, str(prim)))
        for key, psd in self.psds.items():
            out += self._cochain_checks(key, psd, rng)
        closure = rp.check_reduction_closure(model)
        dims = [closure.dim_w, closure.dim_filled]
        out.append(("reduction_closure", closure.ok and dims == exp["closure"], str(dims)))
        match = pb.match_iwasawa(self.psds[str(N_CHART)], model)
        out.append(("match_iwasawa", match.ok and match.checked == exp["match_checked"], str(match.checked)))
        return out


def _random_xifn(rng: random.Random, terms: int) -> XiFn:
    out = XiFn({})
    for _ in range(terms):
        key = (
            rng.randint(-1, 1),
            rng.randint(-1, 2),
            rng.randint(0, 2),
            rng.choice([0, 1]),
            rng.choice([0, 2]),
        )
        val = GScalar.of(rng.choice([-2, -1, 1, 2]), rng.randint(-1, 1))
        out = out.add(XiFn({key: val}))
    return out


class Retract:
    """The moment action as differential operators at N = 3, the radial
    reduction and the exact radial operator; no star product call."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.thetas = [_random_xifn(rng, 6) for _ in range(2)]
        # radial polynomials sum c e^{pa} (v|v)^s z^q, as {(p, s, q): c}
        self.radial = []
        for _ in range(3):
            poly = {}
            for _ in range(3):
                key = (rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 2))
                poly[key] = poly.get(key, 0) + Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            self.radial.append({k: v for k, v in poly.items() if v})

    def setup(self) -> list:
        cold = _cold_start()
        self.table = bq.build_qmm(N_CHART, None)
        return [_cold_check(cold, 1)]

    def _moment_of(self, x: list, order: int) -> NuSeries:
        coords = bq.solve_in_span(self.table.basis, x)
        nv = self.table.chart.nv
        out = NuSeries.zero(nv, order)
        for c, m in zip(coords, self.table.moments):
            if c:
                out = out.add(m.resize(order).scale(c))
        return out

    def steps(self) -> list:
        return [self._pass]

    def _pass(self) -> list:
        table = self.table
        chart = table.chart
        nv = chart.nv
        algebra = chart.model.algebra
        order = RETRACT_ORDER
        out = []
        one = NuSeries.from_coef(CoefFn.const(nv, Fraction(1)), order)
        zero_key = (0,) * (nv + 2)
        _, kvecs = rp.k_basis(chart)
        ops = [rp.retract_operator(table, x, order=order) for x in kvecs]
        keys = [len(op) for op in ops]
        const_ok = all(zero_key not in op and rp.apply_operator(op, one, order).is_zero() for op in ops)
        out.append(("operators", keys == EXPECTED["retract"]["operator_keys"], str(keys)))
        out.append(("constants_annihilated", const_ok, str(const_ok)))
        # k_basis lists the m generators first
        for i, (y, op) in enumerate(zip(chart.m_basis, ops)):
            ok = True
            comps = bq.fundamental_field(chart, y)
            for coord, comp in enumerate(comps):
                key = tuple(1 if c == coord else 0 for c in range(nv + 2))
                series = op.get(key)
                got = series.coeffs[0] if series else CoefFn.zero(nv)
                ok = ok and got.sub(comp).is_zero()
                ok = ok and not (series and any(not c.is_zero() for c in series.coeffs[1:]))
            out.append((f"m_field.{i}", ok, str(ok)))
        for i, (x, op) in enumerate(zip(kvecs, ops)):
            bad = []
            for j, (y, mom) in enumerate(zip(table.basis, table.moments)):
                got = rp.apply_operator(op, mom, order)
                if not got.sub(self._moment_of(algebra.bracket(x, y), order)).is_zero():
                    bad.append(j)
            out.append((f"moment_action.{i}", not bad, str(bad)))
        u = bq.inner_square(chart)
        for i, poly in enumerate(self.radial):
            f = CoefFn.zero(nv)
            for (p, s, q), c in poly.items():
                term = CoefFn.monomial(nv, p, zero_key[: nv], 0, q, c)
                for _ in range(s):
                    term = term.mul(u)
                f = f.add(term)
            got = rp.radial_reduce(chart, f)
            out.append((f"radial_reduce.{i}", got == poly, repr(sorted(got.items()))))
        f, g = self.thetas
        for n in range(2, 6):
            exact = None
            for order_ in (None, PDE_ORDER):
                wf, of_ = rp.radial_pde_residual(f, n, order=order_)
                wg, og = rp.radial_pde_residual(g, n, order=order_)
                ws, os_ = rp.radial_pde_residual(f.add(g), n, order=order_)
                ok = ws.sub(wf.add(wg)).is_zero() and os_.sub(of_.add(og)).is_zero()
                if exact is None:
                    exact = (wf, of_)
                else:
                    ok = ok and exact[0].expand_nu(order_).sub(wf).is_zero()
                    ok = ok and exact[1].expand_nu(order_).sub(of_).is_zero()
                out.append((f"radial_pde.{n}.{order_}", ok, f"{len(ws.terms)}:{len(os_.terms)}"))
        return out


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != bq.TRUNCATION_ENV}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Cli:
    """The README command list, each command in a fresh interpreter.

    The seed only picks the order in which the commands run; their
    outputs are fixed and checked against recorded fingerprints.
    """

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.commands = list(EXPECTED["cli"])
        random.Random(seed).shuffle(self.commands)
        self.env = child_env(root)
        self.traced = False
        self.trace_summaries: list = []
        self.stdout_bytes = 0

    def _run(self, argv: list) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, timeout=120, check=False
        )

    def setup(self) -> list:
        """Bare interpreter plus ``import ballquant.cli``: the cost every
        command pays before it starts working."""
        proc = self._run([sys.executable, "-c", "import ballquant.cli"])
        return [("startup", proc.returncode == 0, str(proc.returncode))]

    def steps(self) -> list:
        self.stdout_bytes = 0
        return [lambda cmd=cmd: [self._command(cmd)] for cmd in self.commands]

    def _command(self, cmd: dict) -> tuple:
        launcher = [sys.executable, "-m", "ballquant.cli"]
        if self.traced:
            launcher = [sys.executable, str(HERE / "cli_child.py")]
        proc = self._run(launcher + cmd["argv"])
        sha = hashlib.sha256(proc.stdout).hexdigest()
        self.stdout_bytes += len(proc.stdout)
        ok = proc.returncode == cmd["exit"] and sha == cmd["sha256"]
        if self.traced:
            summary = _child_summary(proc.stderr)
            self.trace_summaries.append(summary)
            ok = ok and bool(summary)
        return (" ".join(cmd["argv"]), ok, f"{proc.returncode}:{sha}")


def _child_summary(stderr: bytes) -> dict:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX) :])
    return {}


def make(name: str, seed: int, root: Path):
    if name == "qmm":
        return Qmm(seed)
    if name == "structure":
        return Structure(seed)
    if name == "retract":
        return Retract(seed)
    if name == "cli":
        return Cli(seed, root)
    raise ValueError(f"unknown workload {name!r}")


