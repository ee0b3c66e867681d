"""Acceptance suite.

Each test covers one acceptance criterion, checks it exactly (all
arithmetic is rational, so every tolerance is zero) and prints a
one line PASS/FAIL verdict; run with -s to see the lines, or rely on
the per-test outcome of pytest -v.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from ballquant.ball_quantization import (
    build_chart,
    build_qmm,
    mutate_add_nu_const,
    mutate_drop_nu2,
    inner_square,
    verify_qmm,
)
from ballquant.ce_cohomology import (
    check_psd_cocycle_conditions,
    coboundary_primitive_psd,
    coboundary_primitive_roots,
    cocycle_space,
    delta,
    h2_dimension,
    invariant_cocycle_space,
    is_cocycle,
    random_two_cochain,
    zero_two_cochain,
)
from ballquant.cli import main as cli_main
from ballquant.formal_star import CoefFn, NuSeries
from ballquant.psd_builder import PsdSpec, build_psd
from ballquant.retract_pde import (
    XiFn,
    apply_operator,
    check_reduction_closure,
    k_basis,
    m_invariance_residuals,
    radial_pde_residual,
    retract_operator,
)
from ballquant.scalars import GScalar
from ballquant.su1n_model import (
    build_su1n,
    s_submodel,
    verify_m_orthocomplement,
    verify_sigma_pairing,
)

from oracles import beta_sigma_gram, leading_principal_minors, oracle_om0, oracle_wv0


def _verdict(num: int, ok: bool, desc: str, start: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {mark} ({time.perf_counter() - start:.2f}s) {desc}")


def test_criterion_01_block_cohomology_dimension():
    start = time.perf_counter()
    ok = False
    try:
        for r in (1, 2, 3):
            for blocks in itertools.product((1, 2, 3), repeat=r):
                t0 = time.perf_counter()
                g = build_psd(PsdSpec(r, list(blocks))).algebra
                assert h2_dimension(g) == r * (r - 1) // 2
                assert time.perf_counter() - t0 < 10
        ok = True
    finally:
        _verdict(1, ok, "block algebra H^2 has dimension r(r-1)/2", start)


def test_criterion_02_su1n_cohomology_vanishes():
    start = time.perf_counter()
    ok = False
    try:
        for n in (1, 2):
            t0 = time.perf_counter()
            assert h2_dimension(build_su1n(n).algebra) == 0
            assert time.perf_counter() - t0 < 60
        ok = True
    finally:
        _verdict(2, ok, "H^2 of realified su(1,N) vanishes", start)


def _sample_cochains(g, basis, rng, count):
    out = []
    for t in range(count):
        mode = t % 3
        if mode == 0 or not basis:
            out.append(random_two_cochain(g.dim, rng))
        elif mode == 1:
            c = zero_two_cochain(g.dim)
            for b in basis:
                w = F(rng.randint(-3, 3))
                for i in range(g.dim):
                    for j in range(g.dim):
                        c.data[i][j] += w * b.data[i][j]
            out.append(c)
        else:
            c = zero_two_cochain(g.dim)
            b = basis[rng.randrange(len(basis))]
            for i in range(g.dim):
                for j in range(g.dim):
                    c.data[i][j] = b.data[i][j]
            i = rng.randrange(g.dim)
            j = rng.randrange(g.dim)
            if i != j:
                c.data[i][j] += 1
                c.data[j][i] -= 1
            out.append(c)
    return out


def test_criterion_03_cocycle_conditions_equal_brute_force():
    start = time.perf_counter()
    ok = False
    try:
        rng = random.Random(977)
        specs = [
            PsdSpec(1, [2]),
            PsdSpec(2, [1, 1]),
            PsdSpec(2, [2, 1], {(1, 2): {"H": [[F(1), F(0)], [F(0), F(-1)]]}}),
            PsdSpec(3, [1, 2, 1]),
        ]
        for spec in specs:
            psd = build_psd(spec)
            basis = cocycle_space(psd.algebra)
            for c in _sample_cochains(psd.algebra, basis, rng, 100):
                assert check_psd_cocycle_conditions(psd, c).ok == is_cocycle(
                    psd.algebra, c
                )
        ok = True
    finally:
        _verdict(3, ok, "structured cocycle test matches brute force, 100 per algebra", start)


def test_criterion_04_primitive_roundtrips():
    start = time.perf_counter()
    ok = False
    try:
        for n in (1, 2, 3):
            psd = build_psd(PsdSpec(1, [n]))
            for c in cocycle_space(psd.algebra):
                alpha = coboundary_primitive_psd(psd, c)
                assert delta(psd.algebra, alpha).data == c.data
            model = build_su1n(n)
            sub = s_submodel(model)
            for c in cocycle_space(sub.algebra):
                alpha = coboundary_primitive_roots(model, c)
                assert delta(sub.algebra, alpha).data == c.data
        ok = True
    finally:
        _verdict(4, ok, "both primitive recipes invert delta on full cocycle bases", start)


def test_criterion_05_restricted_root_geometry():
    start = time.perf_counter()
    ok = False
    try:
        for n in (1, 2, 3):
            model = build_su1n(n)
            expected = {F(2): 1, F(-2): 1, F(1): 2 * (n - 1), F(-1): 2 * (n - 1), F(0): 1 + (n - 1) ** 2}
            for r in model.roots:
                assert r.space.dim == expected[r.lambda_of_H[0]]
            assert verify_sigma_pairing(model).ok
            assert verify_m_orthocomplement(model).ok
            gram = beta_sigma_gram(model)
            assert all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(len(gram)))
            assert all(d > 0 for d in leading_principal_minors(gram))
        ok = True
    finally:
        _verdict(5, ok, "root dimensions, sigma pairing, m complement, positive form", start)


def test_criterion_06_invariant_cocycle_line():
    start = time.perf_counter()
    ok = False
    try:
        for n in (1, 2):
            model = build_su1n(n)
            sub, basis = invariant_cocycle_space(model)
            assert len(basis) == 1
            gen = basis[0]
            h = sub.H
            assert sum(a * b * gen.data[i][j] for i, a in h.items() for j, b in h.items()) == 0
            alpha = coboundary_primitive_roots(model, gen)
            assert delta(sub.algebra, alpha).data == gen.data
        ok = True
    finally:
        _verdict(6, ok, "invariant cocycle space is one line off the flat directions", start)


def test_criterion_07_quantum_moment_identity():
    start = time.perf_counter()
    ok = False
    try:
        for n in (1, 2):
            for alpha in (F(1), F(2)):
                rep = verify_qmm(build_qmm(n, alpha))
                assert rep.ok and rep.exact
                assert rep.checked == (3 if n == 1 else 28)
        mutated = mutate_drop_nu2(build_qmm(2, F(1)))
        rep = verify_qmm(mutated)
        assert not rep.ok
        assert any(
            len(res.coeffs) > 2 and not res.coeffs[2].is_zero()
            for _, _, res in rep.failures
        )
        assert time.perf_counter() - start < 120
        ok = True
    finally:
        _verdict(7, ok, "moment identity exact on all pairs; nu^2 drop detected", start)


def test_criterion_08_constant_shift_mutations():
    start = time.perf_counter()
    ok = False
    try:
        base = build_qmm(2, F(1))
        shifted_n = mutate_add_nu_const(base, "E", F(1))
        rep = verify_qmm(shifted_n, order=6, pairs="s")
        assert not rep.ok
        assert any({li, lj} == {"H", "E"} for li, lj, _ in rep.failures)
        shifted_a = mutate_add_nu_const(base, "H", F(1))
        rep_s = verify_qmm(shifted_a, order=6, pairs="s")
        assert rep_s.ok and rep_s.checked == 6
        rep_all = verify_qmm(shifted_a, order=6, pairs="all")
        assert not rep_all.ok
        ok = True
    finally:
        _verdict(8, ok, "nu-constant shift breaks nilpotent moments, not the scaling one", start)


def test_criterion_09_reduction_structure():
    start = time.perf_counter()
    ok = False
    try:
        for n, dims in ((2, (7, 8)), (3, (14, 15))):
            rep = check_reduction_closure(build_su1n(n))
            assert rep.ok and (rep.dim_w, rep.dim_filled) == dims
            chart = build_chart(n)
            u = inner_square(chart)
            ze2a = CoefFn.monomial(chart.nv, -2, (0,) * chart.nv, 0, 1, F(1))
            for f in (u, u.mul(u).add(u.mul(ze2a))):
                assert all(r.is_zero() for r in m_invariance_residuals(chart, f))
        table = build_qmm(2, F(1))
        chart = table.chart
        order = 6
        one = NuSeries.from_coef(CoefFn.const(chart.nv, F(5)), order)
        _, kvecs = k_basis(chart)
        ops = [retract_operator(table, x, order=order) for x in kvecs]
        for op in ops:
            assert (0, 0, 0, 0) not in op
            assert apply_operator(op, one, order).is_zero()
        algebra = chart.model.algebra
        rng = random.Random(31)

        def rand_series():
            f = CoefFn.zero(2)
            for _ in range(3):
                f = f.add(
                    CoefFn.monomial(
                        2,
                        rng.randint(-2, 2),
                        (rng.randint(0, 1), rng.randint(0, 1)),
                        0,
                        rng.randint(0, 1),
                        F(rng.choice([-2, -1, 1, 2])),
                    )
                )
            return NuSeries.from_coef(f, order)

        for i, j in ((0, 1), (1, 2), (1, 3), (0, 3)):
            bracket_op = retract_operator(
                table, algebra.bracket(kvecs[i], kvecs[j]), order=order
            )
            theta = rand_series()
            lhs = apply_operator(ops[i], apply_operator(ops[j], theta, order), order)
            lhs = lhs.sub(
                apply_operator(ops[j], apply_operator(ops[i], theta, order), order)
            )
            assert lhs.sub(apply_operator(bracket_op, theta, order)).is_zero()
        ok = True
    finally:
        _verdict(9, ok, "closure, radial invariance, operator algebra at order 6", start)


def test_criterion_10_radial_operator_zeroth_order():
    start = time.perf_counter()
    ok = False
    try:
        zero = XiFn({})
        wv, om = radial_pde_residual(zero, 3)
        assert wv.is_zero() and om.is_zero()
        rng = random.Random(733)

        def rand_xifn():
            out = XiFn({})
            for _ in range(3):
                key = (
                    rng.randint(-1, 1),
                    rng.randint(-1, 2),
                    rng.randint(0, 2),
                    rng.choice([0, 1]),
                    rng.choice([0, 2]),
                )
                out = out.add(XiFn({key: GScalar.of(rng.choice([-2, -1, 1, 2]), rng.randint(-1, 1))}))
            return out

        f, g = rand_xifn(), rand_xifn()
        wf, of_ = radial_pde_residual(f, 4)
        wg, og = radial_pde_residual(g, 4)
        ws, os_ = radial_pde_residual(f.add(g), 4)
        assert ws.sub(wf.add(wg)).is_zero() and os_.sub(of_.add(og)).is_zero()
        for _ in range(20):
            theta = rand_xifn()
            n = rng.choice([2, 3, 4])
            wv, om = radial_pde_residual(theta, n)
            theta0 = theta.expand_nu(0)
            assert wv.expand_nu(0).sub(oracle_wv0(theta0)).is_zero()
            assert om.expand_nu(0).sub(oracle_om0(theta0)).is_zero()
        ok = True
    finally:
        _verdict(10, ok, "radial operator is linear and matches the transcribed nu^0 part", start)


def test_criterion_11_cli_determinism(capsys):
    start = time.perf_counter()
    ok = False
    try:
        commands = [
            ["build-psd", "--r", "2", "--blocks", "2,1"],
            ["h2", "--su1n", "1"],
            ["qmm-export", "--N", "1", "--alpha", "1"],
            ["retract-residual", "--n", "3", "--order", "2"],
        ]
        for argv in commands:
            assert cli_main(argv) == 0
            out1 = capsys.readouterr().out
            assert cli_main(argv) == 0
            out2 = capsys.readouterr().out
            assert out1 == out2
            assert json.dumps(json.loads(out1), sort_keys=True) + "\n" == out1
        assert (
            cli_main(
                ["verify", "--suite", "qmm", "--N", "2", "--alpha", "1", "--order", "4", "--mutate", "drop-nu2"]
            )
            == 1
        )
        capsys.readouterr()
        assert cli_main(["h2"]) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            cli_main(["verify", "--suite", "bogus"])
        assert err.value.code == 2
        capsys.readouterr()
        ok = True
    finally:
        _verdict(11, ok, "CLI output is byte stable, JSON round trips, exit codes hold", start)
