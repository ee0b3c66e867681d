"""Chevalley-Eilenberg cohomology tests (trivial coefficients).

Frozen oracles:
  * second cohomology of the block algebras has dimension r(r-1)/2,
  * second cohomology of realified su(1,N) vanishes,
  * the invariant cocycle space on the solvable part is one dimensional
    and its generator pairs the scaling direction with the center at
    twice the symplectic pairing weight.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ballquant.ce_cohomology import (
    Cochain,
    check_psd_cocycle_conditions,
    coboundary_primitive_psd,
    coboundary_primitive_roots,
    cochain_from_json,
    cochain_to_json,
    cocycle_space,
    delta,
    h2_dimension,
    invariant_cocycle_space,
    is_cocycle,
    pullback_cochain,
    random_two_cochain,
    zero_two_cochain,
)
from ballquant.lie_core import derived_subalgebra
from ballquant.linalg import nullspace
from ballquant.psd_builder import PsdSpec, build_psd
from ballquant.su1n_model import adapted_s_basis, build_su1n, s_submodel

from oracles import delta2_oracle, dense

# a cross action of block 1 on block 2 through its H direction
TWIST = {(1, 2): {"H": [[F(1), F(0)], [F(0), F(-1)]]}}
BLOCK_SPECS = [
    PsdSpec(1, [1]),
    PsdSpec(1, [2]),
    PsdSpec(1, [3]),
    PsdSpec(2, [1, 1]),
    PsdSpec(2, [2, 1]),
    PsdSpec(2, [2, 1], TWIST),
    PsdSpec(2, [2, 2]),
    PsdSpec(3, [1, 1, 1]),
    PsdSpec(3, [1, 2, 1]),
    PsdSpec(3, [2, 1, 2]),
]


def test_delta_one_cochain_example():
    psd = build_psd(PsdSpec(1, [1]))
    alpha = Cochain(1, 2, [F(0), F(1)])  # vanishes on H, 1 on E
    d = delta(psd.algebra, alpha)
    assert d.degree == 2
    assert d.data[0][1] == F(2)


def test_delta_squared_is_zero():
    rng = random.Random(41)
    for spec in (PsdSpec(1, [2]), PsdSpec(2, [2, 1]), PsdSpec(2, [1, 1])):
        g = build_psd(spec).algebra
        for _ in range(10):
            alpha = Cochain(1, g.dim, [F(rng.randint(-5, 5)) for _ in range(g.dim)])
            d2 = delta(g, delta(g, alpha))
            assert all(v == 0 for v in d2.data.values())


def test_delta_zero_cochain():
    g = build_psd(PsdSpec(1, [1])).algebra
    d = delta(g, Cochain(0, g.dim, F(7)))
    assert d.degree == 1 and all(v == 0 for v in d.data)


def test_delta_rejects_a_three_cochain():
    g = build_psd(PsdSpec(1, [2])).algebra
    with pytest.raises(ValueError, match="degrees 0..2"):
        delta(g, Cochain(3, g.dim, {(0, 1, 2): F(1)}))


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=str)
def test_is_cocycle_in_degrees_zero_and_one(spec):
    """Every zero-cochain is closed; a one-cochain is closed exactly when it
    vanishes on [g, g]."""
    g = build_psd(spec).algebra
    rng = random.Random(g.dim)
    assert is_cocycle(g, Cochain(0, g.dim, F(rng.randint(1, 9))))
    derived = derived_subalgebra(g).basis
    closed = [dense(v, g.dim) for v in nullspace(derived, g.dim)]
    assert closed and derived
    samples = closed + [[F(rng.randint(-3, 3)) for _ in range(g.dim)] for _ in range(6)]
    samples += [[a + b for a, b in zip(closed[0], dense(derived[0], g.dim))]]
    seen = set()
    for values in samples:
        vanishes = all(sum(values[j] * v for j, v in x.items()) == 0 for x in derived)
        assert is_cocycle(g, Cochain(1, g.dim, values)) == vanishes
        seen.add(vanishes)
    assert seen == {True, False}


def test_h2_block_algebras_frozen():
    cases = [
        (PsdSpec(1, [2]), 0),
        (PsdSpec(1, [3]), 0),
        (PsdSpec(2, [1, 1]), 1),
        (PsdSpec(2, [2, 1]), 1),
        (PsdSpec(3, [1, 1, 1]), 3),
        (PsdSpec(3, [2, 1, 2]), 3),
    ]
    for spec, expected in cases:
        assert h2_dimension(build_psd(spec).algebra) == expected


def test_h2_with_nontrivial_cross_action():
    spec = PsdSpec(2, [2, 1], TWIST)
    assert h2_dimension(build_psd(spec).algebra) == 1


def test_h2_su1n_vanishes():
    for n in (1, 2):
        assert h2_dimension(build_su1n(n).algebra) == 0


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


def _delta_matches_oracle(g, c):
    """delta agrees with the oracle on every triple, absent ones being zero,
    and is_cocycle says whether the oracle vanishes."""
    d = delta(g, c)
    want = delta2_oracle(g, c)
    assert d.degree == 3 and d.dim == g.dim and set(d.data) <= set(want)
    assert all(d.data.get(t, 0) == v for t, v in want.items())
    assert is_cocycle(g, c) == (not any(want.values()))
    return want


ORACLE_ALGEBRAS = {
    **{f"su1n-{n}": lambda n=n: build_su1n(n).algebra for n in (1, 2, 3)},
    **{f"s-{n}": lambda n=n: s_submodel(build_su1n(n)).algebra for n in (1, 2, 3)},
    **{f"psd-{k}": lambda s=s: build_psd(s).algebra for k, s in enumerate(BLOCK_SPECS)},
}


@pytest.mark.parametrize("name", list(ORACLE_ALGEBRAS))
def test_delta_and_is_cocycle_match_the_oracle(name):
    g = ORACLE_ALGEBRAS[name]()
    rng = random.Random(name)
    closed = cocycle_space(g)
    cochains = _sample_cochains(g, closed, rng, 6)
    verdicts = [not any(_delta_matches_oracle(g, c).values()) for c in cochains]
    assert verdicts[1] and verdicts[4]  # the closed combinations
    # a random cochain is closed only when every cochain is
    assert all(verdicts) == (len(closed) == g.dim * (g.dim - 1) // 2)


def test_differential_is_kept_per_algebra_object():
    plain = build_psd(PsdSpec(2, [2, 1])).algebra
    twisted = build_psd(PsdSpec(2, [2, 1], TWIST)).algebra
    assert (plain.dim, plain.labels) == (twisted.dim, twisted.labels)
    rng = random.Random(7)
    differ = 0
    for _ in range(4):
        c = random_two_cochain(plain.dim, rng)
        differ += _delta_matches_oracle(plain, c) != _delta_matches_oracle(twisted, c)
    assert differ


def test_cocycle_conditions_match_brute_force():
    rng = random.Random(101)
    specs = [
        PsdSpec(1, [2]),
        PsdSpec(2, [1, 1]),
        PsdSpec(2, [2, 1], TWIST),
        PsdSpec(3, [1, 2, 1]),
    ]
    for spec in specs:
        psd = build_psd(spec)
        basis = cocycle_space(psd.algebra)
        agree = 0
        for c in _sample_cochains(psd.algebra, basis, rng, 100):
            brute = is_cocycle(psd.algebra, c)
            rep = check_psd_cocycle_conditions(psd, c)
            assert rep.ok == brute, (spec, rep.failing_condition)
            agree += 1
        assert agree == 100


def test_psd_primitive_roundtrip():
    for spec in (PsdSpec(1, [2]), PsdSpec(2, [2, 1]), PsdSpec(3, [1, 1, 1]), PsdSpec(2, [2, 2])):
        psd = build_psd(spec)
        g = psd.algebra
        h_idx = [psd.blocks[j]["H"] for j in range(1, spec.r + 1)]
        for c in cocycle_space(g):
            # restrict to the part with vanishing H-H pairings
            if any(c.data[a][b] != 0 for a in h_idx for b in h_idx):
                continue
            alpha = coboundary_primitive_psd(psd, c)
            assert delta(g, alpha).data == c.data


def test_psd_primitive_requires_vanishing_hh():
    psd = build_psd(PsdSpec(2, [1, 1]))
    basis = cocycle_space(psd.algebra)
    offender = next(
        c for c in basis
        if c.data[psd.blocks[2]["H"]][psd.blocks[1]["H"]] != 0
    )
    with pytest.raises(ValueError):
        coboundary_primitive_psd(psd, offender)


def test_primitives_refuse_a_cochain_that_is_not_closed():
    psd = build_psd(PsdSpec(2, [2, 1]))
    c = random_two_cochain(psd.algebra.dim, random.Random(3))
    assert not is_cocycle(psd.algebra, c)
    with pytest.raises(ValueError, match="not a cocycle"):
        coboundary_primitive_psd(psd, c)
    model = build_su1n(2)
    c = random_two_cochain(s_submodel(model).algebra.dim, random.Random(3))
    assert not is_cocycle(s_submodel(model).algebra, c)
    with pytest.raises(ValueError, match="not a cocycle"):
        coboundary_primitive_roots(model, c)


def test_root_primitive_roundtrip():
    for n in (1, 2, 3):
        model = build_su1n(n)
        sub = s_submodel(model)
        for c in cocycle_space(sub.algebra):
            alpha = coboundary_primitive_roots(model, c)
            assert delta(sub.algebra, alpha).data == c.data


def test_invariant_cocycle_space():
    for n in (1, 2):
        model = build_su1n(n)
        sub, basis = invariant_cocycle_space(model)
        assert len(basis) == 1
        gen = basis[0]
        # vanishes on a x a
        h = sub.H
        val = sum(a * b * gen.data[i][j] for i, a in h.items() for j, b in h.items())
        assert val == 0
        # admits a primitive through the root recipe
        alpha = coboundary_primitive_roots(model, gen)
        assert delta(sub.algebra, alpha).data == gen.data


def test_invariant_generator_pairing_ratio():
    # in the chart basis the generator pairs (H, E) at twice the (x, y) weight
    model = build_su1n(2)
    sub, basis = invariant_cocycle_space(model)
    gen = basis[0]
    H, fs, E = adapted_s_basis(model)

    def ev(x, y):
        cx = sub.to_sub(x)
        cy = sub.to_sub(y)
        return sum(a * b * gen.data[i][j] for i, a in cx.items() for j, b in cy.items())

    he = ev(H, E)
    xy = ev(fs[0], fs[1])
    assert he != 0 and he == 2 * xy
    # and it vanishes on (H, short-root vectors), the multiplicity > 1 spaces
    assert ev(H, fs[0]) == 0 and ev(H, fs[1]) == 0


def test_invariant_generator_admits_psd_primitive():
    model = build_su1n(2)
    sub, basis = invariant_cocycle_space(model)
    gen = basis[0]
    H, fs, E = adapted_s_basis(model)
    images = [sub.to_sub(v) for v in [H] + fs + [E]]
    psd = build_psd(PsdSpec(1, [2]))
    c_psd = pullback_cochain(gen, images)
    alpha = coboundary_primitive_psd(psd, c_psd)
    assert delta(psd.algebra, alpha).data == c_psd.data


def test_cochain_json_roundtrip():
    rng = random.Random(9)
    c = random_two_cochain(4, rng)
    c2 = cochain_from_json(cochain_to_json(c))
    assert c2.degree == 2 and c2.data == c.data
    a = Cochain(1, 3, [F(1, 2), F(0), F(-3)])
    a2 = cochain_from_json(cochain_to_json(a))
    assert a2.data == a.data


def test_cochain_json_roundtrip_in_degrees_zero_and_three():
    z = Cochain(0, 4, F(-5, 3))
    assert cochain_from_json(cochain_to_json(z)) == z
    g = build_psd(PsdSpec(2, [2, 1])).algebra
    t = delta(g, random_two_cochain(g.dim, random.Random(4)))
    nonzero = {key: v for key, v in t.data.items() if v}
    assert nonzero and len(nonzero) < len(t.data)
    # absent triples mean 0, so the importer keeps only the nonzero ones
    assert cochain_from_json(cochain_to_json(t)) == Cochain(3, g.dim, nonzero)


def test_cochain_from_json_sums_repeated_triples():
    raw = {"0,1,2": "1/2", "0, 1, 2": "1/2", "0,1,3": "1", "0,1, 3": "-1", "1,2,3": "0"}
    c = cochain_from_json({"degree": 3, "dim": 4, "data": raw})
    assert c.data == {(0, 1, 2): F(1)}


@pytest.mark.parametrize(
    "data",
    [
        [["0", "1"], ["0", "0"]],
        [["1", "0"], ["0", "0"]],
        [["0", "1"]],
        [["0", "1"], ["-1"]],
        [["0", "1", "0"], ["-1", "0", "0"]],
    ],
    ids=["not-antisymmetric", "diagonal", "too-few-rows", "short-row", "long-rows"],
)
def test_cochain_from_json_refuses_a_bad_matrix(data):
    with pytest.raises(ValueError, match="antisymmetric 2 x 2"):
        cochain_from_json({"degree": 2, "dim": 2, "data": data})


@pytest.mark.parametrize("data", [["1"], ["1", "0", "0", "0", "0"]], ids=["short", "long"])
def test_cochain_from_json_refuses_a_one_cochain_of_the_wrong_length(data):
    with pytest.raises(ValueError, match="one-cochain needs 4 values"):
        cochain_from_json({"degree": 1, "dim": 4, "data": data})


@pytest.mark.parametrize("key", ["2,1,0", "7,8,9", "0,0,1", "0,1", "0,1,2,3"])
def test_cochain_from_json_refuses_a_bad_triple(key):
    with pytest.raises(ValueError, match="three-cochain key needs i < j < k below 2"):
        cochain_from_json({"degree": 3, "dim": 2, "data": {key: "1"}})
