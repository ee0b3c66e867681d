"""Tests for the rank one pseudo-unitary model.

Frozen oracles:
  * Killing form on the restricted-root generator H0: kappa(H0, H0) = 4(N+1),
    so 8, 12, 16 for N = 1, 2, 3 (ad_H0 eigenvalues are +-2 once, +-1 with
    multiplicity 2(N-1), and 0 on the centralizer).
  * restricted-root space dimensions (1, 2(N-1), 1 + (N-1)^2, 2(N-1), 1).
  * the normalizer of the nilpotent part is s + m (dimension 5 at N = 2).
  * the echelon generator of the highest root space at N = 1 is D0 - Q1.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from ballquant.lie_core import jacobi_report, normalizer, span_subspace
from ballquant.scalars import GScalar
from ballquant.su1n_model import (
    _S_SUBMODELS,
    _basis_matrices,
    _flatten,
    _rational_sqrt,
    beta_sigma_gram,
    build_su1n,
    iwasawa_project,
    model_to_json,
    s_submodel,
    verify_m_orthocomplement,
    verify_sigma_pairing,
)
from ballquant.linalg import Frame, vec_add, vec_scale

from oracles import gmat_mul, leading_principal_minors, rref_oracle, sparse


def test_dimensions():
    for n in (1, 2, 3):
        model = build_su1n(n)
        dim = (n + 1) ** 2 - 1
        assert model.algebra.dim == dim
        assert model.k_space.dim == n * n
        assert model.p_space.dim == 2 * n
        assert model.a_space.dim == 1
        assert model.m_space.dim == (n - 1) ** 2
        assert model.n_space.dim == 2 * n - 1
        assert model.s_space.dim == 2 * n


def test_killing_on_a_generator_frozen():
    for n, expected in ((1, 8), (2, 12), (3, 16)):
        model = build_su1n(n)
        assert model.beta_H0 == F(expected)


def test_sigma_is_bracket_involution():
    rng = random.Random(23)
    for n in (1, 2):
        model = build_su1n(n)
        g = model.algebra
        for _ in range(20):
            x = sparse([F(rng.randint(-3, 3)) for _ in range(g.dim)])
            y = sparse([F(rng.randint(-3, 3)) for _ in range(g.dim)])
            sx = model.apply_sigma(x)
            assert model.apply_sigma(sx) == x
            lhs = model.apply_sigma(g.bracket(x, y))
            rhs = g.bracket(sx, model.apply_sigma(y))
            assert lhs == rhs


def test_cartan_split():
    for n in (1, 2, 3):
        model = build_su1n(n)
        for b in model.k_space.basis:
            assert model.apply_sigma(b) == b
        for b in model.p_space.basis:
            assert model.apply_sigma(b) == vec_scale(b, -1)


def test_root_space_dimensions_and_eigenvalue_property():
    for n in (1, 2, 3):
        model = build_su1n(n)
        vals = [r.lambda_of_H[0] for r in model.roots]
        if n == 1:
            assert vals == [F(2), F(0), F(-2)]
            assert [r.space.dim for r in model.roots] == [1, 1, 1]
        else:
            assert vals == [F(2), F(1), F(0), F(-1), F(-2)]
            assert [r.space.dim for r in model.roots] == [
                1, 2 * (n - 1), 1 + (n - 1) ** 2, 2 * (n - 1), 1]
        for r in model.roots:
            for x in r.space.basis:
                got = model.algebra.bracket(model.H0, x)
                assert got == vec_scale(x, r.lambda_of_H[0])
            # the coroot represents the root functional through the Killing form
            assert model.beta_form(r.H_lambda, model.H0) == r.lambda_of_H[0]


def test_highest_root_generator_frozen_n1():
    model = build_su1n(1)
    top = model.roots[0]
    # basis order (D0, P1, Q1); echelon generator is D0 - Q1
    assert top.space.basis == ({0: F(1), 2: F(-1)},)


def test_sigma_pairing_identity():
    for n in (1, 2, 3):
        rep = verify_sigma_pairing(build_su1n(n))
        assert rep.ok
        assert rep.checked == (2 if n == 1 else 2 + 4 * (n - 1))
        assert rep.failures == []


def test_m_orthocomplement_identity():
    for n in (1, 2, 3):
        rep = verify_m_orthocomplement(build_su1n(n))
        assert rep.ok


def test_beta_sigma_positive_definite():
    for n in (1, 2, 3):
        model = build_su1n(n)
        minors = leading_principal_minors(beta_sigma_gram(model))
        assert all(m > 0 for m in minors)


def test_normalizer_of_n_is_s_plus_m():
    for n, expected_dim in ((2, 5), (3, 10)):
        model = build_su1n(n)
        nz = normalizer(model.algebra, model.n_space)
        sm = span_subspace(model.algebra, model.s_space.basis + model.m_space.basis)
        assert nz == sm
        assert nz.dim == expected_dim


def test_m_centralizes_a_and_top_root():
    model = build_su1n(2)
    g = model.algebra
    top = model.roots[0].space.basis[0]
    for y in model.m_space.basis:
        assert not g.bracket(y, model.H0)
        assert not g.bracket(y, top)
    # frozen central generator at N = 2: i diag(1,1,-2) = D0 + 2 D1
    assert model.m_space.basis == ({0: F(1), 1: F(2)},)


def test_iwasawa_projection():
    rng = random.Random(4)
    for n in (1, 2):
        model = build_su1n(n)
        g = model.algebra
        for _ in range(15):
            x = sparse([F(rng.randint(-4, 4)) for _ in range(g.dim)])
            xs, xk = iwasawa_project(model, x)
            assert vec_add(xs, xk) == x
            assert model.s_space.contains(xs)
            assert model.k_space.contains(xk)
        # frozen example: the opposite top root projects to minus the top root
        e = model.roots[0].space.basis[0]
        se = model.apply_sigma(e)
        xs, xk = iwasawa_project(model, se)
        assert xs == vec_scale(e, -1)
        assert xk == vec_add(e, se)


def test_s_is_spanned_by_projected_k_brackets():
    # s = span of [[X, Y]]_s over X in s, Y in k
    for n in (1, 2):
        model = build_su1n(n)
        g = model.algebra
        vecs = []
        for x in model.s_space.basis:
            for y in model.k_space.basis:
                xs, _ = iwasawa_project(model, g.bracket(x, y))
                vecs.append(xs)
        assert span_subspace(g, vecs) == model.s_space


def test_json_exports():
    model = build_su1n(2)
    blob = model_to_json(model)
    assert len(blob["roots"]) == 5
    assert blob["roots"][0]["lambda"] == ["2/1"]
    assert blob["N"] == 2
    assert blob["algebra"]["dim"] == 8
    assert len(blob["sigma_diagonal"]) == 8


def test_root_spaces_are_the_nonempty_eigenspaces():
    for N, lambdas in ((1, ["2/1", "0/1", "-2/1"]), (2, ["2/1", "1/1", "0/1", "-1/1", "-2/1"])):
        roots = model_to_json(build_su1n(N))["roots"]
        assert [r["lambda"] for r in roots] == [[t] for t in lambdas]
        assert all(r["dim"] > 0 for r in roots)


def test_rational_sqrt():
    assert _rational_sqrt(F(9, 4)) == F(3, 2)
    for bad in (F(0), F(-4)):
        with pytest.raises(ValueError, match="nonpositive"):
            _rational_sqrt(bad)
    with pytest.raises(ValueError, match="no rational square root"):
        _rational_sqrt(F(2))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_killing_form_closed_form(N):
    """B(X, Y) = 2(N+1) tr(XY) on su(1, N), checked on the basis matrices
    independently of the structure constants beta is computed from."""
    model = build_su1n(N)
    mats = model.matrices
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            prod = gmat_mul(mi, mj)
            assert sum((prod[a][a].im for a in range(N + 1)), F(0)) == 0
            re_tr = sum((prod[a][a].re for a in range(N + 1)), F(0))
            assert model.beta[i][j] == 2 * (N + 1) * re_tr


def test_dual_basis_coordinates():
    mats, _, _ = _basis_matrices(2)
    flat = [_flatten(m, 3) for m in mats]
    frame = Frame(flat)
    for k, v in enumerate(flat):
        assert frame.coords(v) == {k: F(1)}
    combo = {t: 2 * flat[0].get(t, 0) - flat[5].get(t, 0) for t in set(flat[0]) | set(flat[5])}
    assert frame.coords(combo) == {0: F(2), 5: F(-1)}
    # i E_00 is not trace free: its projection onto the span is nonzero
    # but does not rebuild it
    corner = _flatten({(0, 0): GScalar.of(0, 1)}, 3)
    assert any(p in corner for p in frame.dual)
    assert frame.coords(corner) is None


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_structure_constants_match_dense_commutators(N):
    """Each bracket of the table is the dense commutator of the basis
    matrices, solved against their realified entries by the dense oracle."""
    model = build_su1n(N)
    mats = model.matrices
    dim = len(mats)

    def real_entries(m):
        return [e.re for row in m for e in row] + [e.im for row in m for e in row]

    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    targets = []
    for i, j in pairs:
        ab, ba = gmat_mul(mats[i], mats[j]), gmat_mul(mats[j], mats[i])
        targets.append(real_entries([[x - y for x, y in zip(r, q)] for r, q in zip(ab, ba)]))
    # one reduction of [basis columns | every commutator]: the pivots stay
    # among the basis columns exactly when each commutator is in the span
    columns = [real_entries(m) for m in mats] + targets
    aug = [[col[t] for col in columns] for t in range(2 * (N + 1) ** 2)]
    red, pivots = rref_oracle(aug)
    assert pivots == list(range(dim))
    for c, (i, j) in enumerate(pairs):
        want = {k: row[dim + c] for k, row in enumerate(red) if row[dim + c]}
        assert dict(model.algebra.structure.get((i, j), {})) == want


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_jacobi_sweep_passes_on_the_built_table(N):
    """build_su1n no longer sweeps its table: the table is certified by
    how it is read (LieAlgebra.read).  The sweep stays the oracle."""
    g = build_su1n(N).algebra
    assert jacobi_report(g.dim, g.structure).ok


# sha256 of json.dumps(model_to_json(build_su1n(N)), sort_keys=True),
# recorded while build_su1n still swept its table with jacobi_report.
MODEL_DIGESTS = {
    1: "8b774c624dd336b194705c335eb3de2fc05ee0e01b73889a819f04116a070fc9",
    2: "87e36ba696469d79bc8861c02bbda067d54b57f173533de3162e224bf7dfc4ef",
    3: "d2eefb135c047a9b0ee88ac0eb288a97b11b8abf48a0e07a55744e67a8be5928",
    4: "20e8600bb5f1e907c8cd30d77d13c071923f98c888461b35d845b587832d7679",
    5: "cad4e73d9479fb6e0111b5882f70de946f60fedcc115e0ac75944791c1baca2a",
    6: "50147cb603796beabc65ed5a04bae25be786d58ff5b2d3068ec14ae1893f11bf",
}


@pytest.mark.parametrize("N", sorted(MODEL_DIGESTS))
def test_model_to_json_bytes_are_frozen(N):
    doc = json.dumps(model_to_json(build_su1n(N)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == MODEL_DIGESTS[N]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_cached_model_cannot_be_changed_through_what_it_returns(N):
    """Labels, subspace bases, roots and root values are tuples, the
    model and its root data are frozen and the attributes of its
    algebra, subspaces and frames are bound once, so no write or
    rebinding through a model reaches the next build_su1n(N)."""
    model = build_su1n(N)
    with pytest.raises(TypeError):
        model.algebra.labels[0] = "X"
    with pytest.raises(AttributeError):
        model.roots.pop()
    with pytest.raises(AttributeError):
        model.s_space.basis.pop()
    with pytest.raises(TypeError):
        model.roots[0].lambda_of_H[0] = F(7)
    with pytest.raises(AttributeError):
        model.roots = ()
    with pytest.raises(AttributeError):
        model.roots[0].lambda_of_H = (F(7),)
    with pytest.raises(AttributeError):
        model.s_space.basis = model.s_space.basis[:-1]
    with pytest.raises(AttributeError):
        model.algebra.labels = ("X",) + model.algebra.labels[1:]
    with pytest.raises(AttributeError):
        del model.algebra.structure
    with pytest.raises(AttributeError):
        model.iwasawa_frame.dual = {}
    with pytest.raises(AttributeError):
        model.m_space.frame = model.s_space.frame
    again = build_su1n(N)
    assert again.algebra.labels[0] != "X" and again.s_space.dim == len(again.s_space.basis)
    doc = json.dumps(model_to_json(again), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == MODEL_DIGESTS[N]


def test_su1n_5_builds_and_passes_its_checks():
    model = build_su1n(5)
    assert model.algebra.dim == 35
    assert verify_sigma_pairing(model).ok
    assert verify_m_orthocomplement(model).ok


def test_cached_model_arrays_are_read_only():
    model = build_su1n(2)
    fresh = build_su1n.__wrapped__(2)
    writes = [
        (model.beta, 0, ()),
        (model.beta[0], 0, F(7)),
        (model.sigma_diagonal, 0, F(-1)),
        (model.matrices, 0, ()),
        (model.matrices[0], 0, ()),
        (model.matrices[0][0], 0, GScalar.of(7)),
    ]
    spaces = [model.k_space, model.p_space, model.a_space, model.n_space, model.m_space]
    spaces += [model.s_space] + [r.space for r in model.roots]
    vectors = [v for space in spaces for v in space.basis]
    vectors += [model.H0] + [r.H_lambda for r in model.roots]
    writes += [(v, k, F(7)) for v in vectors for k in (0, min(v, default=0))]
    sub = s_submodel(model)
    writes += [
        (sub.embedding, 0, ()),
        (sub.embedding[0], 0, F(7)),
        (sub.H, 0, F(7)),
        (sub.roots, 0, ()),
        (sub.roots[0][1], 0, ()),
        (sub.roots[0][1][0], 0, F(7)),
        (sub.frame.basis, 0, ()),
        (sub.frame.dual, 0, ()),
        (next(iter(sub.frame.dual.values())), 0, (0, F(7))),
    ]
    for target, index, value in writes:
        with pytest.raises(TypeError):
            target[index] = value
    with pytest.raises(AttributeError):
        sub.H = ()
    again = build_su1n(2)
    assert again.beta == fresh.beta
    assert again.sigma_diagonal == fresh.sigma_diagonal
    assert again.matrices == fresh.matrices
    assert model_to_json(again) == model_to_json(fresh)
    assert again.H0 == fresh.H0


def test_sigma_pairing_reports_each_planted_fault():
    model = build_su1n(2)
    fresh = model_to_json(model), dict(model.H0)
    flipped = replace(model, sigma_diagonal=tuple(-s for s in model.sigma_diagonal))
    rep = verify_sigma_pairing(flipped)
    assert not rep.ok and {kind for kind, _, _ in rep.failures} == {"sign"}
    doubled = [replace(r, H_lambda=vec_scale(r.H_lambda, 2)) for r in model.roots]
    rep = verify_sigma_pairing(replace(model, roots=doubled))
    assert not rep.ok and {kind for kind, _, _ in rep.failures} == {"pairing"}
    model = build_su1n(2)
    assert (model_to_json(model), model.H0) == fresh
    assert verify_sigma_pairing(model).ok


def test_m_orthocomplement_reports_a_wrong_m():
    model = build_su1n(2)
    fresh = model_to_json(model)
    rep = verify_m_orthocomplement(replace(model, m_space=model.a_space))
    assert not rep.ok and rep.failures
    assert {kind for kind, _ in rep.failures} == {"orthocomplement"}
    assert model_to_json(build_su1n(2)) == fresh
    assert verify_m_orthocomplement(build_su1n(2)).ok


def test_s_submodel_is_cached_per_model_not_per_n():
    model = build_su1n(2)
    sub = s_submodel(model)
    top = max(r.lambda_of_H[0] for r in model.roots)
    dropped = replace(model, roots=tuple(r for r in model.roots if r.lambda_of_H[0] != top))
    other = s_submodel(dropped)
    assert [len(s.roots) for s in (sub, other)] == [2, 1]
    assert s_submodel(dropped) is other and s_submodel(build_su1n(2)) is sub
    key = id(dropped)
    del dropped
    assert key not in _S_SUBMODELS  # the cache does not keep a replaced model alive
