"""Tests for the rank one pseudo-unitary model.

Frozen oracles:
  * Killing form on the restricted-root generator H0: kappa(H0, H0) = 4(N+1),
    so 8, 12, 16 for N = 1, 2, 3 (ad_H0 eigenvalues are +-2 once, +-1 with
    multiplicity 2(N-1), and 0 on the centralizer).
  * restricted-root space dimensions (1, 2(N-1), 1 + (N-1)^2, 2(N-1), 1).
  * the normalizer of the nilpotent part is s + m (dimension 5 at N = 2).
  * the echelon generator of the highest root space at N = 1 is D0 - Q1.
  * the adapted chart basis, written down in adapted_s_basis, is the one
    the symplectic search of adapted_s_basis_oracle finds.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import weakref
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from ballquant.lie_core import LieAlgebra, jacobi_report, span_subspace, structure_in
from ballquant.scalars import GScalar
from ballquant.su1n_model import (
    _S_SUBMODELS,
    _basis_matrices,
    _check_su1n,
    adapted_s_basis,
    build_su1n,
    iwasawa_project,
    model_to_json,
    s_submodel,
    verify_m_orthocomplement,
    verify_sigma_pairing,
)
from ballquant import ball_quantization, lie_core, linalg, su1n_model
from ballquant.ball_quantization import build_qmm, qmm_table_to_json, verify_qmm
from ballquant.retract_pde import check_reduction_closure, k_basis, retract_operator
from ballquant.linalg import Frame, vec_add, vec_scale

from oracles import adapted_s_basis_oracle, beta_sigma_gram, gmat_mul, leading_principal_minors
from oracles import flatten, normalizer, rational_sqrt, realified_structure_oracle, rref_oracle
from oracles import EntryReader, dense_matrices, full_structure_oracle, gscalar_matrices
from oracles import nullspace_roots_oracle
from oracles import sparse


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
        sm = span_subspace(model.s_space.basis + model.m_space.basis)
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
        assert span_subspace(vecs) == model.s_space


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
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    for bad in (F(0), F(-4)):
        with pytest.raises(ValueError, match="nonpositive"):
            rational_sqrt(bad)
    with pytest.raises(ValueError, match="no rational square root"):
        rational_sqrt(F(2))


@pytest.mark.parametrize("N", range(1, 13))
def test_adapted_basis_is_the_one_the_search_finds(N):
    model = build_su1n(N)
    H, fs, E = adapted_s_basis(model)
    H_, fs_, E_ = adapted_s_basis_oracle(model)
    assert H is model.H0 and H_ is model.H0
    assert len(fs) == len(fs_) == 2 * (N - 1)
    assert [dict(f) for f in fs] == [dict(f) for f in fs_]
    assert dict(E) == dict(E_)


def test_adapted_basis_checks_each_planted_fault(monkeypatch):
    model = build_su1n(3)
    with pytest.raises(AssertionError, match="normalized"):
        adapted_s_basis(model.replace(beta_H0=2 * model.beta_H0))
    space = {r.lambda_of_H[0]: r.space for r in model.roots}
    swap = {1: space[2], 2: space[1]}
    roots = tuple(r.replace(space=swap.get(r.lambda_of_H[0], r.space)) for r in model.roots)
    swapped = model.replace(roots=roots)
    with pytest.raises(AssertionError, match="root space"):
        adapted_s_basis(swapped)
    split = su1n_model.split_symplectic
    negated = lambda n: [[-x for x in row] for row in split(n)]
    monkeypatch.setattr(su1n_model, "split_symplectic", negated)
    # the check runs once per model object, so the planted fault needs a
    # model it has not checked yet
    with pytest.raises(AssertionError, match="symplectic normal form"):
        adapted_s_basis(model.replace())
    monkeypatch.undo()
    assert adapted_s_basis(model)[0] is model.H0


@pytest.mark.parametrize("N", [2, 3])
def test_adapted_basis_checks_the_root_dimensions_before_it_reads_the_top_root(N):
    """Root data without the top root are refused by the named check."""
    model = build_su1n(N)
    planted = model.replace(roots=tuple(r for r in model.roots if r.lambda_of_H[0] != 2))
    with pytest.raises(AssertionError, match=r"^root space dimensions are not 1 and 2\(N - 1\)$"):
        adapted_s_basis(planted)


def test_adapted_basis_is_checked_once_per_model_and_read_only():
    model = build_su1n(3)
    H, fs, E = basis = adapted_s_basis(model)
    assert adapted_s_basis(model) is basis
    assert type(fs) is tuple and all(type(x) is MappingProxyType for x in (H, *fs, E))
    with pytest.raises(TypeError):
        fs[0][0] = 1
    with pytest.raises(AssertionError, match="normalized"):
        adapted_s_basis(model.replace(beta_H0=2 * model.beta_H0))
    copy = model.replace()
    assert adapted_s_basis(copy) is not basis and adapted_s_basis(copy) == basis


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_killing_form_closed_form(N):
    """B(X, Y) = 2(N+1) tr(XY) on su(1, N), checked on the basis matrices
    independently of the structure constants, on every basis pair."""
    model = build_su1n(N)
    mats = dense_matrices(model)
    assert [dict(m) for m in model.matrices] == _basis_matrices(N)[0]
    units = [model.algebra.basis_vector(i) for i in range(model.algebra.dim)]
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            prod = gmat_mul(mi, mj)
            assert sum((prod[a][a].im for a in range(N + 1)), F(0)) == 0
            re_tr = sum((prod[a][a].re for a in range(N + 1)), F(0))
            got = model.beta_form(units[i], units[j])
            assert type(got) is F and got == 2 * (N + 1) * re_tr


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_beta_is_the_killing_form_of_the_structure_table(N):
    """beta_form, the trace form 2(N+1) Re tr(XY) on the basis matrices,
    is tr(ad e_i ad e_j) contracted from the structure rows, on every
    basis pair and with the same value type."""
    model = build_su1n(N)
    killing = model.algebra.killing_form()
    units = [model.algebra.basis_vector(i) for i in range(model.algebra.dim)]
    for x, want in zip(units, killing):
        row = [model.beta_form(x, y) for y in units]
        assert [(type(v), v) for v in row] == [(type(w), w) for w in want]


def test_trace_form_refuses_a_trace_that_is_not_real():
    """A model whose matrices leave su(1, N), made by replace, meets a
    trace that is not real through the one reader of its matrices."""
    model = build_su1n(1)
    one, im = (1, 0), (0, 1)
    planted = (MappingProxyType({(0, 0): im}), MappingProxyType({(0, 0): one}))
    planted = model.replace(matrices=planted + model.matrices[2:])
    assert planted.beta_form({0: F(1)}, {0: F(1)}) == -4
    with pytest.raises(AssertionError, match="^the trace of two algebra matrices is not real$"):
        planted.beta_form({0: F(1)}, {1: F(1)})


def test_dual_basis_coordinates():
    mats = gscalar_matrices(_basis_matrices(2)[0])
    flat = [flatten(m, 3) for m in mats]
    frame = Frame(flat)
    for k, v in enumerate(flat):
        assert frame.coords(v) == {k: F(1)}
    combo = {t: 2 * flat[0].get(t, 0) - flat[5].get(t, 0) for t in set(flat[0]) | set(flat[5])}
    assert frame.coords(combo) == {0: F(2), 5: F(-1)}
    # i E_00 is not trace free: its projection onto the span is nonzero
    # but does not rebuild it
    corner = flatten({(0, 0): GScalar.of(0, 1)}, 3)
    assert any(p in corner for p in frame.dual)
    assert frame.coords(corner) is None


@pytest.mark.parametrize("N", [*range(1, 9), 12])
def test_entry_reader_table_is_the_realified_table(N):
    """The structure constants read off the commutator entries are the
    ones a Frame over the realified basis reads, Fractions in both."""
    mats = gscalar_matrices(_basis_matrices(N)[0])
    got = build_su1n(N).algebra.structure
    want = realified_structure_oracle(mats, N + 1)
    assert dict(got) == want
    assert all(type(c) is F for coeffs in got.values() for c in coeffs.values())


def test_entry_reader_refuses_what_its_basis_does_not_rebuild():
    """The oracle reader rebuilds what it reads and compares."""
    mats, labels, _ = _basis_matrices(2)
    mats = gscalar_matrices(mats)
    reader = EntryReader(mats, labels)
    one, two, im = GScalar.of(1), GScalar.of(2), GScalar.of(0, 1)
    at = {label: t for t, label in enumerate(labels)}
    combo = {(0, 0): im, (1, 1): -im, (1, 2): two, (2, 1): -two}
    assert reader.coords(combo) == {at["D0"]: 1, at["R1_2"]: 2}
    # i E_00 is not trace free; (1, 2) + (2, 1) is not the mirror of R12
    for fault in ({(0, 0): im}, {(1, 2): one, (2, 1): one}):
        assert reader.coords(fault) is None
        with pytest.raises(ValueError, match="^the bracket of vectors 0 and 1 leaves the span$"):
            structure_in(reader, mats[:2], lambda a, b: fault)
    # a repeated matrix reads back as the first copy: dependent rows
    with pytest.raises(ValueError, match="^a basis matrix does not read back as its unit vector$"):
        EntryReader(mats[:1] + mats[:1] + mats[2:], labels)


@pytest.mark.parametrize("N", [1, 2, 5])
def test_build_refuses_a_repeated_missing_or_extra_basis_matrix(N, monkeypatch):
    """build_su1n reads each basis matrix back once and counts them: a
    repeated matrix reads back as the first copy, and a missing or an
    extra matrix leaves the count off (N + 1)^2 - 1."""
    mats, labels, signs = _basis_matrices(N)
    count = r"^the basis count is not \(N \+ 1\)\^2 - 1$"
    faults = [
        ("^a basis matrix does not read back as its unit vector$", mats[:1] + mats[:1] + mats[2:]),
        (count, mats[:-1]),
        (count, mats + mats[:1]),
    ]
    for message, basis in faults:
        planted = (basis, labels, signs)
        monkeypatch.setattr(su1n_model, "_basis_matrices", lambda N, planted=planted: planted)
        with pytest.raises(AssertionError, match=message):
            build_su1n.__wrapped__(N)


@pytest.mark.parametrize("N", [1, 2, 5])
def test_build_refuses_a_basis_matrix_that_reads_back_scaled(N, monkeypatch):
    """Twice the last basis matrix lies in su(1, N) and keeps the count,
    but reads back as twice its unit vector: the certificate refuses it."""
    mats, labels, signs = _basis_matrices(N)
    doubled = {e: (2 * x, 2 * y) for e, (x, y) in mats[-1].items()}
    planted = (mats[:-1] + [doubled], labels, signs)
    monkeypatch.setattr(su1n_model, "_basis_matrices", lambda N: planted)
    with pytest.raises(AssertionError, match="^a basis matrix does not read back as its unit vector$"):
        build_su1n.__wrapped__(N)


@pytest.mark.parametrize("N", range(1, 9))
def test_model_bracket_is_the_table_bracket_on_every_basis_pair(N):
    """Su1nModel.bracket, read off the basis matrices, gives the stored
    table's bracket on every pair of basis vectors."""
    model = build_su1n(N)
    g = model.algebra
    units = [g.basis_vector(i) for i in range(g.dim)]
    for i, x in enumerate(units):
        for y in units[i:]:
            assert model.bracket(x, y) == g.bracket(x, y), (i, y)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_the_structure_table_is_built_only_when_the_algebra_is_read(N, monkeypatch):
    """No build, check or export of the su1n, qmm and retract paths forms
    the structure table (_structure); the first read of model.algebra
    forms it once, and later reads keep it."""
    calls, structure = [], su1n_model._structure
    monkeypatch.setattr(su1n_model, "_structure", lambda mats: calls.append(N) or structure(mats))
    model = build_su1n.__wrapped__(N)
    monkeypatch.setattr(ball_quantization, "build_su1n", lambda n: model)
    table = build_qmm(N)
    assert table.chart.model is model and verify_qmm(table, 2).ok
    assert verify_sigma_pairing(model).ok and verify_m_orthocomplement(model).ok
    assert check_reduction_closure(model).ok == (N > 1)
    ops = [retract_operator(table, x, order=4) for x in k_basis(table.chart)[1]]
    assert qmm_table_to_json(table) and len(ops) == N * N and calls == []
    assert model.algebra is model.algebra and calls == [N]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_build_reads_no_killing_contraction_and_no_realified_frame(N, monkeypatch):
    """build_su1n reads beta off the matrices and its table off their
    entries: it never contracts the structure rows (killing_form) and
    never builds a Frame over realified rows (columns past the dimension)."""
    calls, widths = [], []
    killing, frame_init = LieAlgebra.killing_form, Frame.__init__

    def counted_killing(self):
        calls.append(self)
        return killing(self)

    def recorded_frame(self, basis):
        rows = list(basis)
        widths.append(1 + max((j for r in rows for j in r), default=-1))
        frame_init(self, rows)

    monkeypatch.setattr(LieAlgebra, "killing_form", counted_killing)
    monkeypatch.setattr(Frame, "__init__", recorded_frame)
    model = build_su1n.__wrapped__(N)
    assert calls == []
    assert all(width <= model.algebra.dim for width in widths)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_structure_constants_match_dense_commutators(N):
    """Each bracket of the table is the dense commutator of the basis
    matrices, solved against their realified entries by the dense oracle."""
    model = build_su1n(N)
    mats = dense_matrices(model)
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
    how it is formed and read (_structure).  The sweep stays the oracle."""
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
    model, its root data, algebra, subspaces and frames are frozen
    records, so no write or rebinding through a model reaches the next
    build_su1n(N)."""
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
        (model.sigma_diagonal, 0, F(-1)),
        (model.matrices, 0, ()),
        (model.matrices[0], 0, ()),
        (model.matrices[0], (0, 0), (7, 0)),
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
    assert again.sigma_diagonal == fresh.sigma_diagonal
    assert again.matrices == fresh.matrices
    assert model_to_json(again) == model_to_json(fresh)
    assert again.H0 == fresh.H0


def test_sigma_pairing_reports_each_planted_fault():
    model = build_su1n(2)
    fresh = model_to_json(model), dict(model.H0)
    flipped = model.replace(sigma_diagonal=tuple(-s for s in model.sigma_diagonal))
    rep = verify_sigma_pairing(flipped)
    assert not rep.ok and {kind for kind, _, _ in rep.failures} == {"sign"}
    doubled = [r.replace(H_lambda=vec_scale(r.H_lambda, 2)) for r in model.roots]
    rep = verify_sigma_pairing(model.replace(roots=doubled))
    assert not rep.ok and {kind for kind, _, _ in rep.failures} == {"pairing"}
    model = build_su1n(2)
    assert (model_to_json(model), model.H0) == fresh
    assert verify_sigma_pairing(model).ok


def test_m_orthocomplement_reports_a_wrong_m():
    model = build_su1n(2)
    fresh = model_to_json(model)
    rep = verify_m_orthocomplement(model.replace(m_space=model.a_space))
    assert not rep.ok and rep.failures
    assert {kind for kind, _ in rep.failures} == {"orthocomplement"}
    assert model_to_json(build_su1n(2)) == fresh
    assert verify_m_orthocomplement(build_su1n(2)).ok


def test_s_submodel_is_cached_per_model_not_per_n():
    model = build_su1n(2)
    sub = s_submodel(model)
    top = max(r.lambda_of_H[0] for r in model.roots)
    dropped = model.replace(roots=tuple(r for r in model.roots if r.lambda_of_H[0] != top))
    other = s_submodel(dropped)
    assert [len(s.roots) for s in (sub, other)] == [2, 1]
    assert s_submodel(dropped) is other and s_submodel(build_su1n(2)) is sub
    ref, cached = weakref.ref(dropped), len(_S_SUBMODELS)
    del dropped
    gc.collect()
    # the cache does not keep a replaced model alive, and drops its entry
    assert ref() is None and len(_S_SUBMODELS) == cached - 1


def test_build_su1n_refuses_n_below_one():
    with pytest.raises(ValueError, match="^N must be at least 1$"):
        build_su1n(0)


@pytest.mark.parametrize("N", [True, False, 2.0, F(2)])
def test_build_su1n_refuses_a_bool_or_a_non_int(N):
    """A bool would build a second cached su(1, 1) whose JSON reads
    "N": true, and a float used to fail inside range."""
    cached = build_su1n.cache_info().currsize
    with pytest.raises(TypeError, match=rf"^N must be an int, got {re.escape(repr(N))}$"):
        build_su1n(N)
    assert build_su1n.cache_info().currsize == cached


def test_check_su1n_refuses_a_traced_or_non_pseudo_unitary_matrix():
    one, im = (1, 0), (0, 1)
    assert _check_su1n({(0, 1): one, (1, 0): one})
    assert not _check_su1n({(0, 0): im})  # trace i
    assert not _check_su1n({(1, 2): one, (2, 1): one})  # X^* J + J X = 2 E_12 + 2 E_21


def root_maps(roots) -> list:
    """Each root as plain maps: its value, its basis and its coroot."""
    return [(r.lambda_of_H, [dict(x) for x in r.space.basis], dict(r.H_lambda)) for r in roots]


@pytest.mark.parametrize("N", range(1, 9))
def test_written_roots_are_the_solved_ones(N):
    """The written root spaces, in order, and k, p, a, n, m and s are the
    ones the nullspace of ad H0 - t and the intersection with k find."""
    model = build_su1n(N)
    roots, spaces = nullspace_roots_oracle(model)
    assert root_maps(model.roots) == root_maps(roots)
    for name, want in spaces.items():
        got = getattr(model, f"{name}_space")
        assert [dict(x) for x in got.basis] == [dict(x) for x in want.basis], name


@pytest.mark.parametrize("N", [*range(1, 9), 12])
def test_pruned_structure_table_is_the_full_read(N):
    """Reading only the pairs that share an index gives the table of every
    pair, in the same insertion order, with the same rows."""
    got, want = build_su1n(N).algebra, full_structure_oracle(N)
    items = lambda table: [(key, list(c.items())) for key, c in table.items()]
    assert items(got.structure) == items(want.structure)
    assert [items(row) for row in got.rows] == [items(row) for row in want.rows]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_build_su1n_solves_no_nullspace(N, monkeypatch):
    def refuse(*args):
        raise AssertionError("nullspace on the build path")

    for module in (su1n_model, linalg, lie_core):
        monkeypatch.setattr(module, "nullspace", refuse)
    model = build_su1n.__wrapped__(N)
    assert adapted_s_basis(model)[0] is model.H0


def test_build_forms_only_the_commutators_of_index_sharing_pairs(monkeypatch):
    """At N = 10, 2424 of the 7140 pairs of basis matrices share a row or
    column index, and those are the commutators the stored table forms,
    in Gaussian integers, on the first read of model.algebra."""
    mats = _basis_matrices(10)[0]
    where = {tuple(m.items()): t for t, m in enumerate(mats)}
    formed, commutator = [], su1n_model._commutator

    def counted(a, b):
        formed.append((where[tuple(a.items())], where[tuple(b.items())]))
        return commutator(a, b)

    model = build_su1n.__wrapped__(10)
    monkeypatch.setattr(su1n_model, "_commutator", counted)
    model.algebra
    sets = [{a for entry in m for a in entry} for m in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    sharing = [(i, j) for i, j in pairs if sets[i] & sets[j]]
    assert len(pairs) == 7140 and len(sharing) == 2424
    assert formed == sharing


def plant(monkeypatch, fault):
    """Make build_su1n write its roots through fault(spaces, m, at)."""
    written = su1n_model._written_roots

    def planted(at, N):
        spaces, m = written(at, N)
        fault(spaces, m, at)
        return spaces, m

    monkeypatch.setattr(su1n_model, "_written_roots", planted)


def flip_top(spaces, m, at):
    spaces[2][0] = {at["D0"]: F(1), at["Q1"]: F(1)}


def drop_m(spaces, m, at):
    m.pop()


def d0_plus_d1(spaces, m, at):
    m[0] = {at["D0"]: F(1), at["D1"]: F(1)}


def repeat_short(spaces, m, at):
    spaces[1][1] = spaces[1][0]


def tilt_m_into_p(spaces, m, at):
    m[0] = {**m[0], at["P1"]: F(1)}


@pytest.mark.parametrize(
    "fault, message",
    [
        (flip_top, "not an eigenvector of ad H0"),
        (d0_plus_d1, "not an eigenvector of ad H0"),
        (repeat_short, "not of full rank"),
        (drop_m, "do not fill the algebra"),
        (tilt_m_into_p, "leaves k"),
    ],
)
def test_each_written_root_check_names_its_fault(fault, message, monkeypatch):
    plant(monkeypatch, fault)
    with pytest.raises(AssertionError, match=message):
        build_su1n.__wrapped__(3)
