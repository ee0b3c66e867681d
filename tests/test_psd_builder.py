"""Tests for the nested solvable block builder.

Each block carries one scaling generator H, a symplectic space V of
dimension 2(n-1) and one central-in-the-block generator E with
[H, v] = v, [H, E] = 2E, [v, v'] = Omega(v, v') E.  Outer blocks may act
on the V part of inner blocks through symplectic matrices.
"""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from ballquant import lie_core
from ballquant.lie_core import JacobiReport, jacobi_report
from ballquant.psd_builder import PsdSpec, build_psd, match_iwasawa, psd_spec_from_json, psd_spec_to_json
from ballquant.linalg import vec_scale
from ballquant.su1n_model import build_su1n, model_to_json


def test_layout_and_labels():
    psd = build_psd(PsdSpec(2, [2, 1]))
    assert psd.algebra.dim == 6
    assert psd.algebra.labels == ("H2", "E2", "H1", "v1_1", "v1_2", "E1")
    assert psd.blocks[1]["V"] == [3, 4]
    assert psd.blocks[2]["V"] == []


def test_single_block_brackets():
    psd = build_psd(PsdSpec(1, [3]))
    g = psd.algebra
    assert g.dim == 6
    h = g.basis_vector(0)
    x1, x2, y1, y2 = (g.basis_vector(i) for i in (1, 2, 3, 4))
    e = g.basis_vector(5)
    assert g.bracket(h, x1) == x1
    assert g.bracket(h, e) == vec_scale(e, 2)
    assert g.bracket(x1, y1) == e
    assert g.bracket(x2, y2) == e
    assert g.bracket(x1, y2) == {}
    assert g.bracket(x1, x2) == {}
    assert g.bracket(x1, e) == {}


def test_blocks_commute_by_default():
    psd = build_psd(PsdSpec(2, [2, 2]))
    g = psd.algebra
    for i in psd.blocks[2].values():
        for idx in ([i] if isinstance(i, int) else i):
            for j in psd.blocks[1].values():
                for jdx in ([j] if isinstance(j, int) else j):
                    assert g.bracket(g.basis_vector(idx), g.basis_vector(jdx)) == {}


def nontrivial_spec():
    rho_h = [[F(1), F(0)], [F(0), F(-1)]]
    return PsdSpec(2, [2, 1], {(1, 2): {"H": rho_h}})


def test_cross_action_instance():
    psd = build_psd(nontrivial_spec())
    g = psd.algebra
    h2 = g.basis_vector(0)
    x1 = g.basis_vector(3)
    y1 = g.basis_vector(4)
    assert g.bracket(h2, x1) == x1
    assert g.bracket(h2, y1) == vec_scale(y1, -1)
    e2 = g.basis_vector(1)
    assert g.bracket(e2, x1) == {}
    # H1 and E1 stay untouched by the outer block
    assert g.bracket(h2, g.basis_vector(2)) == {}
    assert g.bracket(h2, g.basis_vector(5)) == {}


def test_non_symplectic_cross_action_fails_jacobi():
    bad = PsdSpec(2, [2, 1], {(1, 2): {"H": [[F(1), F(1)], [F(0), F(1)]]}})
    with pytest.raises(ValueError):
        build_psd(bad)


def test_an_e_only_cross_action_is_refused():
    """diag(1, -1) lies in sp(V), so a check of each action map alone
    passes it.  But E2 = [H2, E2]/2 must then act as [rho(H2), rho(E2)]/2,
    which is zero, so Jacobi fails on (H2, E2, v1_1) = (0, 3, 5)."""
    spec = PsdSpec(2, [2, 2], {(1, 2): {"E": [[1, 0], [0, -1]]}})
    with pytest.raises(ValueError, match=r"basis triple \(0, 3, 5\)"):
        build_psd(spec)


WRITTEN_SIZES = [[n] for n in range(1, 11)] + [[3, 2, 3], [3, 3, 3], [4, 4], [1, 5, 2]]


@pytest.mark.parametrize("n", WRITTEN_SIZES, ids=lambda n: "_".join(map(str, n)))
def test_every_written_table_passes_the_full_jacobi_sweep(n):
    """A spec without cross actions is stored by LieAlgebra.written, which
    runs no sweep; the full sweep is the oracle of that construction."""
    g = build_psd(PsdSpec(len(n), n)).algebra
    assert jacobi_report(g.dim, g.structure) == JacobiReport(True, None, None)


def test_a_spec_without_cross_actions_makes_no_jacobi_call(monkeypatch):
    def refuse(dim, structure):
        raise AssertionError("jacobi_report called")

    monkeypatch.setattr(lie_core, "jacobi_report", refuse)
    for n in WRITTEN_SIZES:
        build_psd(PsdSpec(len(n), n))
    with pytest.raises(AssertionError, match="jacobi_report called"):
        build_psd(nontrivial_spec())


def test_spec_json_roundtrip():
    spec = nontrivial_spec()
    blob = psd_spec_to_json(spec)
    spec2 = psd_spec_from_json(blob)
    assert spec2.r == spec.r
    assert spec2.n == spec.n
    assert spec2.cross_actions == spec.cross_actions
    # default spec roundtrip keeps the empty action table
    plain = psd_spec_from_json(psd_spec_to_json(PsdSpec(1, [2])))
    assert plain.cross_actions == {}
    assert psd_spec_to_json(plain)["n"] == [2]


def test_spec_json_writes_int_and_fraction_entries_exactly():
    spec = PsdSpec(2, [2, 1], {(1, 2): {"H": [[1, F(0)], [F(1, 2), -3]]}})
    maps = {"H": [["1/1", "0/1"], ["1/2", "-3/1"]]}
    assert psd_spec_to_json(spec)["cross_actions"] == [{"inner": 1, "outer": 2, "maps": maps}]


@pytest.mark.parametrize("x", [0.1, True], ids=["float", "bool"])
def test_spec_json_refuses_an_inexact_entry(x):
    """A float 0.1 used to export as its binary expansion
    3602879701896397/36028797018963968, though build_psd refuses it."""
    spec = PsdSpec(2, [2, 1], {(1, 2): {"H": [[F(1), F(0)], [F(0), x]]}})
    with pytest.raises(TypeError, match=r"cross action \(1, 2\) H entry"):
        psd_spec_to_json(spec)
    with pytest.raises(TypeError, match=r"cross action \(1, 2\) H entry"):
        build_psd(spec)


@pytest.mark.parametrize(
    "r, n", [(True, [1]), ("1", [1]), (1.0, [1]), (1, [True]), (1, ["2"]), (2, [2, 1.0])]
)
def test_build_psd_refuses_an_r_or_block_size_that_is_not_an_int(r, n):
    """n = [True] used to build a block of size 1 and n = ["2"] to raise TypeError."""
    with pytest.raises(ValueError, match="int r >= 1 and r int block sizes"):
        build_psd(PsdSpec(r, n))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d.update(n=2), "n must be a list"),
        (lambda d: d.update(cross_actions={}), "cross_actions must be a list"),
        (lambda d: d["cross_actions"].__setitem__(0, 1), "a cross action must be a dict"),
        (lambda d: d["cross_actions"][0].update(maps=[]), "maps must be a dict"),
        (lambda d: d["cross_actions"][0]["maps"].update(H="1"), "a map must be a list"),
        (lambda d: d["cross_actions"][0]["maps"]["H"].__setitem__(0, "1"), "a row must be"),
    ],
)
def test_psd_spec_from_json_refuses_a_scalar_in_place_of_a_container(change, message):
    """A row "1" used to load as the row [1], and "n": 2 raised TypeError."""
    blob = psd_spec_to_json(nontrivial_spec())
    change(blob)
    with pytest.raises(ValueError, match=message):
        psd_spec_from_json(blob)


@pytest.mark.parametrize("key", [(True, 2), ("1", 2), (1, None)])
def test_build_psd_refuses_cross_action_blocks_that_are_not_ints(key):
    action = {"H": [[F(1), F(0)], [F(0), F(-1)]]}
    with pytest.raises(ValueError, match="cross action"):
        build_psd(PsdSpec(2, [2, 1], {key: action}))


def test_match_iwasawa_structure_agreement():
    for n in (1, 2, 3):
        psd = build_psd(PsdSpec(1, [n]))
        rep = match_iwasawa(psd, build_su1n(n))
        assert rep.ok, rep.failures
        assert rep.checked == psd.algebra.dim * (psd.algebra.dim - 1) // 2


def test_match_iwasawa_rejects_wrong_shape():
    psd = build_psd(PsdSpec(1, [2]))
    rep = match_iwasawa(psd, build_su1n(3))
    assert not rep.ok


def test_match_iwasawa_reports_a_wrong_generator():
    model = build_su1n(2)
    fresh = model_to_json(model), dict(model.H0)
    psd = build_psd(PsdSpec(1, [2]))
    rep = match_iwasawa(psd, model.replace(H0=vec_scale(model.H0, 2)))
    assert not rep.ok and rep.failures
    assert rep.checked == psd.algebra.dim * (psd.algebra.dim - 1) // 2
    model = build_su1n(2)
    assert (model_to_json(model), model.H0) == fresh
    assert match_iwasawa(psd, model).ok


ZERO2 = [[F(0), F(0)], [F(0), F(0)]]


@pytest.mark.parametrize(
    "spec, message",
    [
        (PsdSpec(0, []), "r >= 1"),
        (PsdSpec(2, [2]), "r >= 1"),
        (PsdSpec(2, [2, 0]), "r >= 1"),
        (PsdSpec(2, [2, 2], {(2, 1): {"H": ZERO2}}), "outer block"),
        (PsdSpec(2, [2, 2], {(1, 1): {"H": ZERO2}}), "outer block"),
        (PsdSpec(2, [2, 2], {(1, 3): {"H": ZERO2}}), "outer block"),
        (PsdSpec(2, [2, 2], {(1, 2): {"X": ZERO2}}), "unknown role"),
        (PsdSpec(2, [2, 2], {(1, 2): {"v3": ZERO2}}), "unknown role"),
        (PsdSpec(2, [2, 2], {(1, 2): {"H": [[F(1)]]}}), "wrong shape"),
        (PsdSpec(2, [2, 2], {(1, 2): {"E": [[F(0), F(0)], [F(0)]]}}), "wrong shape"),
    ],
    ids=[
        "r-zero", "sizes-short", "size-zero", "action-inward", "action-same-block",
        "action-past-r", "role-unknown", "role-past-v", "matrix-small", "matrix-ragged",
    ],
)
def test_build_psd_rejects_a_bad_spec(spec, message):
    with pytest.raises(ValueError, match=message):
        build_psd(spec)
