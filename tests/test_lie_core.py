"""Structure-constant Lie algebra layer tests.

The three dimensional algebra used throughout has basis (H, X, Y) with
[H, X] = 2X, [H, Y] = -2Y, [X, Y] = H.  Its Killing form value
kappa(H, H) = 8 is frozen here as an oracle (trace of ad_H squared,
eigenvalues 2, 0, -2).

The dense oracles below loop over the whole structure table for every
bracket, as the package did before it indexed the table by rows, on
dense lists; the sparse kernel in ``lie_core`` must agree with them,
vector for vector, once its sparse maps are written out.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

from ballquant.lie_core import (
    JacobiReport,
    LieAlgebra,
    Subspace,
    bracket_triples,
    center,
    centralizer,
    derived_subalgebra,
    jacobi_report,
    normalizer,
    span_subspace,
    structure_in,
    subalgebra,
    subspace_intersection,
)
from ballquant.linalg import Frame, bilinear, combine, nullspace, transpose, zeros
from ballquant.psd_builder import PsdSpec, build_psd
from ballquant.scalars import frac_str
from ballquant.su1n_model import build_su1n

from oracles import nullspace_oracle, rebuild_oracle, rref_oracle, sparse


def bracket_oracle(dim, structure, x, y):
    """[x, y] by one pass over every (i, j) < key of the table."""
    out = zeros(dim)
    for (i, j), coeffs in structure.items():
        if not ((x[i] or x[j]) and (y[i] or y[j])):
            continue
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, val in coeffs.items():
                out[k] += c * val
    return out


def jacobi_oracle(dim, structure):
    """Dense Jacobi check: the first basis triple, in lexicographic order,
    whose cyclic sum of double brackets is nonzero, with that sum."""
    e = [[F(int(a == b)) for b in range(dim)] for a in range(dim)]
    pair = {
        (a, b): bracket_oracle(dim, structure, e[a], e[b])
        for a in range(dim)
        for b in range(dim)
        if a != b
    }
    for i, j, k in combinations(range(dim), 3):
        res = zeros(dim)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            res = [u + v for u, v in zip(res, bracket_oracle(dim, structure, pair[(a, b)], e[c]))]
        if any(res):
            return JacobiReport(False, (i, j, k), sparse(res))
    return JacobiReport(True, None, None)


def ad_oracle(g, x):
    """Dense ad_x from bracket_oracle: entry (r, j) is the coefficient of
    e_r in [x, e_j]."""
    n = g.dim
    e = [[F(int(a == b)) for b in range(n)] for a in range(n)]
    cols = [bracket_oracle(n, g.structure, x, e[j]) for j in range(n)]
    return [[cols[j][r] for j in range(n)] for r in range(n)]


def killing_oracle(g):
    """tr(ad e_i ad e_j) from the dense ad matrices of ad_oracle."""
    n = g.dim
    ads = [ad_oracle(g, [F(int(a == i)) for a in range(n)]) for i in range(n)]
    k = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = F(0)
            a, b = ads[i], ads[j]
            for r in range(n):
                for c in range(n):
                    if a[r][c] and b[c][r]:
                        tr += a[r][c] * b[c][r]
            k[i][j] = tr
            k[j][i] = tr
    return k


def sl2_like():
    structure = {
        (0, 1): {1: F(2)},
        (0, 2): {2: F(-2)},
        (1, 2): {0: F(1)},
    }
    return LieAlgebra(3, ["H", "X", "Y"], structure)


def heisenberg():
    # [P, Q] = E, E central
    return LieAlgebra(3, ["P", "Q", "E"], {(0, 1): {2: F(1)}})


def test_bracket_values():
    g = sl2_like()
    h, x, y = {0: F(1)}, {1: F(1)}, {2: F(1)}
    assert g.bracket(h, x) == {1: F(2)}
    assert g.bracket(x, h) == {1: F(-2)}
    assert g.bracket(x, y) == {0: F(1)}
    assert g.bracket(h, h) == {}


def test_killing_form_frozen_value():
    g = sl2_like()
    k = g.killing_form()
    assert k[0][0] == F(8)
    # symmetric
    assert all(k[i][j] == k[j][i] for i in range(3) for j in range(3))


def test_killing_ad_invariance_random():
    g = sl2_like()
    k = g.killing_form()
    rng = random.Random(5)

    def kform(u, v):
        return sum(k[i][j] * a * b for i, a in u.items() for j, b in v.items())

    for _ in range(40):
        x = sparse([F(rng.randint(-4, 4)) for _ in range(3)])
        y = sparse([F(rng.randint(-4, 4)) for _ in range(3)])
        z = sparse([F(rng.randint(-4, 4)) for _ in range(3)])
        assert kform(g.bracket(x, y), z) + kform(y, g.bracket(x, z)) == 0


def test_jacobi_validation_rejects_bad_structure():
    bad = {
        (0, 1): {1: F(2)},
        (0, 2): {2: F(-2)},
        (1, 2): {0: F(1), 1: F(1)},
    }
    rep = jacobi_report(3, bad)
    assert not rep.ok
    assert rep.worst_triple == (0, 1, 2)
    with pytest.raises(ValueError):
        LieAlgebra(3, ["H", "X", "Y"], bad)


def test_check_jacobi_ok():
    g = sl2_like()
    rep = jacobi_report(g.dim, g.structure)
    assert rep.ok
    assert rep.worst_triple is None


def test_subspace_canonical_basis():
    g = sl2_like()
    s = span_subspace(g, [{0: F(2), 1: F(4)}, {0: F(1), 1: F(2), 2: F(1)}])
    assert s.basis == ({0: F(1), 1: F(2)}, {2: F(1)})
    assert s.dim == 2
    assert s.contains({0: F(3), 1: F(6), 2: F(5)})
    assert not s.contains({1: F(1)})
    # echelon idempotence: rebuilding from the canonical basis is stable
    assert span_subspace(g, s.basis) == s


def test_derived_and_center():
    g = sl2_like()
    assert derived_subalgebra(g).dim == 3
    assert center(g).dim == 0
    h = heisenberg()
    assert derived_subalgebra(h).basis == ({2: F(1)},)
    assert center(h).basis == ({2: F(1)},)


def test_derived_is_bracket_stable():
    for g in (sl2_like(), heisenberg()):
        d = derived_subalgebra(g)
        for b in d.basis:
            for i in range(g.dim):
                assert d.contains(g.bracket(g.basis_vector(i), b))


def test_normalizer_and_centralizer():
    g = sl2_like()
    line_x = span_subspace(g, [{1: F(1)}])
    n = normalizer(g, line_x)
    assert n.dim == 2
    assert n.contains({0: F(1)}) and n.contains({1: F(1)})
    c = centralizer(g, span_subspace(g, [{0: F(1)}]))
    assert c.basis == ({0: F(1)},)


def test_subalgebra_extraction():
    g = sl2_like()
    s = span_subspace(g, [{0: F(1)}, {1: F(1)}])
    sub, embedding = subalgebra(g, s, labels=["H", "X"])
    assert sub.dim == 2
    assert sub.bracket({0: F(1)}, {1: F(1)}) == {1: F(2)}
    assert embedding == s.basis


def test_json_roundtrip():
    g = sl2_like()
    blob = g.to_json()
    g2 = LieAlgebra.from_json(blob)
    assert g2.dim == g.dim
    assert g2.labels == g.labels
    assert g2.structure == g.structure
    coeffs = [v for item in blob["brackets"] for v in item["coeffs"].values()]
    assert coeffs and all("/" in v for v in coeffs)  # fraction strings, not bare ints


def test_construction_rejects_bad_labels_and_keys():
    with pytest.raises(ValueError, match="label count"):
        LieAlgebra(3, ["H", "X"], {})
    for key in ((1, 0), (0, 3), (-1, 1), (1, 1)):
        with pytest.raises(ValueError, match="bad bracket key"):
            LieAlgebra(3, ["H", "X", "Y"], {key: {0: F(1)}})


@pytest.mark.parametrize("dim, key", [(2, 5), (3, -1)])
def test_construction_rejects_a_coefficient_index_outside_the_basis(dim, key):
    labels = ["a", "b", "c"][:dim]
    with pytest.raises(ValueError, match=re.escape("bracket (0, 1) has a coefficient index")):
        LieAlgebra(dim, labels, {(0, 1): {key: 1}})
    blob = {"dim": dim, "labels": labels, "brackets": [{"i": 0, "j": 1, "coeffs": {str(key): "1"}}]}
    with pytest.raises(ValueError, match=re.escape("bracket (0, 1) has a coefficient index")):
        LieAlgebra.from_json(blob)


def test_from_json_sums_repeated_pair_entries():
    """Two entries for (0, 1) add up: opposite ones cancel to an abelian
    algebra, where the last entry used to win with [e0, e1] = -e1."""
    def blob(*coeffs):
        brackets = [{"i": 0, "j": 1, "coeffs": {"1": c}} for c in coeffs]
        return {"dim": 2, "labels": ["a", "b"], "brackets": brackets}

    assert LieAlgebra.from_json(blob("1", "-1")).structure == {}
    assert LieAlgebra.from_json(blob("1/2", "1/2")).structure == {(0, 1): {1: F(1)}}


@pytest.mark.parametrize(
    "field, bad", [("i", "0"), ("i", True), ("j", None), ("j", 1.0), ("dim", True), ("dim", "2")]
)
def test_from_json_refuses_indices_that_are_not_ints(field, bad):
    data = {"dim": 2, "labels": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]}
    if field == "dim":
        data["dim"] = bad
    else:
        data["brackets"][0][field] = bad
    with pytest.raises(ValueError, match="must be an int|must be ints"):
        LieAlgebra.from_json(data)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("coeffs", 3, "bracket coeffs must be a dict"),
        ("coeffs", ["1", "1"], "bracket coeffs must be a dict"),
        ("bracket", "x", "a bracket must be a dict"),
        ("brackets", 5, "brackets must be a list"),
        ("labels", None, "labels must be a list"),
    ],
)
def test_from_json_refuses_a_scalar_in_place_of_a_container(field, bad, message):
    """"coeffs": 3 raised AttributeError before the shapes were checked."""
    data = {"dim": 2, "labels": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]}
    if field == "coeffs":
        data["brackets"][0][field] = bad
    elif field == "bracket":
        data["brackets"][0] = bad
    else:
        data[field] = bad
    with pytest.raises(ValueError, match=message):
        LieAlgebra.from_json(data)


def test_intersection_with_an_empty_subspace():
    g = sl2_like()
    whole = span_subspace(g, [g.basis_vector(i) for i in range(3)])
    empty = span_subspace(g, [])
    for s1, s2 in ((whole, empty), (empty, whole), (empty, empty)):
        meet = subspace_intersection(s1, s2)
        assert meet.dim == 0 and meet == empty


def test_subspace_hash_agrees_with_equality():
    g = sl2_like()
    a = span_subspace(g, [{0: F(1), 1: F(1)}, {1: F(2)}])
    b = span_subspace(g, [{0: F(3)}, {0: F(1), 1: F(-1)}])
    c = span_subspace(g, [{0: F(1)}, {2: F(1)}])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert {a, b, c} == {a, c} and len({a, b, c}) == 2


def test_normalizer_of_whole_algebra_is_whole():
    g = sl2_like()
    whole = span_subspace(g, [{0: F(1)}, {1: F(1)}, {2: F(1)}])
    assert normalizer(g, whole).dim == 3


PSD_SPECS = {
    "psd_3_2_3": PsdSpec(3, [3, 2, 3]),
    "psd_3_3_3": PsdSpec(3, [3, 3, 3]),
    "psd_4_4": PsdSpec(2, [4, 4]),
    "psd_3": PsdSpec(1, [3]),
    "psd_cross_action": PsdSpec(2, [2, 1], {(1, 2): {"H": [[F(1), F(0)], [F(0), F(-1)]]}}),
}


def agreement_algebra(name):
    if name.startswith("su1n_"):
        return build_su1n(int(name[len("su1n_"):])).algebra
    return build_psd(PSD_SPECS[name]).algebra


def sign_flips(g, seed, count):
    """Up to count seeded copies of the table, each with one coefficient negated."""
    entries = sorted((key, k) for key, coeffs in g.structure.items() for k in coeffs)
    rng = random.Random(seed)
    for key, k in rng.sample(entries, min(count, len(entries))):
        flipped = {key: dict(coeffs) for key, coeffs in g.structure.items()}
        flipped[key][k] = -flipped[key][k]
        yield flipped


def random_vector(rng, n, nonzero):
    v = [F(0)] * n
    for t in rng.sample(range(n), nonzero):
        v[t] = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5))
    return v


@pytest.mark.parametrize("name", [f"su1n_{N}" for N in (1, 2, 3, 4)] + list(PSD_SPECS))
def test_sparse_kernel_matches_dense_oracles(name):
    g = agreement_algebra(name)
    n = g.dim
    assert jacobi_report(n, g.structure) == jacobi_oracle(n, g.structure)
    flipped = []
    for structure in sign_flips(g, seed=n, count=3):
        rep = jacobi_report(n, structure)
        assert rep == jacobi_oracle(n, structure)
        flipped.append(rep.ok)
    # the seeded flips of the three dimensional su(1, 1) all give Lie
    # algebras again; on the others at least one must be rejected
    assert n == 3 or not all(flipped)
    rng = random.Random(7 * n)
    for _ in range(12):
        few = [random_vector(rng, n, min(2, n)) for _ in range(2)]
        full = [random_vector(rng, n, n) for _ in range(2)]
        for x, y in (few, full, (few[0], full[1])):
            assert g.bracket(sparse(x), sparse(y)) == sparse(bracket_oracle(n, g.structure, x, y))
    assert g.killing_form() == killing_oracle(g)


@pytest.mark.parametrize("name", [f"su1n_{N}" for N in (1, 2, 3, 4)] + list(PSD_SPECS))
def test_bracket_triples_is_the_brute_force_triple_scan(name):
    """Every i < j < k in lexicographic order with a nonzero bracket among
    two of its elements, each with ([e_a, e_b], c) for the cyclic (a, b, c),
    brackets read off the whole table by bracket_oracle."""
    g = agreement_algebra(name)
    e = [[F(int(a == b)) for b in range(g.dim)] for a in range(g.dim)]
    want = []
    for i, j, k in combinations(range(g.dim), 3):
        terms = [
            (sparse(bracket_oracle(g.dim, g.structure, e[a], e[b])), c)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
        ]
        if any(br for br, _ in terms):
            want.append(((i, j, k), terms))
    got = [(t, [(dict(br), c) for br, c in terms]) for t, terms in bracket_triples(g.rows)]
    assert got == want


@pytest.mark.parametrize("name", ["su1n_1", "su1n_2", "su1n_3", "psd_3_2_3", "psd_cross_action"])
def test_vectors_are_sparse_maps_that_agree_with_dense_oracles(name):
    """combine, bilinear, ad, nullspace, Subspace.basis, Frame.coords and,
    on su(1, N), apply_sigma give the dense values as sparse maps.  The
    oracle side goes through sparse(), which drops zeros, so equality
    also says that no result stores a zero."""
    g = agreement_algebra(name)
    n = g.dim
    rng = random.Random(3 * n)
    vecs = [random_vector(rng, n, min(k + 1, n)) for k in range(3)] + [random_vector(rng, n, n)]
    vecs.append([a + b for a, b in zip(vecs[0], vecs[1])])
    rows = [sparse(v) for v in vecs]
    coeffs = [F(1), F(-2), F(0), F(1, 3), F(-1)]
    combo = [sum((c * v[t] for c, v in zip(coeffs, vecs)), F(0)) for t in range(n)]
    assert combine(sparse(coeffs), rows) == sparse(combo)
    assert combine({0: F(1), 1: F(1), 4: F(-1)}, rows) == {}
    killing = g.killing_form()
    x, y = vecs[0], vecs[3]
    want = sum((x[i] * killing[i][j] * y[j] for i in range(n) for j in range(n)), F(0))
    assert bilinear(killing, sparse(x), sparse(y)) == want
    ad, dense_ad = g.ad(sparse(x)), ad_oracle(g, x)
    assert ad == [sparse(row) for row in dense_ad]
    assert nullspace(ad, n) == [sparse(v) for v in nullspace_oracle(dense_ad, n)]
    red, _ = rref_oracle(vecs)
    sub = span_subspace(g, rows)
    assert sub.basis == tuple(sparse(r) for r in red)
    c = [F(k - 1, k + 1) for k in range(len(red))]
    point = [sum((ck * r[t] for ck, r in zip(c, red)), F(0)) for t in range(n)]
    assert Frame(sub.basis).coords(sparse(point)) == sparse(c)
    if name.startswith("su1n_"):
        model = build_su1n(int(name[len("su1n_"):]))
        flipped = [s * a for s, a in zip(model.sigma_diagonal, combo)]
        assert model.apply_sigma(sparse(combo)) == sparse(flipped)


@pytest.mark.parametrize("name", ["su1n_3", "psd_cross_action"])
def test_ad_reads_the_rows_without_a_bracket_call(name, monkeypatch):
    """ad_x is the transpose of the columns [x, e_j], read from the rows:
    it used to take one bracket call per basis vector."""
    g = agreement_algebra(name)
    n = g.dim
    rng = random.Random(n)
    xs = [sparse(random_vector(rng, n, k)) for k in (1, 2, n)]
    want = [transpose([g.bracket(x, {j: F(1)}) for j in range(n)], n) for x in xs]
    calls = []
    monkeypatch.setattr(LieAlgebra, "bracket", lambda *args: calls.append(args))
    assert [g.ad(x) for x in xs] == want and calls == []


@pytest.mark.parametrize("a, b, c", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
def test_jacobi_failure_through_one_bracket(a, b, c):
    """Triple (0, 1, 2) fails through [[e_a, e_b], e_c] alone: [e_a, e_b] = e_3
    and [e_3, e_c] = e_3, while the other two brackets of the triple vanish."""
    structure = {
        (min(a, b), max(a, b)): {3: F(1 if a < b else -1)},
        (c, 3): {3: F(-1)},
    }
    rep = jacobi_report(4, structure)
    assert rep == jacobi_oracle(4, structure)
    assert rep.worst_triple == (0, 1, 2)


def test_planted_jacobi_mutation_names_the_oracle_triple():
    g = build_su1n(3).algebra
    for structure in sign_flips(g, seed=11, count=len(g.structure)):
        rep = jacobi_oracle(g.dim, structure)
        if not rep.ok:
            break
    else:
        pytest.fail("no sign flip of su(1,3) breaks Jacobi")
    with pytest.raises(ValueError, match=re.escape(f"basis triple {rep.worst_triple}")):
        LieAlgebra(g.dim, g.labels, structure)


def test_planted_sign_flip_fails_jacobi_and_the_rebuild_oracle():
    """Every sign flip of the su(1, 3) table stops rebuilding the matrix
    commutator of the flipped pair, and of no other.  A flip that breaks
    Jacobi does so on a triple through an index of that pair, since
    only such Jacobiators read the flipped entry; the constructor and
    from_json refuse it, naming that triple."""
    model = build_su1n(3)
    g = model.algebra
    entries = sum(len(coeffs) for coeffs in g.structure.values())
    broken = 0
    for structure in sign_flips(g, seed=11, count=entries):
        pair = next(key for key in structure if structure[key] != g.structure[key])
        assert rebuild_oracle(model.matrices, structure) == [pair]
        rep = jacobi_report(g.dim, structure)
        if rep.ok:
            continue
        broken += 1
        assert set(pair) & set(rep.worst_triple)
        data = g.to_json()
        data["brackets"] = [
            {"i": i, "j": j, "coeffs": {str(k): frac_str(v) for k, v in coeffs.items()}}
            for (i, j), coeffs in sorted(structure.items())
        ]
        message = re.escape(f"basis triple {rep.worst_triple}")
        with pytest.raises(ValueError, match=message):
            LieAlgebra.from_json(data)
        with pytest.raises(ValueError, match=message):
            LieAlgebra(g.dim, g.labels, structure)
    assert broken


def test_subalgebra_of_a_subspace_that_is_not_closed_is_refused():
    g = sl2_like()
    with pytest.raises(ValueError, match="vectors 0 and 1 leaves the span"):
        subalgebra(g, span_subspace(g, [{1: F(1)}, {2: F(1)}]))
    model = build_su1n(3)
    # [p, p] lies in k
    with pytest.raises(ValueError, match="leaves the span"):
        subalgebra(model.algebra, model.p_space)


def test_cached_structure_is_read_only():
    g = build_su1n(3).algebra
    x = sparse([F(i % 4 - 1, 1 + i % 3) for i in range(g.dim)])
    y = sparse([F(2 - i % 5) for i in range(g.dim)])
    before = g.bracket(x, y)
    key = next(iter(g.structure))
    k = next(iter(g.structure[key]))
    with pytest.raises(TypeError):
        g.structure[key] = {k: F(1)}
    with pytest.raises(TypeError):
        g.structure[key][k] = F(5)
    with pytest.raises(TypeError):
        del g.structure[key]
    with pytest.raises(TypeError):
        g.rows[key[1]][key[0]] = {}
    assert build_su1n(3).algebra.bracket(x, y) == before



@pytest.mark.parametrize("name", ["su1n_1", "su1n_2", "su1n_3", "psd_3_2_3", "psd_4_4", "psd_3"])
def test_structure_in_reads_back_the_structure_table(name):
    g = agreement_algebra(name)
    units = [g.basis_vector(i) for i in range(g.dim)]
    got = structure_in(Frame(units), units, g.bracket)
    assert got == {key: dict(coeffs) for key, coeffs in g.structure.items()}


def test_structure_in_names_a_bracket_that_leaves_the_span():
    g = build_su1n(2).algebra
    # the first basis pair whose bracket has a component outside the pair
    i, j = next(
        (i, j) for (i, j), coeffs in sorted(g.structure.items()) if set(coeffs) - {i, j}
    )
    pair = [g.basis_vector(i), g.basis_vector(j)]
    with pytest.raises(ValueError, match="vectors 0 and 1"):
        structure_in(Frame(pair), pair, g.bracket)


def test_bound_once_attributes_still_build_and_fill_caches():
    """A constructor binds each attribute once and a cached_property
    fills once; rebinding or deleting any of them raises."""
    algebra = LieAlgebra(3, ["a", "b", "c"], {(0, 1): {2: 1}})
    sub = span_subspace(algebra, [{0: F(1)}, {2: F(2)}])
    frame = sub.frame
    assert sub.frame is frame and sub.contains({2: F(1)})
    read, _ = subalgebra(algebra, span_subspace(algebra, [{2: F(1)}]))
    bound = [(algebra, "labels"), (sub, "basis"), (sub, "frame"), (frame, "dual")]
    for obj, name in bound + [(read, "structure")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert sub.frame is frame and algebra.labels == ("a", "b", "c")
