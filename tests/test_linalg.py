"""Exact linear algebra kernel tests."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ballquant.linalg import (
    Frame,
    mat_inverse,
    nullspace,
    rank_sparse,
    rref,
    solve_in_span,
    solve_linear,
)

from oracles import (
    dense,
    identity_matrix,
    leading_principal_minors,
    mat_mul,
    nullspace_oracle,
    rref_oracle,
    sparse,
)


def frand(rng, lo=-6, hi=6):
    return F(rng.randint(lo, hi), rng.randint(1, 4))


def random_matrices(seed, count):
    """Seeded rational matrices: wide and tall shapes, sparse and dense
    rows, zero rows, duplicate rows and the all-zero matrix."""
    rng = random.Random(seed)
    for t in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.2, 0.5, 1.0])
        rows = [
            [frand(rng) if rng.random() < density else F(0) for _ in range(n)] for _ in range(m)
        ]
        if t % 5 == 1:
            rows.insert(rng.randrange(m + 1), [F(0)] * n)
        if t % 5 == 2:
            rows.append(rows[rng.randrange(m)][:])
        if t % 5 == 3:
            rows.append([F(-3, 2) * x for x in rows[rng.randrange(m)]])
        if t % 17 == 4:
            rows = [[F(0)] * n for _ in range(m)]
        yield rows, n


def test_rref_canonical():
    rows = [[F(2), F(4), F(0)], [F(1), F(2), F(1)]]
    red, pivots = rref(rows)
    assert red == [{0: F(1), 1: F(2)}, {2: F(1)}]
    assert pivots == [0, 2]


def test_rref_drops_zero_rows():
    rows = [[F(1), F(1)], [F(2), F(2)], [F(0), F(0)]]
    red, pivots = rref(rows)
    assert red == [{0: F(1), 1: F(1)}]
    assert pivots == [0]


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        rows = [[frand(rng) for _ in range(n)] for _ in range(m)]
        red = [dense(r, n) for r in rref(rows)[0]]
        again, _ = rref_oracle([r[:] for r in red])
        assert again == red


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(2, 6)
        rows = [[frand(rng) for _ in range(n)] for _ in range(m)]
        null = nullspace(rows, n)
        red, _ = rref(rows)
        assert len(null) == n - len(red)
        for v in null:
            for r in rows:
                assert sum(r[j] * x for j, x in v.items()) == 0


def test_solve_linear_consistent_and_inconsistent():
    a = [[F(1), F(2)], [F(3), F(4)]]
    x = solve_linear(a, [F(5), F(11)])
    assert x == [F(1), F(2)]
    # rank-deficient inconsistent system
    b = [[F(1), F(1)], [F(2), F(2)]]
    assert solve_linear(b, [F(1), F(3)]) is None
    # rank-deficient consistent system returns some solution
    x2 = solve_linear(b, [F(1), F(2)])
    assert x2 is not None and x2[0] + x2[1] == F(1)


def test_mat_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 5)
        while True:
            m = [[frand(rng) for _ in range(n)] for _ in range(n)]
            try:
                inv = mat_inverse(m)
                break
            except ValueError:
                continue
        assert mat_mul(m, inv) == identity_matrix(n)


def test_rank_sparse_matches_dense():
    rng = random.Random(19)
    for _ in range(25):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        rows = [[F(rng.randint(-3, 3)) if rng.random() < 0.4 else F(0) for _ in range(n)] for _ in range(m)]
        dense_rank = len(rref_oracle(rows)[0])
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        assert rank_sparse(sparse) == dense_rank


def test_elimination_matches_dense_oracle():
    shapes = set()
    for rows, n in random_matrices(29, 200):
        shapes.add((len(rows) < n, len(rows) > n))
        red, pivots = rref_oracle(rows)
        sparse_rows = [sparse(r) for r in rows]
        assert rref(rows) == rref(sparse_rows) == ([sparse(r) for r in red], pivots)
        null = [sparse(v) for v in nullspace_oracle(rows, n)]
        assert nullspace(rows, n) == null and nullspace(sparse_rows, n) == null
        assert rank_sparse(rows) == rank_sparse(sparse_rows) == len(red)
    assert shapes == {(True, False), (False, True), (False, False)}


def test_elimination_edge_cases():
    zero = [[F(0)] * 3 for _ in range(2)]
    assert rref(zero) == ([], [])
    assert rank_sparse(zero) == rank_sparse([{}, {}]) == rank_sparse([]) == 0
    eye = identity_matrix(3)
    assert nullspace_oracle(zero, 3) == eye
    assert nullspace(zero, 3) == [sparse(r) for r in eye]
    assert rref([]) == ([], []) and nullspace([], 2) == [{0: F(1)}, {1: F(1)}]
    dup = [[F(1, 2), F(1, 3)], [F(1, 2), F(1, 3)], [F(3), F(2)]]
    assert rref_oracle(dup) == ([[F(1), F(2, 3)]], [0])
    assert rref(dup) == ([{0: F(1), 1: F(2, 3)}], [0])
    assert rank_sparse([{1: F(2)}, {1: F(-4)}, {0: F(1, 7), 1: F(1)}]) == 2


def test_leading_principal_minors():
    m = [[F(2), F(1)], [F(1), F(3)]]
    assert leading_principal_minors(m) == [F(2), F(5)]
    m3 = [[F(1), F(0), F(0)], [F(0), F(4), F(2)], [F(0), F(2), F(2)]]
    assert leading_principal_minors(m3) == [F(1), F(4), F(4)]


def test_frame_require_reads_the_span_and_names_what_left_it():
    basis = [{0: F(1), 1: F(1)}, {2: F(2)}]
    frame = Frame(basis)
    assert frame.require({0: F(3), 1: F(3), 2: F(4)}, "unused") == {0: F(3), 1: F(2)}
    assert frame.require({}, "unused") == {}
    with pytest.raises(ValueError, match="^left the plane$"):
        frame.require({0: F(1)}, "left the plane")
    # solve_in_span writes the coordinates out densely, zeros included
    assert solve_in_span(basis, {2: F(4)}) == [F(0), F(2)]
    assert solve_in_span(basis, {0: F(1)}) is None
