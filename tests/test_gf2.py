"""Bit-packed GF(2) row algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockca import gf2


def random_rows(rng, dim):
    return [int(rng.integers(0, 1 << dim)) for _ in range(dim)]


def test_pack_unpack_round_trip():
    bits = np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
    assert np.array_equal(gf2.unpack_bits(gf2.pack_bits(bits), 7), bits)
    assert gf2.pack_bits([]) == 0


def test_matvec_is_parity_of_row_and_vector():
    rows = [0b101, 0b011, 0b111]
    x = 0b110
    # row 0: 0b100 -> 1 bit -> 1; row 1: 0b010 -> 1; row 2: 0b110 -> 0
    assert gf2.matvec(rows, x) == 0b011


def test_matmul_matches_numpy_mod_2():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = int(rng.integers(1, 9))
        a = random_rows(rng, dim)
        b = random_rows(rng, dim)
        got = gf2.matmul(a, b)
        a_np = np.array([gf2.unpack_bits(r, dim) for r in a])
        b_np = np.array([gf2.unpack_bits(r, dim) for r in b])
        want = (a_np @ b_np) % 2
        got_np = np.array([gf2.unpack_bits(r, dim) for r in got])
        assert np.array_equal(got_np, want)


def test_transpose_involution():
    rng = np.random.default_rng(1)
    rows = random_rows(rng, 12)
    assert gf2.transpose(gf2.transpose(rows, 12), 12) == rows


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_inverse_really_inverts(seed):
    rng = np.random.default_rng(seed)
    dim = 8
    while True:
        rows = random_rows(rng, dim)
        if gf2.is_invertible(rows, dim):
            break
    inv = gf2.inverse(rows, dim)
    assert gf2.matmul(inv, rows) == gf2.identity(dim)
    assert gf2.matmul(rows, inv) == gf2.identity(dim)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        gf2.inverse([0b01, 0b01], 2)
    assert gf2.rank([0b01, 0b01], 2) == 1


def numpy_rank_mod_2(mat) -> int:
    """Row reduction of a 0/1 array in numpy, independent of gf2."""
    m = np.array(mat, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        hits = np.flatnonzero(m[rank:, col])
        if hits.size == 0:
            continue
        m[[rank, rank + hits[0]]] = m[[rank + hits[0], rank]]
        others = np.flatnonzero(m[:, col])
        m[others[others != rank]] ^= m[rank]
        rank += 1
    return rank


def packed(mat) -> list[int]:
    return [gf2.pack_bits(row) for row in mat]


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_numpy_mod_2_elimination(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        dim = int(rng.integers(1, 41))
        count = int(rng.integers(0, 51))
        density = rng.uniform(0.05, 0.9)
        mat = (rng.random((count, dim)) < density).astype(np.uint8)
        assert gf2.rank(packed(mat), dim) == numpy_rank_mod_2(mat)


@pytest.mark.parametrize("seed", range(4))
def test_rank_of_singular_and_permutation_matrices(seed):
    rng = np.random.default_rng(100 + seed)
    for dim in range(3, 41, 3):
        mat = (rng.random((dim, dim)) < rng.uniform(0.05, 0.9)).astype(np.uint8)
        i, j, k = rng.choice(dim, size=3, replace=False)
        mat[k] = mat[i] ^ mat[j]
        assert gf2.rank(packed(mat), dim) == numpy_rank_mod_2(mat) < dim
        perm = np.eye(dim, dtype=np.uint8)[rng.permutation(dim)]
        assert gf2.rank(packed(perm), dim) == numpy_rank_mod_2(perm) == dim


def test_inverse_of_permutation_is_its_transpose():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rows = [1 << int(j) for j in rng.permutation(64)]
        assert gf2.inverse(rows, 64) == gf2.transpose(rows, 64)


def test_inverse_of_dense_32_by_32_matrices():
    rng = np.random.default_rng(3)
    inverted = 0
    while inverted < 10:
        rows = random_rows(rng, 32)
        if not gf2.is_invertible(rows, 32):
            continue
        inv = gf2.inverse(rows, 32)
        assert gf2.matmul(inv, rows) == gf2.identity(32)
        assert gf2.matmul(rows, inv) == gf2.identity(32)
        inverted += 1


def test_permutation_detection():
    assert gf2.is_permutation([0b010, 0b100, 0b001], 3)
    assert not gf2.is_permutation([0b010, 0b010, 0b001], 3)
    assert not gf2.is_permutation([0b011, 0b100, 0b001], 3)
