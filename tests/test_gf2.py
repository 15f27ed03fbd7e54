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
        if gf2.rank(rows, dim) == dim:
            break
    inv = gf2.inverse(rows, dim)
    identity = [1 << i for i in range(dim)]
    assert gf2.matmul(inv, rows) == identity
    assert gf2.matmul(rows, inv) == identity


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        gf2.inverse([0b01, 0b01], 2)
    assert gf2.rank([0b01, 0b01], 2) == 1
    # A 1024-dim permutation with one row replaced by the sum of two others.
    rows = [1 << int(j) for j in np.random.default_rng(4).permutation(1024)]
    rows[5] = rows[6] | rows[7]
    with pytest.raises(ValueError, match="singular"):
        gf2.inverse(rows, 1024)
    assert gf2.rank(rows, 1024) == 1023


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


@pytest.mark.parametrize("dim", [64, 1024])
def test_inverse_of_permutation_is_its_transpose(dim):
    rng = np.random.default_rng(2)
    for _ in range(10 if dim == 64 else 2):
        rows = [1 << int(j) for j in rng.permutation(dim)]
        assert gf2.inverse(rows, dim) == gf2.transpose(rows, dim)


def test_inverse_of_dense_32_by_32_matrices():
    rng = np.random.default_rng(3)
    inverted = 0
    while inverted < 10:
        rows = random_rows(rng, 32)
        if gf2.rank(rows, 32) != 32:
            continue
        inv = gf2.inverse(rows, 32)
        identity = [1 << i for i in range(32)]
        assert gf2.matmul(inv, rows) == identity
        assert gf2.matmul(rows, inv) == identity
        inverted += 1


KERNEL_DIMS = [1, 7, 8, 9, 63, 64, 65, 1024]


def mixed_matrix(rng, count, dim):
    """A 0/1 array of `count` rows of `dim` columns: zero rows, single-bit
    rows and dense rows (density 1/2), in a random order."""
    mat = (rng.random((count, dim)) < 0.5).astype(np.uint8)
    kind = rng.integers(0, 3, size=count)
    mat[kind == 0] = 0
    single = np.flatnonzero(kind == 1)
    mat[single] = 0
    mat[single, rng.integers(0, dim, size=single.size)] = 1
    return mat


def single_bit_matrix(rng, count, dim):
    """One set bit per row, as in the factors of the step operator."""
    mat = np.zeros((count, dim), dtype=np.uint8)
    mat[np.arange(count), rng.integers(0, dim, size=count)] = 1
    return mat


def unpacked(rows, dim) -> np.ndarray:
    return np.array([gf2.unpack_bits(r, dim) for r in rows]).reshape(-1, dim)


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_matvec_matches_numpy_mod_2_at_kernel_sizes(dim):
    rng = np.random.default_rng(dim)
    for make in (mixed_matrix, single_bit_matrix):
        mat = make(rng, dim, dim)
        for x in (np.zeros(dim, np.uint8), np.ones(dim, np.uint8),
                  (rng.random(dim) < 0.5).astype(np.uint8)):
            y = gf2.matvec(packed(mat), gf2.pack_bits(x))
            assert type(y) is int
            want = mat.astype(np.int64) @ x % 2
            assert np.array_equal(gf2.unpack_bits(y, dim), want)
    assert gf2.matvec([], 0b1011) == 0


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_matmul_matches_numpy_mod_2_at_kernel_sizes(dim):
    rng = np.random.default_rng(10 + dim)
    inner = int(rng.integers(1, dim + 2))
    for make in (mixed_matrix, single_bit_matrix):
        a = make(rng, dim, inner)
        b = mixed_matrix(rng, inner, dim)
        got = gf2.matmul(packed(a), packed(b))
        assert len(got) == dim
        assert all(type(r) is int for r in got)
        want = a.astype(np.float32) @ b.astype(np.float32) % 2
        assert np.array_equal(unpacked(got, dim), want)


def with_high_bits(rng, rows, dim):
    """The rows with random bits set at and above dim, which every column
    count of dim must ignore; about a third of the rows keep none."""
    return [row | (int(rng.integers(0, 8)) << dim) if rng.random() < 2 / 3
            else row for row in rows]


@pytest.mark.parametrize("dim", [*KERNEL_DIMS, 1025])
def test_rank_matches_numpy_mod_2_at_kernel_sizes(dim):
    rng = np.random.default_rng(20 + dim)
    for make in (mixed_matrix, single_bit_matrix):
        mat = make(rng, dim, dim)
        want = numpy_rank_mod_2(mat)
        assert gf2.rank(packed(mat), dim) == want
        assert gf2.rank(with_high_bits(rng, packed(mat), dim), dim) == want
    perm = np.eye(dim, dtype=np.uint8)[rng.permutation(dim)]
    assert gf2.rank(packed(perm), dim) == dim
    assert gf2.rank(with_high_bits(rng, packed(perm), dim), dim) == dim
    assert gf2.rank([1 << dim, 3 << dim, 0], dim) == 0


@pytest.mark.parametrize("dim", [*KERNEL_DIMS, 1025])
def test_rank_with_one_row_object_repeated(dim):
    """Operators share cached row objects, so one int can fill many rows;
    elimination must not change the row it was given."""
    rng = np.random.default_rng(30 + dim)
    mat = mixed_matrix(rng, dim, dim)
    mat[0, rng.integers(0, dim)] = 1
    repeat = rng.random(dim) < 0.5
    mat[repeat] = mat[0]
    rows = packed(mat)
    first = rows[0]
    rows = [first if r else row for r, row in zip(repeat, rows)]
    assert sum(row is first for row in rows) >= repeat.sum()
    assert gf2.rank(rows, dim) == numpy_rank_mod_2(mat)
    assert gf2.rank([first] * dim, dim) == 1
    assert rows[0] is first and first == gf2.pack_bits(mat[0])
