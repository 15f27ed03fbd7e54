"""Dense GF(2) linear algebra on rows bit-packed into Python ints.

A matrix is a list of ints, one per row; bit j of a row is the entry in
column j.  Vectors use the same packing.  Addition is XOR and a dot product
is the parity of an AND, so everything here is exact.
"""

from __future__ import annotations

import numpy as np


def pack_bits(bits) -> int:
    """Pack an iterable of 0/1 into an int, index 0 -> least significant bit."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size == 0:
        return 0
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(),
                          "little")


def unpack_bits(word: int, width: int) -> np.ndarray:
    """Unpack the low `width` bits of an int into a uint8 array."""
    raw = word.to_bytes((width + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:width].copy()


def identity(dim: int) -> list[int]:
    return [1 << i for i in range(dim)]


def matvec(rows: list[int], x: int) -> int:
    """y = M x over GF(2); bit i of y is the parity of rows[i] & x."""
    y = 0
    for i, row in enumerate(rows):
        y |= ((row & x).bit_count() & 1) << i
    return y


def matmul(a: list[int], b: list[int]) -> list[int]:
    """Row representation of A B: row i of the product XORs the rows of B
    selected by the set bits of row i of A."""
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            acc ^= b[j]
            r &= r - 1
        out.append(acc)
    return out


def transpose(rows: list[int], dim: int) -> list[int]:
    out = [0] * dim
    for i, row in enumerate(rows):
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return out


def _echelon(rows, dim: int) -> dict[int, int]:
    """Echelon basis of the rows' span over columns < dim: {pivot: row}.

    A row's pivot is its lowest set bit below dim.  Each row is XORed with
    the basis row of its pivot until it finds a free pivot or vanishes.
    """
    low = (1 << dim) - 1
    basis = {}
    for row in rows:
        while row & low:
            pivot = (row & -row).bit_length() - 1
            if pivot not in basis:
                basis[pivot] = row
                break
            row ^= basis[pivot]
    return basis


def rank(rows: list[int], dim: int) -> int:
    """Gaussian elimination over GF(2)."""
    return len(_echelon(rows, dim))


def inverse(rows: list[int], dim: int) -> list[int]:
    """Matrix inverse by elimination on [M | I]; raises if singular."""
    basis = _echelon([rows[i] | (1 << (dim + i)) for i in range(dim)], dim)
    if len(basis) < dim:
        raise ValueError("matrix is singular over GF(2)")
    # From the highest pivot down, clear every bit above each row's own
    # pivot with the row of that pivot, which is already reduced.
    for pivot in range(dim - 1, -1, -1):
        above = basis[pivot] & ((1 << dim) - 1) & -(2 << pivot)
        while above:
            basis[pivot] ^= basis[(above & -above).bit_length() - 1]
            above &= above - 1
    return [basis[pivot] >> dim for pivot in range(dim)]


def is_invertible(rows: list[int], dim: int) -> bool:
    return rank(rows, dim) == dim


def is_permutation(rows: list[int], dim: int) -> bool:
    """Exactly one 1 per row and per column."""
    if len(rows) != dim:
        return False
    col_union = 0
    for row in rows:
        if row.bit_count() != 1:
            return False
        if col_union & row:
            return False
        col_union |= row
    return col_union == (1 << dim) - 1
