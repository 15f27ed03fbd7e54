"""Dense GF(2) linear algebra on rows bit-packed into Python ints.

A matrix is a sequence of ints, one per row; bit j of a row is the entry in
column j.  Vectors use the same packing.  Addition is XOR and a dot product
is the parity of an AND, so everything here is exact.  Rows must be Python
ints, never numpy integers: `1 << np.int64(1000)` wraps silently.
`matvec` takes one parity per row and packs them all at once.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def matvec(rows: Sequence[int], x: int) -> int:
    """y = M x over GF(2); bit i of y is the parity of rows[i] & x.

    The parities are collected as bytes and packed into y in one call,
    rather than shifted into a growing int row by row.
    """
    parity = bytes([(row & x).bit_count() & 1 for row in rows])
    return pack_bits(np.frombuffer(parity, dtype=np.uint8))


def matmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def transpose(rows: Sequence[int], dim: int) -> list[int]:
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


def rank(rows: Sequence[int], dim: int) -> int:
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


def is_invertible(rows: Sequence[int], dim: int) -> bool:
    return rank(rows, dim) == dim
