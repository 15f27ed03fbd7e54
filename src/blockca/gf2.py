"""Dense GF(2) linear algebra on rows bit-packed into Python ints.

A matrix is a sequence of ints, one per row; bit j of a row is the entry in
column j.  Vectors use the same packing.  Addition is XOR and a dot product
is the parity of an AND, so everything here is exact.  Rows must be Python
ints, never numpy integers: `1 << np.int64(1000)` wraps silently.
`matvec` takes one parity per row and packs them all at once.  Elimination
pivots on each row's highest set bit below dim, read by `bit_length`, so a
row costs no temporary int until it meets a pivot that is taken.
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


def _echelon(rows, dim: int) -> list[int]:
    """Echelon basis of the rows' span over columns < dim: entry p is the
    basis row whose pivot is p, or 0 where no row has that pivot.

    A row's pivot is its highest set bit, which `bit_length` reads without
    building a new int.  Bits at or above dim are masked off first, and only
    for a row that has them, so every basis row lies below dim.  Each row is
    XORed with the basis row of its pivot, which clears that bit and leaves
    only lower ones, until it finds a free pivot or vanishes.  The rows
    given are never changed: XOR and AND make new ints.
    """
    low = (1 << dim) - 1
    basis = [0] * dim
    for row in rows:
        if row.bit_length() > dim:
            row &= low
        while row:
            pivot = row.bit_length() - 1
            reducer = basis[pivot]
            if not reducer:
                basis[pivot] = row
                break
            row ^= reducer
    return basis


def rank(rows: Sequence[int], dim: int) -> int:
    """Gaussian elimination over GF(2)."""
    return dim - _echelon(rows, dim).count(0)


def inverse(rows: list[int], dim: int) -> list[int]:
    """Matrix inverse by elimination on [I | M]; raises if singular.

    Row i of M sits above bit dim and bit i of I below it, so the pivots
    land in the M half exactly when M has full rank, and the I half of the
    basis row with pivot dim + j then records which rows of M sum to it.
    """
    basis = _echelon([(rows[i] << dim) | (1 << i) for i in range(dim)],
                     2 * dim)[dim:]
    if 0 in basis:
        raise ValueError("matrix is singular over GF(2)")
    # From the lowest pivot up, clear every M bit below each row's own
    # pivot with the row of that pivot, which is already reduced to e_j.
    for j in range(dim):
        below = (basis[j] >> dim) & ((1 << j) - 1)
        while below:
            basis[j] ^= basis[(below & -below).bit_length() - 1]
            below &= below - 1
    low = (1 << dim) - 1
    return [row & low for row in basis]
