"""Exact linear-algebra view of the block automaton.

A grid is flattened block-major ("zigzag"): aligned blocks in row-major
order, each block read top-left, top-right, bottom-left, bottom-right.  In
that basis one half-step is an affine map y = M x XOR b over GF(2) whose
matrix is block diagonal with 4x4 blocks chosen by each input block's live
count.  The flip rules add the constant b, which is why the map is affine
rather than purely linear.  The diagonal shift between partitions is a
permutation matrix W, giving the two-half-step operator
W^-1 * B_half * W * B as an explicit matrix-plus-bias pair.  Every factor
has one bit per row and per column, so the product is composed as index
maps and made into rows once, by indexing a cached table of the single-bit
ints 1 << s with the composed map; `compose` is the reference it equals.

The module also lowers strided convolutions and transposed convolutions to
dense real matrices over the row-major flattening of (channels, height,
width) tensors, which is what lets a trained network be read as a finite
composition of linear maps and activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .ca import all_binary, validate_grid, validate_grids


def _zigzag(cells: np.ndarray) -> np.ndarray:
    """A (..., n, n) stack read block-major, each block TL, TR, BL, BR, into
    a new (..., n * n) array: the one statement of the zigzag layout, undone
    by _unzigzag."""
    *lead, n = cells.shape[:-1]
    return (cells.reshape(*lead, n // 2, 2, n // 2, 2).swapaxes(-3, -2)
            .copy().reshape(*lead, n * n))


def _unzigzag(vec: np.ndarray, n: int) -> np.ndarray:
    """The (n, n) array that _zigzag reads as vec."""
    return (vec.reshape(n // 2, n // 2, 2, 2).transpose(0, 2, 1, 3)
            .reshape(n, n))


def vectorize_zigzag(grid) -> np.ndarray:
    """Flatten a grid block-major, each block read TL, TR, BL, BR.  A
    (..., n, n) stack gives one (..., n * n) row per grid."""
    return _zigzag(validate_grids(grid))


def _binary_vector(vec, dim: int, what: str) -> np.ndarray:
    """vec as a uint8 vector of length dim, every entry checked to be 0 or
    1 before the cast, which would keep a 2 (read as 1 when packed) and
    truncate 0.5 to 0.  A uint8 vec is returned as it is, not copied."""
    v = np.asarray(vec)
    if v.shape != (dim,):
        raise ValueError(f"{what} expects a vector of length {dim}, "
                         f"got shape {v.shape}")
    if not all_binary(v):
        raise ValueError(f"{what} expects entries of 0 or 1")
    return v.astype(np.uint8, copy=False)


def devectorize_zigzag(vec, n: int) -> np.ndarray:
    """Exact inverse of vectorize_zigzag."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    return _unzigzag(_binary_vector(vec, n * n, "devectorize_zigzag"),
                     n).copy()


@dataclass(frozen=True)
class AffineOperator:
    """y = (matrix . x) XOR bias over GF(2), rows bit-packed into ints."""

    dim: int
    rows: tuple[int, ...]
    bias: int

    def __post_init__(self):
        if len(self.rows) != self.dim:
            raise ValueError("row count must equal dim")


def apply_operator(op: AffineOperator, vec) -> np.ndarray:
    v = _binary_vector(vec, op.dim, "apply_operator")
    y = gf2.matvec(op.rows, gf2.pack_bits(v)) ^ op.bias
    return gf2.unpack_bits(y, op.dim)


def compose(second: AffineOperator, first: AffineOperator) -> AffineOperator:
    """Operator for applying `first` then `second`."""
    if second.dim != first.dim:
        raise ValueError("operator dimensions differ")
    rows = gf2.matmul(second.rows, first.rows)
    bias = gf2.matvec(second.rows, first.bias) ^ second.bias
    return AffineOperator(second.dim, tuple(rows), bias)


def operator_is_invertible(op: AffineOperator) -> bool:
    return gf2.is_invertible(op.rows, op.dim)


def _half_step(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, flip) such that vec[src] ^ flip is the aligned half-step of the
    zigzag vector vec.  Per block: live count 2 keeps it, counts 0, 1, 4
    flip it, count 3 flips and reverses it (flip commutes with the 180
    degree rotation).  The rule is read from the live counts, one reshape
    for all blocks, never from ca.BLOCK_TABLE: the operators built from it
    are an independent check of the simulator.
    """
    counts = vec.reshape(-1, 4).sum(axis=1)
    src = np.arange(vec.size).reshape(-1, 4)
    src = np.where((counts == 3)[:, None], src[:, ::-1], src)
    return src.ravel(), np.repeat(counts != 2, 4)


@lru_cache(maxsize=16)
def _unit_rows(dim: int) -> np.ndarray:
    """Read-only object array whose entry s is the Python int 1 << s, the
    row that reads bit s: made once per dim, so building an operator takes
    its rows by index rather than shifting one int per row."""
    rows = np.array([1 << s for s in range(dim)], dtype=object)
    rows.flags.writeable = False
    return rows


def _operator(src: np.ndarray, bias: int) -> AffineOperator:
    """The operator x -> x[src] ^ bias.  Row i is the Python int 1 << src[i],
    taken from the cached _unit_rows: shifting a numpy integer would wrap
    past 63 bits."""
    return AffineOperator(src.size, tuple(_unit_rows(src.size)[src].tolist()),
                          bias)


def build_phase_operator(grid) -> AffineOperator:
    """Affine operator of one aligned half-step for this specific state:
    4x4 identity or reversal blocks, each with a flip bias or none."""
    src, flip = _half_step(_zigzag(validate_grid(grid)))
    return _operator(src, gf2.pack_bits(flip))


@lru_cache(maxsize=16)
def _wrap_source(n: int) -> np.ndarray:
    """Read-only source of each zigzag position of W for n x n grids: the
    positions, laid out as cells, rolled by (+1, +1), read back in zigzag."""
    src = _zigzag(np.roll(_unzigzag(np.arange(n * n), n), (1, 1),
                          axis=(0, 1)))
    src.flags.writeable = False
    return src


@lru_cache(maxsize=16)
def _unwrap_source(n: int) -> np.ndarray:
    """Read-only source of W^-1, the inverse permutation of _wrap_source."""
    src = np.argsort(_wrap_source(n))
    src.flags.writeable = False
    return src


def build_wrap_permutation(n: int) -> AffineOperator:
    """Permutation W with devectorize(W x) = the grid translated by (+1, +1).
    W is orthogonal over GF(2): its inverse is its transpose."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    return _operator(_wrap_source(n), 0)


def build_full_step_operator(grid) -> AffineOperator:
    """Exact operator for two half-steps (aligned, then offset on a torus).

    B is built from the grid itself and B_half from the shifted intermediate
    state, so W^-1 . B_half . W . B applied to the flattened grid equals the
    flattened two-step evolution.  Each factor maps x to x[src] ^ flip, and
    x[a] ^ f after y[b] ^ g is x[b[a]] ^ g[a] ^ f, so the product is composed
    as index maps and made into rows once; `compose` is the reference.
    """
    g = validate_grid(grid)
    vec, w = _zigzag(g), _wrap_source(g.shape[0])
    src, flip = _half_step(vec)
    src, flip = src[w], flip[w]
    half_src, half_flip = _half_step(vec[src] ^ flip)
    w_inv = _unwrap_source(g.shape[0])
    return _operator(src[half_src][w_inv],
                     gf2.pack_bits((flip[half_src] ^ half_flip)[w_inv]))


def format_operator(op: AffineOperator) -> str:
    """Dump format: dim, then dim rows of 0/1 characters, then the bias."""
    # Bit c is character c: each row is its low dim bits, reversed.
    mask, spec = (1 << op.dim) - 1, f"0{op.dim}b"
    lines = [format(row & mask, spec)[::-1] for row in (*op.rows, op.bias)]
    return "\n".join([str(op.dim), *lines]) + "\n"


class OperatorFormatError(ValueError):
    """Raised when operator dump text is malformed."""


def parse_operator(text: str) -> AffineOperator:
    """Read the format_operator dump; malformed text raises
    OperatorFormatError."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise OperatorFormatError("empty operator text")
    head = lines[0]
    # int() refuses more than 4300 digits; 18 digits fit any real dim.
    dim = (int(head) if head.isascii() and head.isdigit() and len(head) <= 18
           else 0)
    if dim < 1:
        raise OperatorFormatError(f"first line must be a positive dim, "
                                  f"got {head!r}")
    if len(lines) != dim + 2:
        raise OperatorFormatError(f"expected {dim} matrix rows plus a bias "
                                  f"line, got {len(lines) - 1} lines")
    for number, ln in enumerate(lines[1:], start=2):
        if len(ln) != dim or not set(ln) <= {"0", "1"}:
            raise OperatorFormatError(f"line {number} must be {dim} "
                                      f"characters of 0/1, got {ln!r}")
    # Character c of a line is bit c of its packed row.
    rows = tuple(int(ln[::-1], 2) for ln in lines[1:dim + 1])
    return AffineOperator(dim, rows, int(lines[dim + 1][::-1], 2))


@dataclass
class KernelSpec:
    """Shape and parameters of a strided convolution kernel.

    Weights are (out_channels, in_channels, height, width).  A convolution
    consumes in_channels and emits out_channels; the matching transposed
    convolution is its adjoint, consuming out_channels and emitting
    in_channels, so a transposed-convolution bias has in_channels entries.
    """

    out_channels: int
    in_channels: int
    height: int
    width: int
    stride: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        expect = (self.out_channels, self.in_channels, self.height, self.width)
        if min(*expect, self.stride) < 1:
            raise ValueError(f"channels, kernel size and stride must be "
                             f"positive, got {expect} stride {self.stride}")
        if tuple(self.weights.shape) != expect:
            raise ValueError(f"weights shape {self.weights.shape} does not "
                             f"match declared {expect}")
        if self.bias.shape not in ((self.out_channels,), (self.in_channels,)):
            raise ValueError(f"bias length {self.bias.shape} matches neither "
                             f"channel count")


def conv_output_hw(size: int, kernel: int, stride: int) -> int:
    if size < kernel or (size - kernel) % stride != 0:
        raise ValueError(f"input extent {size} does not tile exactly with "
                         f"kernel {kernel} stride {stride}")
    return (size - kernel) // stride + 1


def operation_bias(kernel: KernelSpec, out_side_channels: int) -> np.ndarray:
    """Bias for the side of the kernel an operation emits.

    A zero bias of the other side's length is accepted so the same kernel
    can be fed to a convolution and to its adjoint.
    """
    if kernel.bias.shape == (out_side_channels,):
        return kernel.bias
    if not kernel.bias.any():
        return np.zeros(out_side_channels)
    raise ValueError(f"bias length {kernel.bias.shape[0]} does not match "
                     f"the operation's {out_side_channels} output channels")


def _matrix_entries(kernel: KernelSpec, oh: int, ow: int, h: int, w: int):
    """(rows, cols) of weights[:, None, None] in the matrix of the conv from
    (in_channels, h, w) to (out_channels, oh, ow): output (o, p, q) reads
    input (i, p*stride + a, q*stride + b) with weight [o, i, a, b]; every
    (row, col) pair occurs exactly once."""
    s = kernel.stride
    o, p, q, i, a, b = np.ix_(range(kernel.out_channels), range(oh),
                              range(ow), range(kernel.in_channels),
                              range(kernel.height), range(kernel.width))
    return (o * oh + p) * ow + q, (i * h + p * s + a) * w + q * s + b


def conv_to_matrix(kernel: KernelSpec, input_shape) -> tuple[np.ndarray, np.ndarray]:
    """Dense lowering of a strided convolution.

    Returns (matrix, bias) with matrix @ x.ravel() + bias equal to the
    flattened convolution output for every input x of the given
    (channels, height, width) shape.
    """
    c, h, w = input_shape
    if c != kernel.in_channels:
        raise ValueError(f"input channels {c} != kernel in_channels "
                         f"{kernel.in_channels}")
    oh = conv_output_hw(h, kernel.height, kernel.stride)
    ow = conv_output_hw(w, kernel.width, kernel.stride)
    co = kernel.out_channels
    rows, cols = _matrix_entries(kernel, oh, ow, h, w)
    mat = np.zeros((co * oh * ow, c * h * w))
    mat[rows, cols] = kernel.weights[:, None, None]
    bias = np.repeat(operation_bias(kernel, co), oh * ow)
    return mat, bias


def deconv_to_matrix(kernel: KernelSpec, input_shape) -> tuple[np.ndarray, np.ndarray]:
    """Dense lowering of the transposed convolution: the conv matrix
    transposed, with the bias applied on the upsampled side."""
    c, h, w = input_shape
    if c != kernel.out_channels:
        raise ValueError(f"input channels {c} != kernel out_channels "
                         f"{kernel.out_channels}")
    oh = (h - 1) * kernel.stride + kernel.height
    ow = (w - 1) * kernel.stride + kernel.width
    ci = kernel.in_channels
    rows, cols = _matrix_entries(kernel, h, w, oh, ow)
    mat = np.zeros((ci * oh * ow, c * h * w))
    mat[cols, rows] = kernel.weights[:, None, None]
    bias = np.repeat(operation_bias(kernel, ci), oh * ow)
    return mat, bias
