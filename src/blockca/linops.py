"""Exact linear-algebra view of the block automaton.

A grid is flattened block-major ("zigzag"): aligned blocks in row-major
order, each block read top-left, top-right, bottom-left, bottom-right.  In
that basis one half-step is an affine map y = M x XOR b over GF(2) whose
matrix is block diagonal with 4x4 blocks chosen by each input block's live
count.  The flip rules add the constant b, which is why the map is affine
rather than purely linear.  The diagonal shift between partitions is a
permutation matrix W, giving the two-half-step operator
W^-1 * B_half * W * B as an explicit matrix-plus-bias pair.

The module also lowers strided convolutions and transposed convolutions to
dense real matrices over the row-major flattening of (channels, height,
width) tensors, which is what lets a trained network be read as a finite
composition of linear maps and activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .ca import validate_grid


def vectorize_zigzag(grid) -> np.ndarray:
    """Flatten a grid block-major, each block read TL, TR, BL, BR."""
    g = validate_grid(grid)
    n = g.shape[0]
    return g.reshape(n // 2, 2, n // 2, 2).transpose(0, 2, 1, 3).reshape(-1)


def devectorize_zigzag(vec, n: int) -> np.ndarray:
    """Exact inverse of vectorize_zigzag."""
    v = np.asarray(vec, dtype=np.uint8)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    if v.shape != (n * n,):
        raise ValueError(f"expected a vector of length {n * n}, "
                         f"got shape {v.shape}")
    return (v.reshape(n // 2, n // 2, 2, 2)
             .transpose(0, 2, 1, 3).reshape(n, n).copy())


@dataclass(frozen=True)
class AffineOperator:
    """y = (matrix . x) XOR bias over GF(2), rows bit-packed into ints."""

    dim: int
    rows: tuple[int, ...]
    bias: int

    def __post_init__(self):
        if len(self.rows) != self.dim:
            raise ValueError("row count must equal dim")


def identity_operator(dim: int) -> AffineOperator:
    return AffineOperator(dim, tuple(gf2.identity(dim)), 0)


def apply_operator(op: AffineOperator, vec) -> np.ndarray:
    v = np.asarray(vec, dtype=np.uint8)
    if v.shape != (op.dim,):
        raise ValueError(f"operator dim {op.dim} does not match "
                         f"vector shape {v.shape}")
    y = gf2.matvec(list(op.rows), gf2.pack_bits(v)) ^ op.bias
    return gf2.unpack_bits(y, op.dim)


def compose(second: AffineOperator, first: AffineOperator) -> AffineOperator:
    """Operator for applying `first` then `second`."""
    if second.dim != first.dim:
        raise ValueError("operator dimensions differ")
    rows = gf2.matmul(list(second.rows), list(first.rows))
    bias = gf2.matvec(list(second.rows), first.bias) ^ second.bias
    return AffineOperator(second.dim, tuple(rows), bias)


def invert_operator(op: AffineOperator) -> AffineOperator:
    """Inverse map: x = M^-1 y XOR M^-1 b."""
    inv_rows = gf2.inverse(list(op.rows), op.dim)
    return AffineOperator(op.dim, tuple(inv_rows),
                          gf2.matvec(inv_rows, op.bias))


def operator_is_invertible(op: AffineOperator) -> bool:
    return gf2.is_invertible(list(op.rows), op.dim)


def build_phase_operator(grid) -> AffineOperator:
    """Affine operator of one aligned half-step for this specific state.

    Per aligned block: live count 2 gives the 4x4 identity with zero bias;
    counts 0, 1, 4 give identity with all-ones bias (flip is x XOR 1); count
    3 gives the reversal permutation with all-ones bias (flip commutes with
    the 180 degree rotation).
    """
    g = validate_grid(grid)
    vec = vectorize_zigzag(g)
    dim = vec.size
    rows = [0] * dim
    bias = 0
    for base in range(0, dim, 4):
        count = int(vec[base:base + 4].sum())
        reverse = count == 3
        for j in range(4):
            src = base + (3 - j if reverse else j)
            rows[base + j] = 1 << src
        if count != 2:
            bias |= 0b1111 << base
    return AffineOperator(dim, tuple(rows), bias)


def _zigzag_index(i: int, j: int, n: int) -> int:
    return 4 * ((i // 2) * (n // 2) + j // 2) + 2 * (i % 2) + (j % 2)


def build_wrap_permutation(n: int) -> AffineOperator:
    """Permutation W with devectorize(W x) = the grid translated by (+1, +1).

    W is orthogonal over GF(2): its inverse is its transpose.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    dim = n * n
    rows = [0] * dim
    for i in range(n):
        for j in range(n):
            dst = _zigzag_index(i, j, n)
            src = _zigzag_index((i - 1) % n, (j - 1) % n, n)
            rows[dst] = 1 << src
    return AffineOperator(dim, tuple(rows), 0)


def build_full_step_operator(grid) -> AffineOperator:
    """Exact operator for two half-steps (aligned, then offset on a torus).

    The state-dependent factors are rebuilt for this input: the first from
    the grid itself, the second from the shifted intermediate state, so the
    product W^-1 . B_half . W . B applied to the flattened grid equals the
    flattened two-step evolution.
    """
    g = validate_grid(grid)
    n = g.shape[0]
    b_t = build_phase_operator(g)
    w = build_wrap_permutation(n)
    w_inv = AffineOperator(w.dim, tuple(gf2.transpose(list(w.rows), w.dim)), 0)
    intermediate = apply_operator(w, apply_operator(b_t, vectorize_zigzag(g)))
    b_half = build_phase_operator(devectorize_zigzag(intermediate, n))
    return compose(w_inv, compose(b_half, compose(w, b_t)))


def format_operator(op: AffineOperator) -> str:
    """Dump format: dim, then dim rows of 0/1 characters, then the bias."""
    lines = [str(op.dim)]
    for row in op.rows:
        lines.append("".join("1" if (row >> c) & 1 else "0"
                             for c in range(op.dim)))
    lines.append("".join("1" if (op.bias >> c) & 1 else "0"
                         for c in range(op.dim)))
    return "\n".join(lines) + "\n"


class OperatorFormatError(ValueError):
    """Raised when operator dump text is malformed."""


def parse_operator(text: str) -> AffineOperator:
    """Read the format_operator dump; malformed text raises
    OperatorFormatError."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise OperatorFormatError("empty operator text")
    head = lines[0]
    dim = int(head) if head.isascii() and head.isdigit() else 0
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
    # Output (o, p, q) reads input (i, p*stride + a, q*stride + b) with
    # weight [o, i, a, b]; every (row, col) pair occurs exactly once.
    o, p, q, i, a, b = np.ix_(range(co), range(oh), range(ow), range(c),
                              range(kernel.height), range(kernel.width))
    rows = (o * oh + p) * ow + q
    cols = (i * h + p * kernel.stride + a) * w + q * kernel.stride + b
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
    unbiased = KernelSpec(kernel.out_channels, kernel.in_channels,
                          kernel.height, kernel.width, kernel.stride,
                          kernel.weights, np.zeros(kernel.out_channels))
    conv_mat, _ = conv_to_matrix(unbiased, (kernel.in_channels, oh, ow))
    bias = np.repeat(operation_bias(kernel, kernel.in_channels), oh * ow)
    return conv_mat.T.copy(), bias
