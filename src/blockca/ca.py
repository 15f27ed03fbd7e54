"""Time-reversible block cellular automaton on an even-sided square lattice.

The update acts on non-overlapping 2x2 blocks.  Per block, the live count
decides the action: count 2 leaves the block unchanged; counts 0, 1 and 4
flip every cell; count 3 flips every cell and then rotates the block 180
degrees.  Successive steps alternate between two partitions: one anchored
at even coordinates ("aligned") and one shifted diagonally by (+1, +1)
("offset").  Every per-block action is a bijection on the 16 block states,
so each step is exactly invertible.

Edge handling for the offset partition is either torus wraparound (blocks
crossing an edge are glued to the opposite side) or a zero-pad-then-crop
scheme.  Cropping discards information, so inverse stepping is only
defined for the torus mode.

Here grids are cut into 2x2 blocks (nn and linops keep their own references):
apply_rule and map_blocks run a block map on every block of a partition.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Phase(Enum):
    """Which 2x2 partition a step uses."""

    ALIGNED = "aligned"
    OFFSET = "offset"


class EdgeMode(Enum):
    """Edge handling for the offset partition."""

    TORUS_WRAP = "torus"
    ZERO_PAD_CROP = "pad"


class Direction(Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


class GridFormatError(ValueError):
    """Raised when grid text cannot be parsed."""


def _blocks(g: np.ndarray) -> np.ndarray:
    """(..., n/2, n/2, 2, 2) view of a contiguous (..., n, n) stack, axes
    (block row, block column, row in block, column in block)."""
    *lead, h, w = g.shape
    return g.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2)


def block_codes(grids) -> np.ndarray:
    """4-bit code of every aligned 2x2 block of a (..., n, n) stack of binary
    grids, as a (..., n/2, n/2) uint8 array.

    Block bits are (top-left, top-right, bottom-left, bottom-right) packed
    little-endian: code = a + 2b + 4c + 8d.  Cells are not checked to be 0
    or 1; see validate_grids.
    """
    g = np.asarray(grids, dtype=np.uint8)
    if g.ndim < 2 or g.shape[-1] % 2 or g.shape[-2] % 2:
        raise ValueError(f"grid sides must be even, got shape {g.shape}")
    q = _blocks(g)
    return q[..., 0, 0] + 2 * q[..., 0, 1] + 4 * q[..., 1, 0] \
        + 8 * q[..., 1, 1]


def blocks_from_codes(codes) -> np.ndarray:
    """Inverse of block_codes: (..., h, w) codes in 0..15 to the
    (..., 2h, 2w) uint8 grids whose aligned blocks carry them."""
    c = np.asarray(codes, dtype=np.uint8)
    *lead, h, w = c.shape
    grids = np.empty((*lead, 2 * h, 2 * w), dtype=np.uint8)
    q = _blocks(grids)
    q[..., 0, 0] = c & 1
    q[..., 0, 1] = (c >> 1) & 1
    q[..., 1, 0] = (c >> 2) & 1
    q[..., 1, 1] = c >> 3
    return grids


# Every 2x2 block, one per code: ALL_BLOCKS[c] is the block of code c.
ALL_BLOCKS = blocks_from_codes(np.arange(16).reshape(16, 1, 1))


def _build_block_table() -> np.ndarray:
    """Enumerate the 16-entry block transform on ALL_BLOCKS."""
    count = ALL_BLOCKS.sum(axis=(1, 2))[:, None, None]
    out = np.where(count != 2, 1 - ALL_BLOCKS, ALL_BLOCKS)
    # Count 3 flips, then rotates the block 180 degrees.
    out = np.where(count == 3, out[:, ::-1, ::-1], out)
    table = block_codes(out)[:, 0, 0]
    if sorted(table.tolist()) != list(range(16)):
        raise RuntimeError("block transform table is not a permutation")
    return table


BLOCK_TABLE = _build_block_table()
INVERSE_BLOCK_TABLE = np.argsort(BLOCK_TABLE).astype(np.uint8)


def block_transform(code: int) -> int:
    """Apply the live-count rule to a 4-bit block code."""
    if not 0 <= code <= 15:
        raise ValueError(f"block code must be in 0..15, got {code}")
    return int(BLOCK_TABLE[code])


def all_binary(a: np.ndarray) -> bool:
    """Whether every entry of the array is 0 or 1.  An unsigned or bool
    array needs one max reduction and no mask; any other dtype is compared
    with 0 and 1, so -1, 0.5 and NaN fail.  An empty array passes."""
    if a.dtype.kind in "bu":
        return bool(a.max(initial=0) <= 1)
    return bool(((a == 0) | (a == 1)).all())


def validate_grids(grids) -> np.ndarray:
    """Check a (..., n, n) stack of grids; return it as uint8.

    The last two axes must be square with an even side of at least 2, and
    every cell must be 0 or 1.  A single (n, n) grid is a stack with no
    leading axes.  A uint8 stack is returned as it is; any other dtype is
    copied.  No blockca code writes into a stack it has checked.
    """
    g = np.asarray(grids)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"grid must be square, got shape {g.shape}")
    n = g.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    if not all_binary(g):
        raise ValueError("grid cells must be 0 or 1")
    return g.astype(np.uint8, copy=False)


def validate_grid(grid) -> np.ndarray:
    """Check a grid is square with even side and binary cells; return uint8."""
    g = np.asarray(grid)
    if g.ndim != 2:
        raise ValueError(f"grid must be square, got shape {g.shape}")
    return validate_grids(g)


def to_frame(x: np.ndarray, phase: Phase, edge: EdgeMode) -> np.ndarray:
    """A (..., n, n) stack in the frame whose aligned 2x2 blocks are the
    blocks of the partition (phase, edge), keeping its dtype: the stack
    itself for aligned, else every cell moved by (+1, +1), by a torus
    translation or, in pad mode, into a ring of zeros (n+2 a side)."""
    if phase is Phase.ALIGNED:
        return x
    if edge is EdgeMode.TORUS_WRAP:
        return np.roll(x, (1, 1), axis=(-2, -1))
    out = np.zeros((*x.shape[:-2], x.shape[-2] + 2, x.shape[-1] + 2), x.dtype)
    out[..., 1:-1, 1:-1] = x
    return out


def from_frame(z: np.ndarray, phase: Phase, edge: EdgeMode) -> np.ndarray:
    """Inverse of to_frame: translate back by (-1, -1) or crop the ring."""
    if phase is Phase.ALIGNED:
        return z
    if edge is EdgeMode.TORUS_WRAP:
        return np.roll(z, (-1, -1), axis=(-2, -1))
    return z[..., 1:-1, 1:-1]


def apply_rule(grids: np.ndarray, phase: Phase, edge: EdgeMode,
               table: np.ndarray) -> np.ndarray:
    """Apply a block rule, given as its 16-entry code table, to a validated
    (..., n, n) stack (see validate_grids): every block of code c of the
    partition (phase, edge) becomes the block of code table[c].  Codes stay
    uint8, so the work arrays are no wider than the grids themselves."""
    frame = to_frame(grids, phase, edge)
    return from_frame(blocks_from_codes(table[block_codes(frame)]),
                      phase, edge)


def map_blocks(x: np.ndarray, phase: Phase, edge: EdgeMode, fn) -> np.ndarray:
    """Apply a per-block map to every block of the partition (phase, edge)
    of a (..., n, n) stack: `fn` takes the (blocks, 4) rows of cells (TL,
    TR, BL, BR) of to_frame(x) and returns (blocks, 4) rows, which go back
    into their blocks and through from_frame.  The result has x's shape
    and the dtype of fn's rows."""
    frame = to_frame(x, phase, edge)
    rows = fn(_blocks(frame).reshape(-1, 4))
    out = np.empty(frame.shape, rows.dtype)
    _blocks(out)[...] = rows.reshape(_blocks(frame).shape)
    del rows  # fn's rows are not held while from_frame copies
    return from_frame(out, phase, edge)


def step(grid, phase: Phase = Phase.ALIGNED,
         edge: EdgeMode = EdgeMode.TORUS_WRAP) -> np.ndarray:
    """Advance one half-step: transform every block of the given partition.

    Takes one (n, n) grid or a (..., n, n) stack and steps every grid of
    the stack; the result has the input's shape.
    """
    return apply_rule(validate_grids(grid), phase, edge, BLOCK_TABLE)


def inverse_step(grid, phase: Phase = Phase.ALIGNED,
                 edge: EdgeMode = EdgeMode.TORUS_WRAP) -> np.ndarray:
    """Exact inverse of step under torus wrap, on a grid or a stack.

    Rejected for the pad-and-crop mode: cropping loses the outer ring, so no
    unique preimage exists.
    """
    if edge is not EdgeMode.TORUS_WRAP:
        raise ValueError("inverse stepping requires torus wrap; "
                         "pad-and-crop discards edge information")
    return apply_rule(validate_grids(grid), phase, edge, INVERSE_BLOCK_TABLE)


def phase_at(index: int) -> Phase:
    """Partition used by the index-th step of a trajectory (0-based)."""
    return Phase.ALIGNED if index % 2 == 0 else Phase.OFFSET


def evolve(grid, steps: int, edge: EdgeMode = EdgeMode.TORUS_WRAP,
           direction: Direction = Direction.FORWARD) -> list[np.ndarray]:
    """Run a trajectory of the given length; returns steps+1 grids.

    `grid` may be one (n, n) grid or a (..., n, n) stack, in which case
    every entry of the trajectory is a stack of the same shape.  Forward
    trajectories alternate aligned/offset starting from aligned.
    Backward trajectories undo a forward trajectory of the same length:
    inverse steps are applied with the phase order reversed, so evolving
    forward then backward over the same step count returns the start grid.
    Frame 0 is `grid` itself when it is a uint8 array (see validate_grids).
    """
    g = validate_grids(grid)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if direction is Direction.BACKWARD and edge is not EdgeMode.TORUS_WRAP:
        raise ValueError("backward evolution requires torus wrap")
    forward = direction is Direction.FORWARD
    table = BLOCK_TABLE if forward else INVERSE_BLOCK_TABLE
    out = [g]
    for k in range(steps):
        g = apply_rule(g, phase_at(k if forward else steps - 1 - k), edge,
                       table)
        out.append(g)
    return out


# Uniform float64 draws held at once by random_grids (512 kB).
RANDOM_DRAW_CELLS = 1 << 16


def random_grids(count: int, n: int, density: float, seed) -> np.ndarray:
    """(count, n, n) stack of grids with iid Bernoulli(density) cells.

    `seed` may be an int or an existing numpy Generator (consumed in place,
    which lets callers draw many grids from one stream).  The stack equals
    `count` successive random_grid calls on the same Generator.  Cells are
    drawn RANDOM_DRAW_CELLS uniforms at a time, which consumes the stream
    exactly as one draw of all of them would.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    grids = np.empty((count, n, n), dtype=np.uint8)
    cells = grids.reshape(-1)
    for lo in range(0, cells.size, RANDOM_DRAW_CELLS):
        part = cells[lo:lo + RANDOM_DRAW_CELLS]
        part[...] = rng.random(part.size) < density
    return grids


def random_grid(n: int, density: float, seed) -> np.ndarray:
    """One (n, n) grid, the first of random_grids(1, n, density, seed)."""
    return random_grids(1, n, density, seed)[0]


# Grid text format: line 1 is the side length, then n rows of n characters
# from {0, 1}, top row first.  Trajectories separate grids by a blank line.

def format_grid(grid) -> str:
    g = validate_grid(grid)
    rows = ["".join("1" if v else "0" for v in row) for row in g]
    return "\n".join([str(g.shape[0])] + rows) + "\n"


def parse_grid(text: str) -> np.ndarray:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise GridFormatError("empty grid text")
    head = lines[0]
    # int() refuses strings of more than 4300 digits with ValueError.
    if not (head.isascii() and head.isdigit() and len(head) <= 18):
        raise GridFormatError(f"first line must be the side length, "
                              f"got {head!r}")
    n = int(head)
    if len(lines) != n + 1:
        raise GridFormatError(f"expected {n} rows after the header, "
                              f"got {len(lines) - 1}")
    cells = np.zeros((n, n), dtype=np.uint8)
    for i, row in enumerate(lines[1:]):
        if len(row) != n or set(row) - {"0", "1"}:
            raise GridFormatError(f"row {i + 1} must be {n} characters "
                                  f"of 0/1, got {row!r}")
        cells[i] = [int(ch) for ch in row]
    try:
        return validate_grid(cells)
    except ValueError as exc:
        raise GridFormatError(str(exc)) from None


def format_trajectory(grids) -> str:
    return "\n".join(format_grid(g) for g in grids)


def parse_trajectory(text: str) -> list[np.ndarray]:
    chunks = [c for c in text.split("\n\n") if c.strip()]
    if not chunks:
        raise GridFormatError("empty trajectory text")
    return [parse_grid(c) for c in chunks]


def _read_text(path) -> str:
    try:
        with open(path, encoding="ascii") as f:
            return f.read()
    except UnicodeDecodeError:
        raise GridFormatError(f"{path} is not ASCII text") from None


def read_grid(path) -> np.ndarray:
    return parse_grid(_read_text(path))


def read_trajectory(path) -> list[np.ndarray]:
    return parse_trajectory(_read_text(path))


def write_trajectory(path, grids) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_trajectory(grids))
