"""Grid maps read as 16-code tables, and their iterated application against
the exact trajectory (the feedback-loop view of the learned evolution)."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..ca import (Direction, EdgeMode, block_codes, evolve, validate_grid,
                  validate_grids)
from ..nn.layers import Network
from .models import CODE_BATCH, block_form, blockwise, code_forward

# The identity grid map's table: row c holds the cells of block code c.
IDENTITY_TABLE = CODE_BATCH.reshape(16, 4)


class TrainingDiverged(RuntimeError):
    """Raised when a loss or a network's prediction stops being finite."""


class BlockTable(NamedTuple):
    """A grid map as one table read on every block of a partition: its
    output on grids is row c of `table` (cells TL, TR, BL, BR) on each block
    of code c of `lead`'s partition (see models.blockwise) of
    `frame(grids)`, the binary grids the table reads."""

    frame: Callable[[np.ndarray], np.ndarray]
    lead: object
    table: np.ndarray

    def predict(self, grids: np.ndarray) -> np.ndarray:
        """The map's (count, n, n) float output on (count, n, n) grids."""
        return self._read(self.table, grids)

    def binary(self, grids: np.ndarray) -> np.ndarray:
        """predict thresholded at 0.5, as uint8."""
        return self._read((self.table >= 0.5).astype(np.uint8), grids)

    def _read(self, table, grids):
        def lookup(rows):
            return table[block_codes(rows.reshape(-1, 2, 2)).ravel()]
        return blockwise(self.lead, lookup, self.frame(grids))


def tabulate(model) -> BlockTable:
    """A grid map as a BlockTable, computed once for any number of reads.

    A grid map is a Network, whose output is its sigmoid probabilities, or
    a callable that takes and returns a (count, n, n) stack of binary
    grids; this is the one place that tells them apart.  A Network splits
    by block_form: its table is its core run once on the 16 block codes,
    read on its own partition of the validated grids, and a non-finite
    table raises TrainingDiverged instead of being scored.  A callable is
    called once per stack and is the identity table on its own output.
    """
    if isinstance(model, Network):
        lead, core = block_form(model)
        table = code_forward(core)[0].reshape(16, 4)
        if not np.isfinite(table).all():
            raise TrainingDiverged("non-finite prediction")
        return BlockTable(validate_grids, lead, table)

    def frame(grids):
        out = validate_grids(model(grids))
        if out.shape != grids.shape:
            raise ValueError(f"grid map returned shape {out.shape} "
                             f"for input shape {grids.shape}")
        return out
    return BlockTable(frame, None, IDENTITY_TABLE)


def predict_grids(model, grids: np.ndarray) -> np.ndarray:
    """A grid map's (count, n, n) float output on (count, n, n) grids (see
    tabulate)."""
    return tabulate(model).predict(grids)


def apply_model_binary(model, grids: np.ndarray) -> np.ndarray:
    """Run grids (count, n, n) through a grid map and threshold at 0.5."""
    return tabulate(model).binary(grids)


def rollout(model_aligned, model_offset, grid, steps: int):
    """Alternate the two models from a start grid for `steps` half-steps.

    Each model is tabulated once per call.  Each frame is compared with the
    exact torus trajectory from the same start; returns (trajectory,
    divergence_step) where divergence_step is the 1-based index of the
    first mismatching frame, or steps+1 if the whole rollout is exact.
    """
    g = validate_grid(grid)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    maps = (tabulate(model_aligned), tabulate(model_offset))
    exact = evolve(g, steps, EdgeMode.TORUS_WRAP, Direction.FORWARD)
    trajectory = [g]
    divergence = steps + 1
    current = g
    for k in range(steps):
        current = maps[k % 2].binary(current[None])[0]
        trajectory.append(current)
        if divergence == steps + 1 and not np.array_equal(current, exact[k + 1]):
            divergence = k + 1
    return trajectory, divergence
