"""Grid maps read as 16-code tables, and their iterated application against
the exact trajectory (the feedback-loop view of the learned evolution)."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..ca import (Direction, EdgeMode, apply_rule, block_codes, evolve,
                  validate_grids)
from ..nn.layers import Network
from .models import ALIGNED_PARTITION, CODE_BATCH, block_form, code_forward

# The identity map's table (row c: the cells of code c) and +-inf logits.
IDENTITY_TABLE = CODE_BATCH.reshape(16, 4)
IDENTITY_LOGITS = np.where(IDENTITY_TABLE > 0, np.inf, -np.inf)


class TrainingDiverged(RuntimeError):
    """Raised when a network's prediction stops being finite."""


class BlockTable(NamedTuple):
    """A grid map as one table read on every block of a partition: its
    output on grids is row c of `table`, the sigmoid of `logits` (cells TL,
    TR, BL, BR), on each block of code c of `partition`, a (Phase,
    EdgeMode), of `frame(grids)`; `rule` codes the thresholded rows."""

    frame: Callable[[np.ndarray], np.ndarray]
    partition: tuple
    logits: np.ndarray
    table: np.ndarray
    rule: np.ndarray

    def binary(self, grids: np.ndarray) -> np.ndarray:
        """The map's output on (count, n, n) grids, thresholded at 0.5, as
        uint8."""
        return apply_rule(validate_grids(self.frame(grids)), *self.partition,
                          self.rule)


def tabulate(model) -> BlockTable:
    """A grid map as a BlockTable, computed once for any number of reads.

    A grid map is a Network, whose output is its sigmoid probabilities, or
    a callable that takes and returns a (count, n, n) stack of binary
    grids; this is the one place that tells them apart.  A Network splits
    by block_form: its logits and table are its core run once on the 16
    block codes, read on its own partition of the grids, and a non-finite
    logit raises TrainingDiverged instead of being scored.  A callable is
    called once per stack and is the identity table on its own output.
    """
    if isinstance(model, Network):
        partition, core = block_form(model)
        logits, table = code_forward(core)[:2]
        if not np.isfinite(logits).all():
            raise TrainingDiverged("non-finite prediction")
        frame = np.asarray
    else:
        partition = ALIGNED_PARTITION
        logits, table = IDENTITY_LOGITS, IDENTITY_TABLE

        def frame(grids):
            out = np.asarray(model(grids))
            if out.shape != grids.shape:
                raise ValueError(f"grid map returned shape {out.shape} "
                                 f"for input shape {grids.shape}")
            return out
    return BlockTable(frame, partition, logits, table, rule_of(table))


def rule_of(table: np.ndarray) -> np.ndarray:
    """The 16-entry code table of a (16, 4) probability table thresholded
    at 0.5 (see ca.apply_rule)."""
    return block_codes((table >= 0.5).reshape(16, 2, 2)).ravel()


def apply_model_binary(model, grids: np.ndarray) -> np.ndarray:
    """Run grids (count, n, n) through a grid map and threshold at 0.5."""
    return tabulate(model).binary(grids)


def rollout(model_aligned, model_offset, grids, steps: int):
    """Alternate the two models from a grid or a (..., n, n) stack of start
    grids for `steps` half-steps; each model is tabulated once per call.

    Each frame is compared with the exact torus trajectory from the same
    start; returns (trajectory, divergence): steps+1 frames shaped like
    `grids`, and the 1-based index of the first mismatching frame, or
    steps+1 if the whole rollout is exact, per start grid (an int for one).
    Frame 0 is a view of `grids` when that is uint8 (see validate_grids).
    """
    g = validate_grids(grids)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    maps = (tabulate(model_aligned), tabulate(model_offset))
    stack = g.reshape(-1, *g.shape[-2:])
    exact = evolve(stack, steps, EdgeMode.TORUS_WRAP, Direction.FORWARD)
    frames = [stack]
    for k in range(steps):
        frames.append(maps[k % 2].binary(frames[-1]))
    # wrong[k, i]: frame k of rollout i differs from the exact one.
    wrong = np.array([(f != e).any((1, 2)) for f, e in zip(frames, exact)])
    divergence = np.where(wrong.any(axis=0), wrong.argmax(axis=0), steps + 1)
    trajectory = [frame.reshape(g.shape) for frame in frames]
    divergence = divergence.reshape(g.shape[:-2])
    return trajectory, divergence if g.ndim > 2 else int(divergence)
