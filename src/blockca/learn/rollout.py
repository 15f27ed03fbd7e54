"""Iterated application of trained per-phase models against the exact
trajectory (the feedback-loop view of the learned evolution)."""

from __future__ import annotations

import numpy as np

from ..ca import Direction, EdgeMode, evolve, validate_grid, validate_grids
from ..nn.layers import Network


class TrainingDiverged(RuntimeError):
    """Raised when a loss or a network's prediction stops being finite."""


def predict_grids(model, grids: np.ndarray) -> np.ndarray:
    """A grid map's (count, n, n) float output on (count, n, n) grids.

    A grid map is a Network, whose output is its sigmoid probabilities, or
    a callable that takes and returns a (count, n, n) stack of binary
    grids; the callable is called once for the whole stack.  A non-finite
    network output raises TrainingDiverged instead of being scored.
    """
    if isinstance(model, Network):
        out = model.predict(grids[:, None, :, :].astype(np.float64))[:, 0]
        if not np.isfinite(out).all():
            raise TrainingDiverged("non-finite prediction")
        return out
    out = validate_grids(model(grids))
    if out.shape != grids.shape:
        raise ValueError(f"grid map returned shape {out.shape} "
                         f"for input shape {grids.shape}")
    return out.astype(np.float64)


def apply_model_binary(model, grids: np.ndarray) -> np.ndarray:
    """Run grids (count, n, n) through a grid map and threshold at 0.5."""
    return (predict_grids(model, grids) >= 0.5).astype(np.uint8)


def rollout(model_aligned, model_offset, grid, steps: int):
    """Alternate the two models from a start grid for `steps` half-steps.

    Each frame is compared with the exact torus trajectory from the same
    start; returns (trajectory, divergence_step) where divergence_step is
    the 1-based index of the first mismatching frame, or steps+1 if the
    whole rollout is exact.
    """
    g = validate_grid(grid)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    exact = evolve(g, steps, EdgeMode.TORUS_WRAP, Direction.FORWARD)
    trajectory = [g]
    divergence = steps + 1
    current = g
    for k in range(steps):
        model = model_aligned if k % 2 == 0 else model_offset
        current = apply_model_binary(model, current[None])[0]
        trajectory.append(current)
        if divergence == steps + 1 and not np.array_equal(current, exact[k + 1]):
            divergence = k + 1
    return trajectory, divergence
