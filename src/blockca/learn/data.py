"""Supervised pairs generated from the exact automaton."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ca import (
    Direction,
    EdgeMode,
    Phase,
    inverse_step,
    random_grids,
    step,
)


@dataclass(frozen=True)
class Dataset:
    """Input/target grid pairs for one rule-learning task."""

    inputs: np.ndarray   # (count, n, n) uint8
    targets: np.ndarray  # (count, n, n) uint8
    n: int
    direction: Direction
    phase: Phase
    edge: EdgeMode
    seed: int
    density: float = 0.5

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def pairs(self):
        return list(zip(self.inputs, self.targets))


def rule_map(direction: Direction, phase: Phase, edge: EdgeMode):
    """The exact single half-step map this dataset's targets follow.

    The map takes one grid or a (..., n, n) stack.
    """
    if direction is Direction.FORWARD:
        return lambda g: step(g, phase, edge)
    return lambda g: inverse_step(g, phase, edge)


def generate_dataset(n: int, count: int, direction: Direction, phase: Phase,
                     edge: EdgeMode, seed: int,
                     density: float = 0.5) -> Dataset:
    """Random grids with their exact images under the chosen half-step."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    inputs = random_grids(count, n, density, seed)
    targets = rule_map(direction, phase, edge)(inputs)
    return Dataset(inputs, targets, n, direction, phase, edge, seed, density)


def verify_dataset(ds: Dataset) -> bool:
    """Recompute every target from its input; True iff all match."""
    fn = rule_map(ds.direction, ds.phase, ds.edge)
    return np.array_equal(fn(ds.inputs), ds.targets)
