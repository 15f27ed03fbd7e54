"""Reversible block cellular automaton, its exact affine operator form over
GF(2), and a small CNN stack that learns the evolution rule from data."""

from .ca import (
    BLOCK_TABLE,
    INVERSE_BLOCK_TABLE,
    Direction,
    EdgeMode,
    GridFormatError,
    Phase,
    block_transform,
    evolve,
    inverse_step,
    phase_at,
    random_grid,
    random_grids,
    step,
    validate_grid,
    validate_grids,
)
from .linops import (
    AffineOperator,
    KernelSpec,
    apply_operator,
    build_full_step_operator,
    build_phase_operator,
    build_wrap_permutation,
    compose,
    conv_to_matrix,
    deconv_to_matrix,
    devectorize_zigzag,
    vectorize_zigzag,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_TABLE", "INVERSE_BLOCK_TABLE", "Direction", "EdgeMode",
    "GridFormatError", "Phase", "block_transform", "evolve",
    "inverse_step", "phase_at", "random_grid",
    "random_grids", "step", "validate_grid", "validate_grids", "AffineOperator", "KernelSpec",
    "apply_operator", "build_full_step_operator", "build_phase_operator",
    "build_wrap_permutation", "compose", "conv_to_matrix",
    "deconv_to_matrix", "devectorize_zigzag", "vectorize_zigzag",
    "__version__",
]
