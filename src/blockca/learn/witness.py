"""Reading a trained network as linear maps interleaved with ReLU.

Every rule-learning network maps each 2x2 block of its partition on its own
(see models.block_form), so on an n x n grid it is P^T (I_blocks (x) f) P:
P is ca.to_frame of its partition followed by cutting the frame into
blocks, and f is its core on one 2x2 block.  The core's layers are
convolutions, transposed convolutions and ReLUs, so f lowers to a short
list of (matrix, bias) stages with ReLU markers in between, 4 -> 16 -> 32
-> 4 whatever n is.  The final sigmoid is monotone and is replaced by
thresholding the logits at zero; P^T's unshift or crop then acts on logits,
which commutes with the elementwise sigmoid.

On binary grids f only ever sees the 16 block patterns, so the witnesses
run the stages once, on rollout.IDENTITY_TABLE (row c holds the cells of
code c), and read the thresholded 16-row table on every block of the
partition through ca.apply_rule: the bits of I_blocks (x) f without one
float row per block.  A non-finite logit of any of the 16 codes raises
TrainingDiverged instead of being thresholded.

Chaining two lowered half-step networks needs binary intermediate values.
A clamp built from two extra affine+ReLU stages (u = relu(a*z), then
u - relu(u - 1)) recovers exact bits from logits of abs >= 1/a.  Scaled by
the aligned network's 16-code margin it makes one fixed linear+ReLU chain
for every grid.  The clamp acts per cell and maps 0 to 0, so it commutes
with the offset network's torus shift and zero padding; it runs as the
tail of the aligned network's 16-row chain, and its 0/1 table is read on
the aligned partition before the offset network's table is read on its
own.  The clamp is exact only while a*|z| < 2^53 (beyond that u - 1 can
round to u), so a clamp table that differs from the thresholded logits
raises ValueError.
"""

from __future__ import annotations

import numpy as np

from ..ca import apply_rule, validate_grids
from ..linops import conv_to_matrix, deconv_to_matrix
from ..nn.layers import (
    ConvLayer,
    DeconvLayer,
    Network,
    ReLULayer,
)
from .models import block_form
from .rollout import IDENTITY_TABLE, TrainingDiverged, rule_of, tabulate


def lower_network(net: Network) -> list[tuple]:
    """Lower the core of a network in block form (see models.block_form),
    the network's own layers inside its partition frame, to
    [('affine', M, b) | ('relu',)] stages.

    The stages map the 4 cells of a block to its 4 logits; their shapes do
    not depend on the grid size.  block_form checks that the core ends in
    its only sigmoid, the head, which is dropped (callers threshold logits
    at 0).
    """
    _, core = block_form(net)
    stages = []
    shape = (1, 2, 2)  # one block; stages index its cells TL, TR, BL, BR
    for layer in core[:-1]:
        # block_form's windows tile their input: stride equals kernel size.
        if isinstance(layer, ConvLayer):
            k = layer.kernel
            stages.append(("affine", *conv_to_matrix(k, shape)))
            shape = (k.out_channels, shape[1] // k.stride, shape[2] // k.stride)
        elif isinstance(layer, DeconvLayer):
            k = layer.kernel
            stages.append(("affine", *deconv_to_matrix(k, shape)))
            shape = (k.in_channels, shape[1] * k.stride, shape[2] * k.stride)
        elif isinstance(layer, ReLULayer):
            stages.append(("relu",))
        # block_form admits no other kind but BypassLayer, the identity.
    return stages


def witness_logits(stages, flat: np.ndarray) -> np.ndarray:
    """Apply lowered stages to (N, dim) or (dim,) flattened inputs; `flat`
    is never written."""
    y = np.asarray(flat, dtype=np.float64)
    for stage in stages:
        if stage[0] == "affine":
            _, mat, bias = stage
            y = y @ mat.T + bias
        else:
            y = np.maximum(y, 0.0)
    return y


def _code_logits(net: Network) -> np.ndarray:
    """(16, 4) logits of the lowered core of `net` on the 16 block codes,
    row c for code c; a non-finite logit raises TrainingDiverged."""
    z = witness_logits(lower_network(net), IDENTITY_TABLE)
    if not np.isfinite(z).all():
        raise TrainingDiverged("non-finite witness logits")
    return z


def _read(net: Network, grids: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """A validated stack with every block of net's partition of code c
    replaced by row c of the (16, 4) 0/1 table `bits`."""
    return apply_rule(grids, *block_form(net)[0], rule_of(bits))


def binarize_stages(dim: int, alpha: float) -> list[tuple]:
    """Affine+ReLU stages computing clip(alpha*z, 0, 1) coordinatewise.

    Exact on inputs with |z| >= 1/alpha: positives land at 1, negatives at 0.
    """
    eye = np.eye(dim)
    return [
        ("affine", alpha * eye, np.zeros(dim)),
        ("relu",),
        ("affine", np.vstack([eye, eye]),
         np.concatenate([np.zeros(dim), -np.ones(dim)])),
        ("relu",),
        ("affine", np.hstack([eye, -eye]), np.zeros(dim)),
    ]


def single_step_witness(net: Network, grids) -> np.ndarray:
    """Predict a (..., n, n) stack of grids through the lowered stages, run
    once on the 16 block codes; logits thresholded at 0.  Non-finite
    logits raise TrainingDiverged."""
    return _read(net, validate_grids(grids), _code_logits(net) >= 0.0)


def two_step_witness(net_aligned: Network, net_offset: Network,
                     grids) -> tuple[np.ndarray, float]:
    """Chain both lowered half-step networks into one linear+ReLU stack.

    The clamp scale comes from the aligned network's 16-code margin (the
    least abs of tabulate(net_aligned).logits), not from the grids; returns
    (predicted grids, margin).  Raises ValueError if an aligned code logit
    is exactly zero, since then no clamp scale can binarize, or if the
    clamp does not give the exact bits of the aligned logits, and
    TrainingDiverged if a logit of either network is not finite.
    """
    g = validate_grids(grids)
    margin = float(np.abs(tabulate(net_aligned).logits).min())
    if margin == 0.0:
        raise ValueError("aligned logits touch zero; no clamp scale exists")
    z = _code_logits(net_aligned)
    bits = witness_logits(binarize_stages(4, 2.0 / margin), z)
    if not np.array_equal(bits, z >= 0.0):
        raise ValueError(f"the clamp at margin {margin!r} does not give "
                         f"exact bits: an aligned logit is too large")
    return _read(net_offset, _read(net_aligned, g, bits),
                 _code_logits(net_offset) >= 0.0), margin
