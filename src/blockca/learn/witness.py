"""Reading a trained network as linear maps interleaved with ReLU.

Every rule-learning network maps each 2x2 block of its partition on its own
(see models.block_form), so on an n x n grid it is P^T (I_blocks (x) f) P:
P is ca.to_frame of its partition followed by cutting the frame into
blocks, f is its core on one 2x2 block, and ca.map_blocks runs all three.
The core's layers are convolutions, transposed convolutions and ReLUs, so
f lowers to a short list of (matrix, bias) stages with ReLU markers in
between, 4 -> 16 -> 32 -> 4 whatever n is.  The final sigmoid is monotone
and is replaced by thresholding the logits at zero; P^T's unshift or crop
then acts on logits, which commutes with the elementwise sigmoid.

Chaining two lowered half-step networks needs binary intermediate values.
A clamp built from two extra affine+ReLU stages (u = relu(a*z), then
u - relu(u - 1)) recovers exact bits from logits of abs >= 1/a.  The first
network maps each block by its code alone, so scaling the clamp by its
16-code margin makes one fixed linear+ReLU chain for every grid.  The
clamp acts per cell and maps 0 to 0, so it commutes with the offset
network's torus shift and zero padding and runs on each block in front of
that network's core.

witness_logits takes one row per 2x2 block and runs the stages over
near-equal slices of at most WITNESS_ROWS rows, writing the last affine
stage straight into one preallocated output, so every stage temporary stays
cache-sized however many grids the stack holds.  A slice is the whole
input or at least WITNESS_ROWS / 2 rows; slices of 512 rows or more give the
same bits as one pass over all rows, where smaller ones can take another
BLAS path.  A non-finite logit raises TrainingDiverged instead of being
thresholded.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..ca import map_blocks, validate_grids
from ..linops import conv_to_matrix, deconv_to_matrix
from ..nn.layers import (
    ConvLayer,
    DeconvLayer,
    Network,
    ReLULayer,
)
from .models import block_form
from .rollout import TrainingDiverged, tabulate

# Block rows per pass of witness_logits: a (rows, 32) float64 stage
# temporary is then 512 kB instead of one array over every block.
WITNESS_ROWS = 2048


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
    """Apply lowered stages to (N, dim) or (dim,) flattened inputs,
    WITNESS_ROWS rows at a time; `flat` is never written."""
    x = np.asarray(flat, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    last = max((i for i, stage in enumerate(stages) if stage[0] == "affine"),
               default=-1)
    out = np.empty((len(rows), stages[last][1].shape[0] if last >= 0
                    else rows.shape[1]))
    start = 0
    for block in np.array_split(rows, max(1, -(-len(rows) // WITNESS_ROWS))):
        stop = start + len(block)
        y = block
        for i, stage in enumerate(stages):
            if stage[0] == "affine":
                _, mat, bias = stage
                y = np.matmul(y, mat.T,
                              out=out[start:stop] if i == last else None)
                y += bias
            elif y is block:  # the caller's rows: never clipped in place
                y = np.maximum(y, 0.0)
            else:
                np.maximum(y, 0.0, out=y)
        if last < 0:
            out[start:stop] = y
        start = stop
    return out.reshape(*x.shape[:-1], out.shape[-1])


def _block_logits(net: Network, x: np.ndarray, head=()) -> np.ndarray:
    """Logits of the stages `head` then the lowered core of `net` on every
    block of the network's partition of the float stack x (see
    ca.map_blocks); a non-finite logit raises TrainingDiverged."""
    stages = [*head, *lower_network(net)]
    z = map_blocks(x, *block_form(net)[0], partial(witness_logits, stages))
    if not np.isfinite(z).all():
        raise TrainingDiverged("non-finite witness logits")
    return z


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
    """Predict a (..., n, n) stack of grids through the lowered stages on
    every block (see ca.map_blocks); logits thresholded at 0.  Non-finite
    logits raise TrainingDiverged."""
    z = _block_logits(net, validate_grids(grids).astype(np.float64))
    return (z >= 0.0).astype(np.uint8)


def two_step_witness(net_aligned: Network, net_offset: Network,
                     grids) -> tuple[np.ndarray, float]:
    """Chain both lowered half-step networks into one linear+ReLU stack.

    The clamp scale comes from the aligned network's 16-code margin (the
    least abs of tabulate(net_aligned).logits), not from the grids; returns
    (predicted grids, margin).  Raises ValueError if an aligned code logit
    is exactly zero, since then no clamp scale can binarize, and
    TrainingDiverged if a logit of either network is not finite.
    """
    x = validate_grids(grids).astype(np.float64)
    margin = float(np.abs(tabulate(net_aligned).logits).min())
    if margin == 0.0:
        raise ValueError("aligned logits touch zero; no clamp scale exists")
    z1 = _block_logits(net_aligned, x)
    z2 = _block_logits(net_offset, z1, binarize_stages(4, 2.0 / margin))
    return (z2 >= 0.0).astype(np.uint8), margin
