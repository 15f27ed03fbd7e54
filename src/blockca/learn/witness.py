"""Reading a trained network as linear maps interleaved with ReLU.

Every layer of the rule-learning stacks is either affine (convolutions,
transposed convolutions, torus shifts, pad/crop) or a ReLU, so the whole
network lowers to a list of (matrix, bias) stages with ReLU markers in
between.  The final sigmoid is monotone and is replaced by thresholding the
logits at zero; geometry layers that sit after the sigmoid act on logits
instead, which commutes with the elementwise sigmoid.

Chaining two lowered half-step networks needs binary intermediate values.
A clamp built from two extra affine+ReLU stages (u = relu(a*z), then
u - relu(u - 1)) recovers exact bits whenever the first network's logits
keep a positive margin, so the two-half-step evolution is exhibited as one
finite composition of linear maps and ReLU.
"""

from __future__ import annotations

import numpy as np

from ..ca import validate_grid, validate_grids
from ..linops import conv_to_matrix, deconv_to_matrix
from ..nn.layers import (
    BypassLayer,
    ConvLayer,
    Crop1Layer,
    DeconvLayer,
    Network,
    Pad1Layer,
    ReLULayer,
    SigmoidLayer,
    UnwrapShiftLayer,
    WrapShiftLayer,
)


def _probe_matrix(layer, shape) -> np.ndarray:
    """Matrix of a parameter-free linear layer on (c, h, w) inputs: column
    j is the layer's output on the j-th standard basis tensor."""
    size = int(np.prod(shape))
    images = layer.forward(np.eye(size).reshape(size, *shape))[0]
    return np.ascontiguousarray(images.reshape(size, -1).T)


def lower_network(net: Network, input_shape) -> list[tuple]:
    """Lower a stack to [('affine', M, b) | ('relu',)] stages on logits.

    The network must end in a sigmoid optionally followed by geometry
    layers; the sigmoid itself is dropped (callers threshold logits at 0).
    Convolutions lower through linops; geometry layers are probed.
    """
    stages = []
    shape = tuple(input_shape)
    saw_sigmoid = False
    for layer in net.layers:
        if isinstance(layer, SigmoidLayer):
            if saw_sigmoid:
                raise ValueError("more than one sigmoid in the stack")
            saw_sigmoid = True
            continue
        geometry = isinstance(layer, (WrapShiftLayer, UnwrapShiftLayer,
                                      Pad1Layer, Crop1Layer))
        if saw_sigmoid and isinstance(layer, Pad1Layer):
            raise ValueError("zero padding after the sigmoid does not "
                             "commute with thresholding")
        if saw_sigmoid and not geometry:
            raise ValueError(f"cannot lower {layer.kind} after the sigmoid")
        if geometry:
            mat = _probe_matrix(layer, shape)
            stages.append(("affine", mat, np.zeros(mat.shape[0])))
        elif isinstance(layer, ConvLayer):
            stages.append(("affine", *conv_to_matrix(layer.kernel, shape)))
        elif isinstance(layer, DeconvLayer):
            stages.append(("affine", *deconv_to_matrix(layer.kernel, shape)))
        elif isinstance(layer, ReLULayer):
            stages.append(("relu",))
        elif not isinstance(layer, BypassLayer):
            raise ValueError(f"cannot lower layer kind {layer.kind!r}")
        shape = layer.forward(np.zeros((1, *shape)))[0].shape[1:]
    if not saw_sigmoid:
        raise ValueError("expected a sigmoid output head")
    return stages


def witness_logits(stages, flat: np.ndarray) -> np.ndarray:
    """Apply lowered stages to (N, dim) or (dim,) flattened inputs."""
    x = np.asarray(flat, dtype=np.float64)
    for stage in stages:
        if stage[0] == "affine":
            _, mat, bias = stage
            x = x @ mat.T + bias
        else:
            x = np.maximum(x, 0.0)
    return x


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


def _flatten_grids(grids) -> np.ndarray:
    arr = validate_grids(grids)
    return arr.reshape(arr.shape[0], -1).astype(np.float64)


def single_step_witness(net: Network, grids) -> np.ndarray:
    """Predict grids through the lowered stages; logits thresholded at 0."""
    n = validate_grid(grids[0]).shape[0]
    stages = lower_network(net, (1, n, n))
    z = witness_logits(stages, _flatten_grids(grids))
    return (z >= 0.0).astype(np.uint8).reshape(len(grids), n, n)


def two_step_witness(net_aligned: Network, net_offset: Network,
                     grids) -> tuple[np.ndarray, float]:
    """Chain both lowered half-step networks into one linear+ReLU stack.

    The clamp scale is set from the aligned logits' margin on these grids;
    returns (predicted grids, margin).  Raises if any aligned logit is
    exactly zero, since then no clamp scale can binarize it.
    """
    n = validate_grid(grids[0]).shape[0]
    stages_a = lower_network(net_aligned, (1, n, n))
    stages_o = lower_network(net_offset, (1, n, n))
    z1 = witness_logits(stages_a, _flatten_grids(grids))
    margin = float(np.abs(z1).min())
    if margin == 0.0:
        raise ValueError("aligned logits touch zero; no clamp scale exists")
    chain = binarize_stages(n * n, 2.0 / margin) + stages_o
    z2 = witness_logits(chain, z1)
    return (z2 >= 0.0).astype(np.uint8).reshape(len(grids), n, n), margin
