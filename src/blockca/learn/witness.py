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


def _index_map_matrix(out_shape, in_shape, mapping) -> np.ndarray:
    """0/1 matrix M with out.ravel() = M @ in.ravel() per an index map."""
    mat = np.zeros((int(np.prod(out_shape)), int(np.prod(in_shape))))
    for out_idx in np.ndindex(*out_shape):
        src = mapping(out_idx)
        if src is not None:
            mat[np.ravel_multi_index(out_idx, out_shape),
                np.ravel_multi_index(src, in_shape)] = 1.0
    return mat


def _geometry_stage(layer, shape):
    c, h, w = shape
    if isinstance(layer, WrapShiftLayer):
        mat = _index_map_matrix(shape, shape,
                                lambda o: (o[0], (o[1] - 1) % h, (o[2] - 1) % w))
        return mat, np.zeros(mat.shape[0]), shape
    if isinstance(layer, UnwrapShiftLayer):
        mat = _index_map_matrix(shape, shape,
                                lambda o: (o[0], (o[1] + 1) % h, (o[2] + 1) % w))
        return mat, np.zeros(mat.shape[0]), shape
    if isinstance(layer, Pad1Layer):
        out_shape = (c, h + 2, w + 2)
        def pad_src(o):
            i, j = o[1] - 1, o[2] - 1
            return (o[0], i, j) if 0 <= i < h and 0 <= j < w else None
        mat = _index_map_matrix(out_shape, shape, pad_src)
        return mat, np.zeros(mat.shape[0]), out_shape
    if isinstance(layer, Crop1Layer):
        out_shape = (c, h - 2, w - 2)
        mat = _index_map_matrix(out_shape, shape,
                                lambda o: (o[0], o[1] + 1, o[2] + 1))
        return mat, np.zeros(mat.shape[0]), out_shape
    raise TypeError(f"not a geometry layer: {layer!r}")


def lower_network(net: Network, input_shape) -> list[tuple]:
    """Lower a stack to [('affine', M, b) | ('relu',)] stages on logits.

    The network must end in a sigmoid optionally followed by geometry
    layers; the sigmoid itself is dropped (callers threshold logits at 0).
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
        if isinstance(layer, (WrapShiftLayer, UnwrapShiftLayer, Pad1Layer,
                              Crop1Layer)):
            if saw_sigmoid and isinstance(layer, Pad1Layer):
                raise ValueError("zero padding after the sigmoid does not "
                                 "commute with thresholding")
            mat, bias, shape = _geometry_stage(layer, shape)
            stages.append(("affine", mat, bias))
            continue
        if saw_sigmoid:
            raise ValueError(f"cannot lower {layer.kind} after the sigmoid")
        if isinstance(layer, ConvLayer):
            mat, bias = conv_to_matrix(layer.kernel, shape)
            k = layer.kernel
            shape = (k.out_channels,
                     (shape[1] - k.height) // k.stride + 1,
                     (shape[2] - k.width) // k.stride + 1)
            stages.append(("affine", mat, bias))
        elif isinstance(layer, DeconvLayer):
            mat, bias = deconv_to_matrix(layer.kernel, shape)
            k = layer.kernel
            shape = (k.in_channels,
                     (shape[1] - 1) * k.stride + k.height,
                     (shape[2] - 1) * k.stride + k.width)
            stages.append(("affine", mat, bias))
        elif isinstance(layer, ReLULayer):
            stages.append(("relu",))
        elif isinstance(layer, BypassLayer):
            continue
        else:
            raise ValueError(f"cannot lower layer kind {layer.kind!r}")
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
