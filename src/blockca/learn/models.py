"""Network architectures for learning the block rules.

The core stack is a 2x2 stride-2 convolution (one feature per block, 16
channels: enough to one-hot the 16 block states), a 2x2 stride-2 transposed
convolution back to cell resolution, and a 1x1 segmentation head with a
sigmoid.  The offset-partition variants wrap this core either in torus
shifts or in a zero-pad / crop pair, mirroring the two edge schemes of the
exact automaton.

Every such network maps each 2x2 block of its partition on its own, so its
whole behaviour is that of its core on the 16 block codes; block_form
splits a network into its partition (see ca.to_frame) and that core, and
ca.map_blocks applies a map of one block to every block of that partition.
code_forward and code_backward run the core on the 16 codes as row
stacks, (rows, channels, 1, 1) arrays of one position each, on which every
conv and deconv layer is one matrix product: one row per block code up to
the deconv, then one per cell.  The dense Network.forward and backward
stay for whole grids and as the reference.
"""

from __future__ import annotations

import numpy as np

from ..ca import ALL_BLOCKS, EdgeMode, Phase
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

# Leading geometry layer -> (the layer undoing it, its ca frame's edge mode).
_LEADS = {WrapShiftLayer: (UnwrapShiftLayer, EdgeMode.TORUS_WRAP),
          Pad1Layer: (Crop1Layer, EdgeMode.ZERO_PAD_CROP)}
ALIGNED_PARTITION = (Phase.ALIGNED, EdgeMode.TORUS_WRAP)
_POINTWISE_LAYERS = (ReLULayer, SigmoidLayer, BypassLayer)

# The 16 blocks as one (16, 1, 2, 2) batch, block c carrying code c.
CODE_BATCH = ALL_BLOCKS[:, None].astype(np.float64)

HIDDEN_CHANNELS = 16
DECODE_CHANNELS = 8


def build_model(phase: Phase, edge: EdgeMode, bypass_endpoints: bool = False,
                seed: int = 0) -> Network:
    """Build the rule-learning network for one partition and edge scheme.

    With ``bypass_endpoints`` the activations after the first and last
    hidden layers become identity maps.  A purely affine stack cannot
    represent the block rule (its output bits are not linearly separable in
    the block bits), so this variant keeps one ReLU by routing the block
    features through an extra 1x1 stage between the bypassed endpoints.
    """
    rng = np.random.default_rng(seed)
    encode = ConvLayer.create(rng, 1, HIDDEN_CHANNELS, size=2, stride=2)
    mix = []
    if bypass_endpoints:
        mix = [BypassLayer(), ConvLayer.create(
            rng, HIDDEN_CHANNELS, HIDDEN_CHANNELS, size=1, stride=1)]
    decode = DeconvLayer.create(rng, HIDDEN_CHANNELS, DECODE_CHANNELS,
                                size=2, stride=2)
    head = ConvLayer.create(rng, DECODE_CHANNELS, 1, size=1, stride=1)
    act = BypassLayer if bypass_endpoints else ReLULayer
    core = [encode, *mix, ReLULayer(), decode, act(), head, SigmoidLayer()]
    if phase is Phase.ALIGNED:
        return Network(core)
    if edge is EdgeMode.TORUS_WRAP:
        return Network([WrapShiftLayer(), *core, UnwrapShiftLayer()])
    return Network([Pad1Layer(), *core, Crop1Layer()])


def _is_window(layer, cls, size: int, stride: int) -> bool:
    if not isinstance(layer, cls):
        return False
    k = layer.kernel
    return k.height == k.width == size and k.stride == stride


def block_form(net: Network):
    """Split a build_model network into (partition, core).

    `partition` is the (Phase, EdgeMode) whose frame (see ca.to_frame) the
    leading WrapShiftLayer or Pad1Layer builds, or ALIGNED_PARTITION, and
    `core` the list of the network's own layers inside that frame, whose
    kernels are views of the network's theta and grad.  The core is checked
    to be block-local: a 2x2 stride-2 conv, then 1x1 stride-1 convs and
    pointwise layers around exactly one 2x2 stride-2 deconv, ending in its
    only sigmoid, the head.  So the network's output on each block of the
    partition depends on that block's 4-bit code alone.  Anything else
    raises ValueError naming the offending layer.
    """
    layers = list(net.layers)
    lead = layers[0] if layers and type(layers[0]) in _LEADS else None
    partition = ALIGNED_PARTITION
    if lead is not None:
        undo, edge = _LEADS[type(lead)]
        partition = (Phase.OFFSET, edge)
        if not isinstance(layers[-1], undo):
            raise ValueError(f"layer {len(layers) - 1} ({layers[-1].kind}) "
                             f"does not undo the leading {lead.kind}; "
                             f"expected {undo.kind}")
        layers = layers[1:-1]
    offset = 1 if lead is not None else 0
    if not layers or not _is_window(layers[0], ConvLayer, 2, 2):
        kind = layers[0].kind if layers else "none"
        raise ValueError(f"layer {offset} ({kind}) must be a 2x2 stride-2 "
                         f"conv")
    decoded = False
    for i, layer in enumerate(layers[1:], offset + 1):
        if not decoded and _is_window(layer, DeconvLayer, 2, 2):
            decoded = True
        elif not (_is_window(layer, ConvLayer, 1, 1)
                  or isinstance(layer, _POINTWISE_LAYERS)):
            raise ValueError(f"layer {i} ({layer.kind}) is not block-local: "
                             f"expected a 1x1 stride-1 conv, a pointwise "
                             f"layer or one 2x2 stride-2 deconv")
    if not decoded:
        raise ValueError("no 2x2 stride-2 deconv returns the blocks to "
                         "cell resolution")
    heads = [i for i, layer in enumerate(layers)
             if isinstance(layer, SigmoidLayer)]
    if heads != [len(layers) - 1]:
        i = heads[0] if heads else len(layers) - 1
        raise ValueError(f"layer {offset + i} ({layers[i].kind}) is not the "
                         f"head: the core must end in its only sigmoid")
    return partition, layers


def code_forward(core):
    """A block-form core (see block_form), a list of layers, run on the 16
    block codes as row stacks: (logits, probs, caches), (16, 4) before and
    after the head, row c for code c, cells TL, TR, BL, BR.

    The leading conv takes the 16 blocks of CODE_BATCH to 16 block rows,
    (16, C, 1, 1); the deconv's (16, O, 2, 2) output is laid out as 64 cell
    rows, code-major, (64, O, 1, 1); the 1x1 convs and pointwise layers act
    on the rows they are given.  Each layer runs its own forward, so this is
    the dense forward of the same layers on CODE_BATCH up to the order of
    floating-point sums.
    """
    x, caches = CODE_BATCH, []
    for layer in core[:-1]:
        x, cache = layer.forward(x)
        caches.append(cache)
        if isinstance(layer, DeconvLayer):
            x = x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1], 1, 1)
    if x.shape != (64, 1, 1, 1):
        raise ValueError(f"network maps the 16 blocks to rows of "
                         f"{x.shape[1]} channels, not one channel per block")
    logits = x.reshape(16, 4)
    probs, cache = core[-1].forward(logits)
    return logits, probs, [*caches, cache]


def code_backward(core, grad: np.ndarray, caches) -> None:
    """Backpropagate `grad`, the (16, 4) gradient of a loss with respect to
    code_forward's probs, through the core's layers, given that pass's
    caches.

    Each layer runs its own backward on the row stacks code_forward gave
    it, so each conv and deconv writes into its grad_weights and grad_bias
    (views of the network's grad, see block_form) what the dense backward
    of the same loss through those layers on CODE_BATCH would write there.
    """
    grad = core[-1].backward(grad, caches[-1]).reshape(64, 1, 1, 1)
    for layer, cache in zip(core[-2::-1], caches[-2::-1]):
        if isinstance(layer, DeconvLayer):
            grad = grad.reshape(16, 2, 2, -1).transpose(0, 3, 1, 2)
        grad = layer.backward(grad, cache)
