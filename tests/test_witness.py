"""Lowering networks in block form to affine stages with ReLU markers."""

import numpy as np
import pytest

from blockca.ca import EdgeMode, Phase, random_grid
from blockca.learn import build_model, block_form
from blockca.learn.models import blockwise
from blockca.learn.witness import (
    binarize_stages,
    lower_network,
    single_step_witness,
    two_step_witness,
    witness_logits,
)
from blockca.linops import vectorize_zigzag
from blockca.nn import (
    ConvLayer,
    DeconvLayer,
    Network,
    Pad1Layer,
    ReLULayer,
    SigmoidLayer,
)

VARIANTS = [
    (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP),
]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _grids(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([random_grid(n, 0.5, rng) for _ in range(count)])


def _layer_matrix(layer, n):
    """Matrix of a parameter-free layer on (1, n, n) inputs, probed on the
    standard basis (identity for None)."""
    if layer is None:
        return np.eye(n * n)
    images = layer.forward(np.eye(n * n).reshape(n * n, 1, n, n))[0]
    return images.reshape(n * n, -1).T


@pytest.mark.parametrize("phase,edge", VARIANTS)
@pytest.mark.parametrize("bypass", [False, True])
def test_lowered_stages_reproduce_network_probabilities(phase, edge, bypass):
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=23)
    stages = lower_network(net)
    for n in (4, 8):
        x = _grids(n, 6, 29)
        z = blockwise(block_form(net)[0],
                      lambda rows: witness_logits(stages, rows),
                      x.astype(np.float64))
        probs = net.predict(x[:, None].astype(np.float64))[:, 0]
        # the trailing geometry acts on logits; it commutes with the sigmoid
        assert np.abs(_sigmoid(z) - probs).max() <= 1e-10


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("phase,edge", VARIANTS)
@pytest.mark.parametrize("bypass", [False, True])
def test_block_stages_expand_to_whole_grid_chain(phase, edge, bypass, n):
    """P^T (I_blocks (x) f) P as explicit n*n-sized matrices: the lead map,
    the zigzag (block-major) permutation, kron(I, M) per affine stage with
    tiled biases, ReLU, then the inverse zigzag and the trailing map."""
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=37)
    # P and P^T are the network's own geometry layers, not ca's frames.
    lead, trail = (net.layers[0], net.layers[-1]) \
        if phase is Phase.OFFSET else (None, None)
    m = n + 2 if isinstance(lead, Pad1Layer) else n
    zigzag = np.stack([vectorize_zigzag(e.reshape(m, m))
                       for e in np.eye(m * m, dtype=np.uint8)], axis=1)
    blocks = m * m // 4
    stages = lower_network(net)
    chain = [("affine", zigzag @ _layer_matrix(lead, n), np.zeros(m * m))]
    for stage in stages:
        if stage[0] == "affine":
            _, mat, bias = stage
            stage = ("affine", np.kron(np.eye(blocks), mat),
                     np.tile(bias, blocks))
        chain.append(stage)
    chain.append(("affine", _layer_matrix(trail, m) @ zigzag.T,
                  np.zeros(n * n)))
    assert {s[0] for s in chain} == {"affine", "relu"}
    x = _grids(n, 6, 41).astype(np.float64)
    dense = witness_logits(chain, x.reshape(6, -1))
    block = blockwise(block_form(net)[0],
                      lambda rows: witness_logits(stages, rows),
                      x).reshape(6, -1)
    assert np.abs(dense - block).max() <= 1e-10


def test_every_stage_is_affine_or_relu():
    for bypass, shapes in [(False, [(16, 4), (32, 16), (4, 32)]),
                           (True, [(16, 4), (16, 16), (32, 16), (4, 32)])]:
        net = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, bypass, seed=31)
        stages = lower_network(net)
        assert {s[0] for s in stages} <= {"affine", "relu"}
        assert sum(1 for s in stages if s[0] == "relu") == \
            (1 if bypass else 2)
        # one block's maps, whatever the grid size
        assert [s[1].shape for s in stages if s[0] == "affine"] == shapes
        assert [s[2].shape for s in stages if s[0] == "affine"] == \
            [(rows,) for rows, _ in shapes]


def test_binarize_stages_clamp_to_exact_bits():
    stages = binarize_stages(4, alpha=10.0)
    z = np.array([[-3.0, -0.2, 0.2, 5.0]])
    out = witness_logits(stages, z)
    assert out.tolist() == [[0.0, 0.0, 1.0, 1.0]]
    assert {s[0] for s in stages} <= {"affine", "relu"}


def _block_local_stem():
    rng = np.random.default_rng(0)
    return [ConvLayer.create(rng, 1, 2, 2, 2), ReLULayer(),
            DeconvLayer.create(rng, 2, 1, 2, 2)]


def test_network_without_sigmoid_head_rejected():
    with pytest.raises(ValueError, match="expected a sigmoid output head"):
        lower_network(Network(_block_local_stem()))


class _UnknownLayer:
    kind = "mystery"


@pytest.mark.parametrize("tail,message", [
    ([SigmoidLayer(), Pad1Layer()], "layer 4 (pad1) is not block-local"),
    ([SigmoidLayer(), ReLULayer()], "cannot lower relu after the sigmoid"),
    ([SigmoidLayer(), _UnknownLayer()],
     "layer 4 (mystery) is not block-local"),
    ([_UnknownLayer(), SigmoidLayer()],
     "layer 3 (mystery) is not block-local"),
    ([SigmoidLayer(), SigmoidLayer()], "more than one sigmoid"),
])
def test_unlowerable_stacks_rejected(tail, message):
    net = Network([*_block_local_stem(), *tail])
    with pytest.raises(ValueError) as excinfo:
        lower_network(net)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("phase,edge", VARIANTS)
def test_single_step_witness_of_empty_stack_is_empty(phase, edge):
    net = build_model(phase, edge, seed=43)
    out = single_step_witness(net, np.zeros((0, 8, 8)))
    assert out.shape == (0, 8, 8) and out.dtype == np.uint8


def test_two_step_witness_of_empty_stack_has_no_margin():
    net_aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=47)
    net_offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=53)
    with pytest.raises(ValueError, match="no margin exists on an empty set"):
        two_step_witness(net_aligned, net_offset, np.zeros((0, 8, 8)))
