"""Lowering whole networks to affine stages with ReLU markers."""

import numpy as np
import pytest

from blockca.ca import EdgeMode, Phase, random_grid
from blockca.learn import build_model
from blockca.learn.witness import (
    binarize_stages,
    lower_network,
    witness_logits,
)
from blockca.nn import ConvLayer, Network, Pad1Layer, ReLULayer, SigmoidLayer


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@pytest.mark.parametrize("phase,edge", [
    (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP),
])
@pytest.mark.parametrize("bypass", [False, True])
def test_lowered_stages_reproduce_network_probabilities(phase, edge, bypass):
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=23)
    stages = lower_network(net, (1, 8, 8))
    rng = np.random.default_rng(29)
    x = np.stack([random_grid(8, 0.5, rng) for _ in range(6)])
    flat = x.reshape(6, -1).astype(np.float64)
    z = witness_logits(stages, flat)
    probs = net.predict(x[:, None].astype(np.float64))
    # geometry applied to logits commutes elementwise with the sigmoid
    assert np.abs(_sigmoid(z) - probs.reshape(6, -1)).max() <= 1e-10


def test_every_stage_is_affine_or_relu():
    net = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=31)
    stages = lower_network(net, (1, 4, 4))
    assert {s[0] for s in stages} <= {"affine", "relu"}
    assert sum(1 for s in stages if s[0] == "relu") == 2


def test_binarize_stages_clamp_to_exact_bits():
    stages = binarize_stages(4, alpha=10.0)
    z = np.array([[-3.0, -0.2, 0.2, 5.0]])
    out = witness_logits(stages, z)
    assert out.tolist() == [[0.0, 0.0, 1.0, 1.0]]
    assert {s[0] for s in stages} <= {"affine", "relu"}


def test_network_without_sigmoid_head_rejected():
    rng = np.random.default_rng(0)
    net = Network([ConvLayer.create(rng, 1, 2, 2, 2), ReLULayer()])
    with pytest.raises(ValueError):
        lower_network(net, (1, 4, 4))


class _UnknownLayer:
    kind = "mystery"

    def forward(self, x):
        return x, None


@pytest.mark.parametrize("tail,message", [
    ([SigmoidLayer(), Pad1Layer()], "zero padding after the sigmoid"),
    ([SigmoidLayer(), ReLULayer()], "cannot lower relu after the sigmoid"),
    ([SigmoidLayer(), _UnknownLayer()],
     "cannot lower mystery after the sigmoid"),
    ([_UnknownLayer(), SigmoidLayer()], "cannot lower layer kind 'mystery'"),
    ([SigmoidLayer(), SigmoidLayer()], "more than one sigmoid"),
])
def test_unlowerable_stacks_rejected(tail, message):
    rng = np.random.default_rng(0)
    net = Network([ConvLayer.create(rng, 1, 1, 1, 1), *tail])
    with pytest.raises(ValueError, match=message):
        lower_network(net, (1, 4, 4))

