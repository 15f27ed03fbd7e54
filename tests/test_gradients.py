"""Backprop vs central finite differences on every layer kind."""

import numpy as np
import pytest

from blockca.ca import EdgeMode, Phase, random_grids, step
from blockca.linops import KernelSpec
from blockca.nn import (
    BypassLayer,
    ConvLayer,
    DeconvLayer,
    Network,
    SigmoidLayer,
    bce_loss,
    draw_input_with_margin,
    grad_check,
    relu_margin,
)
from blockca.learn import block_form, build_model
from blockca.learn.train import block_backward, block_keys, key_counts

# Overlapping (stride < kernel) and gapped (stride > kernel) windows.
WINDOWS = [(2, 1), (3, 1), (3, 2), (1, 2), (2, 3)]


def exact_targets(x, phase, edge):
    grids = [step((sample[0] >= 0.5).astype(np.uint8), phase, edge)
             for sample in x]
    return np.stack(grids)[:, None].astype(np.float64)


def test_zero_loss_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(0)
    net = Network([ConvLayer.create(rng, 1, 4, 2, 2), SigmoidLayer()])
    x = rng.random((2, 1, 4, 4))
    _, caches = net.forward(x)
    net.backward(np.zeros((2, 4, 2, 2)), caches)
    for _, grad in net.parameters():
        assert not grad().any()


def test_single_linear_layer_gradient_is_input_outer_product():
    rng = np.random.default_rng(1)
    layer = ConvLayer.create(rng, 1, 1, 1, 1)
    net = Network([layer])
    x = rng.random((3, 1, 2, 2))
    y, caches = net.forward(x)
    dy = rng.normal(size=y.shape)
    net.backward(dy, caches)
    assert np.allclose(layer.grad_weights[0, 0, 0, 0], np.sum(dy * x))
    assert np.allclose(layer.grad_bias[0], dy.sum())


def test_linear_network_matches_finite_differences_tightly():
    rng = np.random.default_rng(2)
    net = Network([ConvLayer.create(rng, 1, 3, 2, 2), BypassLayer(),
                   DeconvLayer.create(rng, 3, 2, 2, 2), BypassLayer(),
                   ConvLayer.create(rng, 2, 1, 1, 1), SigmoidLayer()])
    x = rng.random((2, 1, 4, 4))
    t = exact_targets(x, Phase.ALIGNED, EdgeMode.TORUS_WRAP)
    assert grad_check(net, x, t) <= 1e-6


@pytest.mark.parametrize("phase,edge", [
    (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP),
])
@pytest.mark.parametrize("bypass", [False, True])
def test_rule_models_match_finite_differences(phase, edge, bypass):
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=11)
    rng = np.random.default_rng(13)
    x = draw_input_with_margin(net, (2, 1, 4, 4), rng)
    assert relu_margin(net, x) > 1e-3
    t = exact_targets(x, phase, edge)
    assert grad_check(net, x, t) <= 1e-4


def test_deconv_gradient_matches_finite_differences_alone():
    rng = np.random.default_rng(3)
    layer = DeconvLayer.create(rng, 2, 1, 2, 2)
    net = Network([layer, SigmoidLayer()])
    x = rng.random((2, 2, 3, 3))
    t = (rng.random((2, 1, 6, 6)) < 0.5).astype(np.float64)
    assert grad_check(net, x, t) <= 1e-6


@pytest.mark.parametrize("k,s", WINDOWS)
def test_window_conv_gradients(k, s):
    # Exercises the general (stride != kernel) backward path.
    rng = np.random.default_rng(4)
    kernel = KernelSpec(2, 1, k, k, s, rng.normal(size=(2, 1, k, k)),
                        rng.normal(size=2))
    net = Network([ConvLayer(kernel), SigmoidLayer()])
    x = rng.random((2, 1, k + 3 * s, k + 3 * s))
    t = (rng.random((2, 2, 4, 4)) < 0.5).astype(np.float64)
    assert grad_check(net, x, t) <= 1e-6


@pytest.mark.parametrize("k,s", WINDOWS)
def test_window_deconv_gradients(k, s):
    rng = np.random.default_rng(5)
    kernel = KernelSpec(2, 1, k, k, s, rng.normal(size=(2, 1, k, k)),
                        rng.normal(size=1))
    net = Network([DeconvLayer(kernel), SigmoidLayer()])
    x = rng.random((1, 2, 3, 3))
    t = (rng.random((1, 1, k + 2 * s, k + 2 * s)) < 0.5).astype(np.float64)
    assert grad_check(net, x, t) <= 1e-6


def test_loss_gradient_through_full_stack_matches_fd_loss_curve():
    # End-to-end: loss decreases along the negative gradient direction.
    net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=17)
    rng = np.random.default_rng(19)
    x = draw_input_with_margin(net, (4, 1, 4, 4), rng)
    t = exact_targets(x, Phase.ALIGNED, EdgeMode.TORUS_WRAP)
    pred, caches = net.forward(x)
    before, dpred = bce_loss(pred, t)
    net.backward(dpred, caches)
    for param, grad in net.parameters():
        param -= 1e-3 * grad()
    after, _ = bce_loss(net.predict(x), t)
    assert after < before


@pytest.mark.parametrize("phase,edge", [
    (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP),
])
@pytest.mark.parametrize("bypass", [False, True])
@pytest.mark.parametrize("n", [4, 16])
def test_code_space_loss_and_gradients_equal_dense_backprop(phase, edge,
                                                            bypass, n):
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=23)
    lead, core = block_form(net)
    rng = np.random.default_rng(n)
    # A full batch of 32, a partial batch and a single grid, with targets
    # from the rule and drawn at random.
    for batch in (32, 7, 1):
        x = random_grids(batch, n, 0.5, rng)
        for t in (step(x, phase, edge), random_grids(batch, n, 0.5, rng)):
            pred, caches = net.forward(x[:, None].astype(np.float64))
            want, dpred = bce_loss(pred, t[:, None].astype(np.float64))
            net.backward(dpred, caches)
            dense = [grad().copy() for _, grad in net.parameters()]
            counts = key_counts(block_keys(lead, x, t))
            assert counts.sum() == x.size
            loss = block_backward(core, counts)
            assert abs(loss - want) <= 1e-12 * want
            for d, (_, grad) in zip(dense, net.parameters()):
                assert np.abs(grad() - d).max() <= 1e-12 * np.abs(d).max()
