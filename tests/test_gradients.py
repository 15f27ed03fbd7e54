"""Backprop vs central finite differences on every layer kind."""

import dataclasses

import numpy as np
import pytest

from blockca.ca import Direction, EdgeMode, Phase, random_grids, step
from blockca.linops import KernelSpec
from blockca.nn import (
    BypassLayer,
    ConvLayer,
    Crop1Layer,
    DeconvLayer,
    Network,
    Pad1Layer,
    ReLULayer,
    SigmoidLayer,
    WrapShiftLayer,
    UnwrapShiftLayer,
    bce_loss,
    counted_bce_loss,
    draw_input_with_margin,
    grad_check,
    gradient_error,
    relu_margin,
)
from blockca.nn.gradcheck import FD_STEP
from blockca.learn import block_form, build_model, generate_dataset
from blockca.learn.models import CODE_BATCH, code_backward, code_forward
from blockca.learn.train import block_keys, key_counts

# Overlapping (stride < kernel) and gapped (stride > kernel) windows.
WINDOWS = [(2, 1), (3, 1), (3, 2), (1, 2), (2, 3)]


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def dense_copy(core):
    """A Network of fresh layers holding copies of a block-form core's
    kernels (see block_form): the dense reference for its row form."""
    return Network([
        type(layer)(dataclasses.replace(
            layer.kernel, weights=layer.kernel.weights.copy(),
            bias=layer.kernel.bias.copy()))
        if hasattr(layer, "kernel") else layer for layer in core])


def code_step(core, counts):
    """BCE of a core's 16-code table on (16, 4, 2) key_counts, backpropagated
    through the core: code_forward, counted_bce_loss, code_backward, the
    pieces of one training step of train.fit."""
    _, probs, caches = code_forward(core)
    loss, grad = counted_bce_loss(probs, counts[..., 1], counts[..., 0],
                                  counts.sum())
    code_backward(core, grad, caches)
    return loss


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
        assert not grad.any()


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


# The five supervised tasks: (direction, phase, edge, bypass_endpoints).
TASKS = {
    "fwd-aligned": (Direction.FORWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                    False),
    "fwd-offset-torus": (Direction.FORWARD, Phase.OFFSET, EdgeMode.TORUS_WRAP,
                         False),
    "fwd-offset-pad": (Direction.FORWARD, Phase.OFFSET,
                       EdgeMode.ZERO_PAD_CROP, False),
    "bwd-aligned": (Direction.BACKWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                    False),
    "fwd-aligned-bypass": (Direction.FORWARD, Phase.ALIGNED,
                           EdgeMode.TORUS_WRAP, True),
}


@pytest.mark.parametrize("task", TASKS.values(), ids=TASKS.keys())
def test_training_step_gradient_matches_finite_differences_in_theta(task):
    # The gradient train.fit descends: counted_bce_loss of the core's
    # 16-code table on one minibatch's key counts, as a function of the
    # network's theta, against code_backward's net.grad.
    direction, phase, edge, bypass = task
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=50)
    partition, core = block_form(net)
    # The 16 codes cannot be redrawn as draw_input_with_margin redraws
    # inputs, so the seed is fixed and every ReLU pre-activation on them
    # is checked to lie ten finite-difference steps clear of the kink.
    assert relu_margin(dense_copy(core), CODE_BATCH) > 10 * FD_STEP
    ds = generate_dataset(16, 32, direction, phase, edge, seed=51)
    counts = key_counts(block_keys(partition, ds.inputs, ds.targets))
    code_step(core, counts)
    assert np.abs(net.grad).max() > 1e-3

    def loss():
        probs = code_forward(core)[1]
        return counted_bce_loss(probs, counts[..., 1], counts[..., 0],
                                counts.sum())[0]
    assert gradient_error(net, loss) <= 1e-4


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


@pytest.mark.parametrize("k,s", [(1, 1), (2, 2), *WINDOWS])
def test_one_window_layers_equal_their_window_of_a_larger_input(k, s):
    # A kernel-sized conv input and a one-position deconv input take one
    # matrix product; a larger input, zero outside that window, takes the
    # general path.
    rng = np.random.default_rng(6)
    conv = ConvLayer(KernelSpec(3, 2, k, k, s, rng.normal(size=(3, 2, k, k)),
                                rng.normal(size=3)))
    x = rng.normal(size=(4, 2, k, k))
    big = rng.normal(size=(4, 2, k + s, k + s))
    big[:, :, :k, :k] = x
    grad = rng.normal(size=(4, 3, 1, 1))
    grad_big = np.zeros((4, 3, 2, 2))
    grad_big[:, :, :1, :1] = grad
    assert_close(conv.forward(x)[0], conv.forward(big)[0][:, :, :1, :1])
    grad_x = conv.backward(grad, x)
    one = conv.grad_weights, conv.grad_bias
    assert_close(grad_x, conv.backward(grad_big, big)[:, :, :k, :k])
    assert_close(one[0], conv.grad_weights)
    assert_close(one[1], conv.grad_bias)

    deconv = DeconvLayer(KernelSpec(3, 2, k, k, s,
                                    rng.normal(size=(3, 2, k, k)),
                                    rng.normal(size=2)))
    y = rng.normal(size=(4, 3, 1, 1))
    y_big = np.zeros((4, 3, 2, 2))
    y_big[:, :, :1, :1] = y
    grad = rng.normal(size=(4, 2, k, k))
    grad_big = np.zeros((4, 2, k + s, k + s))
    grad_big[:, :, :k, :k] = grad
    assert_close(deconv.forward(y)[0], deconv.forward(y_big)[0][:, :, :k, :k])
    grad_y = deconv.backward(grad, y)
    one = deconv.grad_weights, deconv.grad_bias
    assert_close(grad_y, deconv.backward(grad_big, y_big)[:, :, :1, :1])
    assert_close(one[0], deconv.grad_weights)
    assert_close(one[1], deconv.grad_bias)


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
        param -= 1e-3 * grad
    after, _ = bce_loss(net.forward(x)[0], t)
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
            dense = [grad.copy() for _, grad in net.parameters()]
            counts = key_counts(block_keys(lead, x, t))
            assert counts.sum() == x.size
            loss = code_step(core, counts)
            assert abs(loss - want) <= 1e-12 * want
            for d, (_, grad) in zip(dense, net.parameters()):
                assert np.abs(grad - d).max() <= 1e-12 * np.abs(d).max()


PARTITIONS = {"aligned": (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
              "offset-torus": (Phase.OFFSET, EdgeMode.TORUS_WRAP),
              "offset-pad": (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)}
CORES = {
    f"{name}{'-bypass' * bypass}":
        lambda rng, p=partition, b=bypass: build_model(
            *p, bypass_endpoints=b, seed=23)
    for name, partition in PARTITIONS.items() for bypass in (False, True)}
# Cores block_form admits beyond build_model's, with 1x1 convs and ReLU
# and Bypass layers on both sides of the deconv.
CORES.update({
    "mixed": lambda rng: Network([
        ConvLayer.create(rng, 1, 6, 2, 2), ReLULayer(),
        ConvLayer.create(rng, 6, 5, 1, 1), BypassLayer(), ReLULayer(),
        DeconvLayer.create(rng, 5, 3, 2, 2), BypassLayer(),
        ConvLayer.create(rng, 3, 4, 1, 1), ReLULayer(),
        ConvLayer.create(rng, 4, 1, 1, 1), SigmoidLayer()]),
    "mixed-pad": lambda rng: Network([
        Pad1Layer(), ConvLayer.create(rng, 1, 3, 2, 2), BypassLayer(),
        ConvLayer.create(rng, 3, 3, 1, 1), ReLULayer(),
        DeconvLayer.create(rng, 3, 2, 2, 2), ReLULayer(),
        ConvLayer.create(rng, 2, 2, 1, 1), BypassLayer(),
        ConvLayer.create(rng, 2, 1, 1, 1), SigmoidLayer(), Crop1Layer()]),
    "deconv-head": lambda rng: Network([
        WrapShiftLayer(), ConvLayer.create(rng, 1, 4, 2, 2),
        DeconvLayer.create(rng, 4, 1, 2, 2), SigmoidLayer(),
        UnwrapShiftLayer()]),
})


@pytest.mark.parametrize("make", CORES.values(), ids=CORES.keys())
def test_row_form_matches_the_dense_core_on_the_code_batch(make):
    rng = np.random.default_rng(29)
    _, core = block_form(make(rng))
    reference = dense_copy(core[:-1])
    dense, caches = reference.forward(CODE_BATCH)
    dense_probs, cache = core[-1].forward(dense)
    logits, probs, _ = code_forward(core)
    assert_close(logits, dense.reshape(16, 4))
    assert_close(probs, dense_probs.reshape(16, 4))

    counts = rng.integers(0, 40, size=(16, 4, 2)).astype(np.float64)
    loss = code_step(core, counts)
    want, grad = counted_bce_loss(dense_probs.reshape(16, 4), counts[..., 1],
                                  counts[..., 0], counts.sum())
    reference.backward(core[-1].backward(grad.reshape(CODE_BATCH.shape),
                                         cache), caches)
    assert abs(loss - want) <= 1e-12 * want
    owners = [layer for layer in core if hasattr(layer, "kernel")]
    assert len(owners) == len(reference.param_layers())
    for layer, dense_layer in zip(owners, reference.param_layers()):
        assert_close(layer.grad_weights, dense_layer.grad_weights)
        assert_close(layer.grad_bias, dense_layer.grad_bias)


def test_code_forward_rejects_a_head_of_two_channels():
    rng = np.random.default_rng(31)
    _, core = block_form(Network([
        ConvLayer.create(rng, 1, 4, 2, 2), ReLULayer(),
        DeconvLayer.create(rng, 4, 2, 2, 2), ReLULayer(),
        ConvLayer.create(rng, 2, 2, 1, 1), SigmoidLayer()]))
    with pytest.raises(ValueError, match="not one channel per block"):
        code_forward(core)
