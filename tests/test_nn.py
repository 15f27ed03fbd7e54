"""Layers, loss, optimizers, checkpoints."""

import warnings

import numpy as np
import pytest

from blockca.ca import random_grid
from blockca.linops import KernelSpec
from blockca.nn import (
    BypassLayer,
    ConvLayer,
    Crop1Layer,
    DeconvLayer,
    Network,
    OptimizerConfig,
    Pad1Layer,
    ReLULayer,
    SigmoidLayer,
    UnwrapShiftLayer,
    WrapShiftLayer,
    activation_forward,
    bce_loss,
    conv_forward,
    deconv_forward,
    geometry_forward,
    init_optimizer_state,
    load_network,
    optimizer_step,
    save_network,
)
from blockca.nn.optim import NetworkOptimizer


class TestConvForward:
    def test_identity_one_by_one(self):
        kernel = KernelSpec(1, 1, 1, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1))
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        assert np.allclose(conv_forward(kernel, x), x)

    def test_all_ones_kernel_counts_live_cells_per_block(self):
        kernel = KernelSpec(1, 1, 2, 2, 2, np.ones((1, 1, 2, 2)), np.zeros(1))
        g = random_grid(4, 0.5, 7)
        counts = conv_forward(kernel, g[None, None].astype(np.float64))[0, 0]
        expected = np.array([[g[0:2, 0:2].sum(), g[0:2, 2:4].sum()],
                             [g[2:4, 0:2].sum(), g[2:4, 2:4].sum()]])
        assert np.array_equal(counts, expected)

    def test_channel_mismatch_rejected(self):
        kernel = KernelSpec(1, 2, 2, 2, 2, np.zeros((1, 2, 2, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            conv_forward(kernel, np.zeros((1, 1, 4, 4)))


class TestDeconvForward:
    def test_identity_one_by_one(self):
        kernel = KernelSpec(1, 1, 1, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1))
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        assert np.allclose(deconv_forward(kernel, x), x)

    def test_delta_input_stamps_kernel(self):
        rng = np.random.default_rng(1)
        kernel = KernelSpec(1, 1, 2, 2, 2, rng.normal(size=(1, 1, 2, 2)),
                            np.zeros(1))
        y = np.zeros((1, 1, 2, 2))
        y[0, 0, 1, 0] = 1.0
        out = deconv_forward(kernel, y)
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 2:4, 0:2] = kernel.weights[0, 0]
        assert np.allclose(out, expected)

    def test_adjoint_of_conv(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            co, ci, k, s = 3, 2, 2, 2
            kernel = KernelSpec(co, ci, k, k, s,
                                rng.normal(size=(co, ci, k, k)), np.zeros(co))
            x = rng.normal(size=(2, ci, 8, 8))
            y = rng.normal(size=(2, co, 4, 4))
            lhs = np.sum(conv_forward(kernel, x) * y)
            rhs = np.sum(x * deconv_forward(kernel, y))
            assert abs(lhs - rhs) <= 1e-8


class TestActivationsAndGeometry:
    def test_relu(self):
        out = activation_forward("relu", np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_at_zero(self):
        assert activation_forward("sigmoid", np.zeros(3)).tolist() == [0.5] * 3

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = activation_forward("sigmoid", np.array([-800.0, 0.0, 800.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_bypass(self):
        x = np.random.default_rng(0).normal(size=(2, 3))
        assert np.array_equal(activation_forward("bypass", x), x)

    def test_crop_undoes_pad(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 4))
        assert np.array_equal(geometry_forward("crop1",
                                               geometry_forward("pad1", x)), x)

    def test_unwrap_undoes_wrap(self):
        x = np.random.default_rng(2).normal(size=(1, 1, 4, 4))
        assert np.array_equal(
            geometry_forward("unwrapshift", geometry_forward("wrapshift", x)),
            x)

    def test_wrap_moves_one_hot_diagonally(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = 1.0
        out = geometry_forward("wrapshift", x)
        assert out[0, 0, 1, 1] == 1.0 and out.sum() == 1.0

    def test_crop_needs_three_cells(self):
        with pytest.raises(ValueError):
            geometry_forward("crop1", np.zeros((1, 1, 2, 2)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activation_forward("tanh", np.zeros(2))


class TestNetworkForward:
    def test_empty_network_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        y, caches = Network([]).forward(x)
        assert np.array_equal(y, x) and caches == []

    def test_single_identity_conv(self):
        kernel = KernelSpec(1, 1, 1, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1))
        net = Network([ConvLayer(kernel)])
        x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
        assert np.allclose(net.predict(x), x)

    def test_core_stack_preserves_shape(self):
        rng = np.random.default_rng(3)
        net = Network([
            ConvLayer.create(rng, 1, 16, 2, 2), ReLULayer(),
            DeconvLayer.create(rng, 16, 8, 2, 2), ReLULayer(),
            ConvLayer.create(rng, 8, 1, 1, 1), SigmoidLayer(),
        ])
        x = rng.random((5, 1, 16, 16))
        assert net.predict(x).shape == x.shape

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(4)
        net = Network([ConvLayer.create(rng, 1, 4, 2, 2), SigmoidLayer()])
        x = rng.random((3, 1, 8, 8))
        assert np.array_equal(net.predict(x), net.predict(x))


class TestBceLoss:
    def test_zero_when_prediction_equals_binary_target(self):
        t = np.array([0.0, 1.0, 1.0, 0.0])
        loss, _ = bce_loss(t.copy(), t)
        assert loss <= 1e-10

    def test_half_prediction_gives_log_two(self):
        p = np.full((10,), 0.5)
        t = (np.arange(10) % 2).astype(np.float64)
        loss, _ = bce_loss(p, t)
        assert abs(loss - np.log(2.0)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.2, 0.8, size=12)
        t = (rng.random(12) < 0.5).astype(np.float64)
        _, grad = bce_loss(p, t)
        h = 1e-5
        for i in range(p.size):
            bumped = p.copy()
            bumped[i] += h
            up, _ = bce_loss(bumped, t)
            bumped[i] -= 2 * h
            down, _ = bce_loss(bumped, t)
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i])) \
                <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros(3), np.zeros(4))


class TestOptimizers:
    def test_zero_gradient_leaves_params_alone(self):
        for algorithm in ("sgd", "adam"):
            config = OptimizerConfig(algorithm=algorithm, learning_rate=0.1)
            p = np.array([1.0, -2.0])
            state = init_optimizer_state(config, [p])
            optimizer_step(config, [p], [np.zeros(2)], state)
            assert np.array_equal(p, [1.0, -2.0])

    def test_sgd_unit_rate_with_self_gradient_zeroes_params(self):
        config = OptimizerConfig(algorithm="sgd", learning_rate=1.0)
        p = np.array([3.0, -0.5])
        optimizer_step(config, [p], [p.copy()], {})
        assert np.array_equal(p, [0.0, 0.0])

    def test_adam_converges_on_quadratic_bowl(self):
        config = OptimizerConfig(algorithm="adam", learning_rate=1e-2)
        p = np.array([1.0])
        state = init_optimizer_state(config, [p])
        for _ in range(2000):
            optimizer_step(config, [p], [2.0 * p], state)
        assert abs(p[0]) < 1e-3

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="rmsprop")
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(adam_beta1=1.0)

    def test_network_optimizer_descends_on_toy_problem(self):
        rng = np.random.default_rng(6)
        net = Network([ConvLayer.create(rng, 1, 1, 1, 1), SigmoidLayer()])
        x = rng.random((16, 1, 2, 2))
        t = np.ones_like(x)
        opt = NetworkOptimizer(OptimizerConfig(learning_rate=0.05), net)
        first = None
        for _ in range(200):
            pred, caches = net.forward(x)
            loss, dpred = bce_loss(pred, t)
            first = loss if first is None else first
            net.backward(dpred, caches)
            opt.step()
        assert loss < first / 10


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(7)
        net = Network([
            WrapShiftLayer(), ConvLayer.create(rng, 1, 6, 2, 2), ReLULayer(),
            DeconvLayer.create(rng, 6, 3, 2, 2), BypassLayer(),
            ConvLayer.create(rng, 3, 1, 1, 1), SigmoidLayer(),
            UnwrapShiftLayer(),
        ])
        path = tmp_path / "model.ckpt"
        save_network(net, path)
        loaded = load_network(path)
        assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
        for a, b in zip(net.param_layers(), loaded.param_layers()):
            assert np.array_equal(a.kernel.weights, b.kernel.weights)
            assert np.array_equal(a.kernel.bias, b.kernel.bias)
            assert a.kernel.stride == b.kernel.stride
        x = rng.random((2, 1, 8, 8))
        assert np.array_equal(net.predict(x), loaded.predict(x))

    def test_saved_bytes_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(8)
        net = Network([ConvLayer.create(rng, 1, 2, 2, 2), SigmoidLayer()])
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_network(net, p1)
        save_network(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pad_crop_variant_round_trips(self, tmp_path):
        rng = np.random.default_rng(9)
        net = Network([Pad1Layer(), ConvLayer.create(rng, 1, 2, 2, 2),
                       ReLULayer(), DeconvLayer.create(rng, 2, 2, 2, 2),
                       SigmoidLayer(), Crop1Layer()])
        path = tmp_path / "pad.ckpt"
        save_network(net, path)
        x = rng.random((1, 1, 6, 6))
        assert np.array_equal(net.predict(x), load_network(path).predict(x))


class TestLoweringAtFullScale:
    def test_conv_and_deconv_match_lowerings_at_8x16x16(self):
        from blockca.linops import conv_to_matrix, deconv_to_matrix

        rng = np.random.default_rng(55)
        kernel = KernelSpec(4, 8, 2, 2, 2, rng.normal(size=(4, 8, 2, 2)),
                            rng.normal(size=4))
        x = rng.normal(size=(1, 8, 16, 16))
        mat, bias = conv_to_matrix(kernel, (8, 16, 16))
        got = conv_forward(kernel, x).ravel()
        assert np.abs(mat @ x.ravel() + bias - got).max() <= 1e-10

        zero_k = KernelSpec(4, 8, 2, 2, 2, kernel.weights, np.zeros(8))
        y = rng.normal(size=(1, 4, 8, 8))
        dmat, dbias = deconv_to_matrix(zero_k, (4, 8, 8))
        got = deconv_forward(zero_k, y).ravel()
        assert np.abs(dmat @ y.ravel() + dbias - got).max() <= 1e-10
