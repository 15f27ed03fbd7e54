"""Layers, loss, the optimizer, checkpoints."""

import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockca.ca import random_grid
from blockca.linops import KernelSpec
from blockca.nn import (
    BypassLayer,
    ConvLayer,
    Crop1Layer,
    DeconvLayer,
    CheckpointFormatError,
    Network,
    OptimizerConfig,
    Pad1Layer,
    ReLULayer,
    SigmoidLayer,
    UnwrapShiftLayer,
    WrapShiftLayer,
    bce_loss,
    conv_forward,
    counted_bce_loss,
    deconv_forward,
    load_network,
    save_network,
)
from blockca.nn.optim import NetworkOptimizer

# Overlapping (stride < kernel) and gapped (stride > kernel) windows.
WINDOWS = [(2, 1), (3, 1), (3, 2), (1, 2), (2, 3)]


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

    @pytest.mark.parametrize("k,s", [(2, 2), *WINDOWS])
    def test_adjoint_of_conv(self, k, s):
        rng = np.random.default_rng(2)
        for _ in range(10):
            co, ci = 3, 2
            kernel = KernelSpec(co, ci, k, k, s,
                                rng.normal(size=(co, ci, k, k)), np.zeros(co))
            x = rng.normal(size=(2, ci, k + 3 * s, k + 3 * s))
            y = rng.normal(size=(2, co, 4, 4))
            lhs = np.sum(conv_forward(kernel, x) * y)
            rhs = np.sum(x * deconv_forward(kernel, y))
            assert abs(lhs - rhs) <= 1e-8


def fwd(layer, x):
    return layer.forward(x)[0]


class TestActivationsAndGeometry:
    def test_relu(self):
        out = fwd(ReLULayer(), np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_at_zero(self):
        assert fwd(SigmoidLayer(), np.zeros(3)).tolist() == [0.5] * 3

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fwd(SigmoidLayer(), np.array([-800.0, 0.0, 800.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_bypass(self):
        x = np.random.default_rng(0).normal(size=(2, 3))
        assert np.array_equal(fwd(BypassLayer(), x), x)

    def test_crop_undoes_pad(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 4))
        assert np.array_equal(fwd(Crop1Layer(), fwd(Pad1Layer(), x)), x)

    def test_unwrap_undoes_wrap(self):
        x = np.random.default_rng(2).normal(size=(1, 1, 4, 4))
        assert np.array_equal(
            fwd(UnwrapShiftLayer(), fwd(WrapShiftLayer(), x)), x)

    def test_wrap_moves_one_hot_diagonally(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = 1.0
        out = fwd(WrapShiftLayer(), x)
        assert out[0, 0, 1, 1] == 1.0 and out.sum() == 1.0

    def test_crop_needs_three_cells(self):
        with pytest.raises(ValueError):
            fwd(Crop1Layer(), np.zeros((1, 1, 2, 2)))


class TestNetworkForward:
    def test_empty_network_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        y, caches = Network([]).forward(x)
        assert np.array_equal(y, x) and caches == []

    def test_single_identity_conv(self):
        kernel = KernelSpec(1, 1, 1, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1))
        net = Network([ConvLayer(kernel)])
        x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
        assert np.allclose(net.forward(x)[0], x)

    def test_core_stack_preserves_shape(self):
        rng = np.random.default_rng(3)
        net = Network([
            ConvLayer.create(rng, 1, 16, 2, 2), ReLULayer(),
            DeconvLayer.create(rng, 16, 8, 2, 2), ReLULayer(),
            ConvLayer.create(rng, 8, 1, 1, 1), SigmoidLayer(),
        ])
        x = rng.random((5, 1, 16, 16))
        assert net.forward(x)[0].shape == x.shape

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(4)
        net = Network([ConvLayer.create(rng, 1, 4, 2, 2), SigmoidLayer()])
        x = rng.random((3, 1, 8, 8))
        assert np.array_equal(net.forward(x)[0], net.forward(x)[0])


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

    def test_counted_loss_is_bce_of_the_expanded_cells(self):
        rng = np.random.default_rng(11)
        p = np.array([0.2, 0.7, 1.0, 0.0])
        ones, zeros = np.array([3, 0, 2, 1]), np.array([1, 4, 0, 2])
        cells = np.repeat(np.concatenate([p, p]),
                          np.concatenate([ones, zeros]))
        t = np.repeat([1.0, 0.0], [ones.sum(), zeros.sum()])
        order = rng.permutation(t.size)
        want, dcells = bce_loss(cells[order], t[order])
        loss, grad = counted_bce_loss(p, ones, zeros, t.size)
        assert loss == pytest.approx(want, rel=1e-14)
        owner = np.repeat(np.tile(np.arange(4), 2),
                          np.concatenate([ones, zeros]))[order]
        assert np.allclose(grad, np.bincount(owner, dcells), rtol=1e-14)


def one_by_one_network(weights):
    """A 1x1 conv network, one output channel per weight, with zero bias.
    Tests write its gradients into the layer's grad_weights and grad_bias
    by hand."""
    w = np.array(weights, dtype=np.float64)
    return Network([ConvLayer(KernelSpec(w.size, 1, 1, 1, 1,
                                         w.reshape(-1, 1, 1, 1),
                                         np.zeros(w.size)))])


def per_array_optimizer(config, params):
    """Reference SGD/Adam: returns step(grads), which updates each
    parameter array in place with its own moments."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0

    def step(grads):
        nonlocal t
        t += 1
        lr, b1, b2 = (config.learning_rate, config.adam_beta1,
                      config.adam_beta2)
        for p, g, m_p, v_p in zip(params, grads, m, v):
            if config.algorithm == "sgd":
                p -= lr * g
                continue
            m_p *= b1
            m_p += (1.0 - b1) * g
            v_p *= b2
            v_p += (1.0 - b2) * g * g
            m_hat = m_p / (1.0 - b1 ** t)
            v_hat = v_p / (1.0 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return step


class TestOptimizers:
    def test_zero_gradient_leaves_params_alone(self):
        for algorithm in ("sgd", "adam"):
            config = OptimizerConfig(algorithm=algorithm, learning_rate=0.1)
            net = one_by_one_network([1.0, -2.0])
            NetworkOptimizer(config, net).step()
            assert np.array_equal(net.layers[0].kernel.weights.ravel(),
                                  [1.0, -2.0])
            assert np.array_equal(net.layers[0].kernel.bias, [0.0, 0.0])

    def test_sgd_unit_rate_with_self_gradient_zeroes_params(self):
        config = OptimizerConfig(algorithm="sgd", learning_rate=1.0)
        net = one_by_one_network([3.0, -0.5])
        layer = net.layers[0]
        layer.grad_weights = layer.kernel.weights.copy()
        NetworkOptimizer(config, net).step()
        assert np.array_equal(layer.kernel.weights.ravel(), [0.0, 0.0])

    def test_adam_converges_on_quadratic_bowl(self):
        config = OptimizerConfig(algorithm="adam", learning_rate=1e-2)
        net = one_by_one_network([1.0])
        layer = net.layers[0]
        opt = NetworkOptimizer(config, net)
        for _ in range(2000):
            layer.grad_weights = 2.0 * layer.kernel.weights
            opt.step()
        assert abs(layer.kernel.weights.item()) < 1e-3

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="rmsprop")
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(adam_beta1=1.0)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("learning_rate", -np.inf), ("adam_epsilon", 0.0),
        ("adam_epsilon", -1.0), ("adam_epsilon", np.nan),
        ("adam_epsilon", np.inf)])
    def test_non_finite_rate_and_non_positive_epsilon_rejected(self, field,
                                                               value):
        for algorithm in ("sgd", "adam"):
            with pytest.raises(ValueError, match=field):
                OptimizerConfig(algorithm=algorithm, **{field: value})

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_network_step_equals_per_array_steps_bit_for_bit(self,
                                                             algorithm):
        config = OptimizerConfig(algorithm=algorithm, learning_rate=0.01)
        nets = [Network([ConvLayer.create(np.random.default_rng(8), 1, 3,
                                          2, 2),
                         DeconvLayer.create(np.random.default_rng(9), 3, 2,
                                            2, 2),
                         ConvLayer.create(np.random.default_rng(10), 2, 1,
                                          1, 1),
                         SigmoidLayer()]) for _ in range(2)]
        opt = NetworkOptimizer(config, nets[0])
        params = [p for p, _ in nets[1].parameters()]
        reference = per_array_optimizer(config, params)
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.random((4, 1, 4, 4))
            t = (rng.random((4, 1, 4, 4)) < 0.5).astype(np.float64)
            grads = []
            for net in nets:
                pred, caches = net.forward(x)
                net.backward(bce_loss(pred, t)[1], caches)
                grads.append([g.copy() for _, g in net.parameters()])
            opt.step()
            reference(grads[1])
            for (a, _), b in zip(nets[0].parameters(), params):
                assert a.tobytes() == b.tobytes()

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
        assert np.array_equal(net.forward(x)[0], loaded.forward(x)[0])

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
        assert np.array_equal(net.forward(x)[0],
                              load_network(path).forward(x)[0])


def _fuzz_base() -> bytes:
    rng = np.random.default_rng(10)
    net = Network([WrapShiftLayer(), ConvLayer.create(rng, 1, 2, 2, 2),
                   ReLULayer(), DeconvLayer.create(rng, 2, 1, 2, 2),
                   SigmoidLayer(), UnwrapShiftLayer()])
    with tempfile.TemporaryDirectory() as root:
        path = pathlib.Path(root) / "base.ckpt"
        save_network(net, path)
        return path.read_bytes()


FUZZ_BASE = _fuzz_base()


@settings(max_examples=300, deadline=None)
@given(at=st.integers(0, len(FUZZ_BASE)), drop=st.integers(0, 9),
       insert=st.binary(max_size=9))
def test_edited_checkpoint_fails_cleanly_or_round_trips(tmp_path_factory, at,
                                                        drop, insert):
    data = FUZZ_BASE[:at] + insert + FUZZ_BASE[at + drop:]
    path = tmp_path_factory.getbasetemp() / "edited.ckpt"
    path.write_bytes(data)
    try:
        net = load_network(path)
    except CheckpointFormatError:
        return
    save_network(net, path)
    assert path.read_bytes() == data


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
