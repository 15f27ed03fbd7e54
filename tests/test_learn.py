"""Datasets, model construction, training loop, rollout, commutativity."""

import dataclasses
import importlib
import re

import numpy as np
import pytest

from blockca.ca import (BLOCK_TABLE, Direction, EdgeMode, Phase, apply_rule,
                        block_codes, evolve, map_blocks, random_grid,
                        random_grids, step, to_frame, from_frame)
from blockca.learn import (
    TrainConfig,
    TrainingDiverged,
    apply_model_binary,
    block_form,
    build_model,
    commute_experiment,
    evaluate,
    evaluate_tensors,
    exact_phase_step,
    generate_dataset,
    rollout,
    tabulate,
    train,
    verify_commuting_solutions,
)
from blockca.learn.data import verify_dataset
from blockca.learn.models import ALIGNED_PARTITION
from blockca.learn.rollout import IDENTITY_TABLE
from blockca.learn.witness import lower_network, witness_logits
from blockca.learn.train import KEY_CHUNK, block_keys, fit
from blockca.nn import (ConvLayer, Crop1Layer, DeconvLayer, Network, Pad1Layer,
                        ReLULayer, SigmoidLayer, WrapShiftLayer,
                        UnwrapShiftLayer, bce_loss, load_network,
                        save_network)
from blockca.nn.optim import NetworkOptimizer, OptimizerConfig

# The modules, not the functions that blockca.learn exports under their
# names.
ca_module = importlib.import_module("blockca.ca")
layers_module = importlib.import_module("blockca.nn.layers")
commute_module = importlib.import_module("blockca.learn.commute")
models_module = importlib.import_module("blockca.learn.models")
rollout_module = importlib.import_module("blockca.learn.rollout")
train_module = importlib.import_module("blockca.learn.train")

SMALL = TrainConfig(epochs=2, batch_size=8, seed=0,
                    optimizer=OptimizerConfig(learning_rate=1e-3))


def small_dataset(seed=0, n=8, count=40, direction=Direction.FORWARD,
                  phase=Phase.ALIGNED, edge=EdgeMode.TORUS_WRAP):
    return generate_dataset(n, count, direction, phase, edge, seed)


class TestDataset:
    def test_targets_match_exact_rule(self):
        ds = small_dataset(seed=3)
        assert verify_dataset(ds)
        for x, t in zip(ds.inputs[:5], ds.targets[:5]):
            assert np.array_equal(t, step(x))

    def test_backward_targets_use_inverse_step(self):
        ds = small_dataset(seed=4, direction=Direction.BACKWARD)
        assert verify_dataset(ds)

    def test_all_dead_input_maps_to_all_live(self):
        ds = generate_dataset(4, 1, Direction.FORWARD, Phase.ALIGNED,
                              EdgeMode.TORUS_WRAP, seed=0, density=0.0)
        assert (ds.inputs[0] == 0).all() and (ds.targets[0] == 1).all()

    def test_same_seed_same_dataset(self):
        a, b = small_dataset(seed=9), small_dataset(seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_backward_pad_rejected(self):
        with pytest.raises(ValueError):
            small_dataset(direction=Direction.BACKWARD,
                          phase=Phase.OFFSET, edge=EdgeMode.ZERO_PAD_CROP)


class TestBuildModel:
    def test_aligned_model_preserves_grid_shape(self):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1)
        x = np.random.default_rng(0).random((3, 1, 16, 16))
        assert net.forward(x)[0].shape == x.shape

    def test_offset_models_preserve_grid_shape(self):
        for edge in EdgeMode:
            net = build_model(Phase.OFFSET, edge, seed=1)
            x = np.random.default_rng(0).random((2, 1, 8, 8))
            assert net.forward(x)[0].shape == x.shape

    def test_bypass_variant_has_two_bypass_layers_at_endpoints(self):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                          bypass_endpoints=True, seed=1)
        kinds = [l.kind for l in net.layers]
        assert kinds.count("bypass") == 2
        # first hidden activation and last hidden activation are bypass
        assert kinds[1] == "bypass"
        assert kinds[-3] == "bypass"
        assert any(isinstance(l, ReLULayer) for l in net.layers)

    def test_offset_torus_wraps_the_aligned_stack(self):
        aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1)
        offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=1)
        assert isinstance(offset.layers[0], WrapShiftLayer)
        assert isinstance(offset.layers[-1], UnwrapShiftLayer)
        inner = [l.kind for l in offset.layers[1:-1]]
        assert inner == [l.kind for l in aligned.layers]

    def test_same_seed_same_weights(self):
        a = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=5)
        b = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=5)
        for la, lb in zip(a.param_layers(), b.param_layers()):
            assert np.array_equal(la.kernel.weights, lb.kernel.weights)


def block_core(rng, middle=()):
    """encode 1->4, *middle, decode 4->2, head 2->1, sigmoid."""
    return [ConvLayer.create(rng, 1, 4, 2, 2), ReLULayer(), *middle,
            DeconvLayer.create(rng, 4, 2, 2, 2), ReLULayer(),
            ConvLayer.create(rng, 2, 1, 1, 1), SigmoidLayer()]


class TestBlockForm:
    @pytest.mark.parametrize("phase,edge,partition", [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP,
         (Phase.ALIGNED, EdgeMode.TORUS_WRAP)),
        # An aligned network has no edge layers: its edge mode is moot.
        (Phase.ALIGNED, EdgeMode.ZERO_PAD_CROP,
         (Phase.ALIGNED, EdgeMode.TORUS_WRAP)),
        (Phase.OFFSET, EdgeMode.TORUS_WRAP,
         (Phase.OFFSET, EdgeMode.TORUS_WRAP)),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP,
         (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)),
    ])
    @pytest.mark.parametrize("bypass", [False, True])
    def test_every_built_model_splits(self, phase, edge, partition, bypass):
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=1)
        got, core = block_form(net)
        assert got == partition
        inner = net.layers if phase is Phase.ALIGNED else net.layers[1:-1]
        assert all(a is b for a, b in zip(core, inner))
        assert len(core) == len(inner)

    @pytest.mark.parametrize("layers,named", [
        # A 3x3 head sees neighbouring blocks.
        (lambda rng: block_core(rng)[:-2] + [
            ConvLayer.create(rng, 2, 1, 3, 1), SigmoidLayer()],
         "layer 4 (conv)"),
        (lambda rng: [ConvLayer.create(rng, 1, 4, 1, 1)]
         + block_core(rng)[1:], "layer 0 (conv)"),
        (lambda rng: [WrapShiftLayer(), *block_core(rng)], "layer 6 (sigmoid)"),
        (lambda rng: [Pad1Layer(), *block_core(rng), UnwrapShiftLayer()],
         "layer 7 (unwrapshift)"),
        (lambda rng: [*block_core(rng), Crop1Layer()], "layer 6 (crop1)"),
        (lambda rng: block_core(rng, [DeconvLayer.create(rng, 4, 4, 2, 2)]),
         "layer 3 (deconv)"),
        (lambda rng: block_core(rng)[:2], "no 2x2 stride-2 deconv"),
        (lambda rng: [], "layer 0 (none)"),
        # The core must end in its only sigmoid, the head.
        (lambda rng: block_core(rng)[:-1], "layer 4 (conv) is not the head"),
        (lambda rng: block_core(rng, [SigmoidLayer()])[:-1],
         "layer 2 (sigmoid) is not the head"),
        (lambda rng: [WrapShiftLayer(), *block_core(rng, [SigmoidLayer()]),
                      UnwrapShiftLayer()],
         "layer 3 (sigmoid) is not the head"),
    ])
    def test_non_block_networks_are_rejected_by_name(self, layers, named):
        net = Network(layers(np.random.default_rng(0)))
        with pytest.raises(ValueError, match=re.escape(named)):
            block_form(net)

    @pytest.mark.parametrize("layers", [
        lambda rng: block_core(rng)[:-2] + [ConvLayer.create(rng, 2, 1, 3, 1),
                                             SigmoidLayer()],
        lambda rng: [WrapShiftLayer(), *block_core(rng)],
    ])
    def test_fit_rejects_them_before_the_first_optimizer_update(
            self, monkeypatch, layers):
        steps = []
        monkeypatch.setattr(NetworkOptimizer, "step",
                            lambda self: steps.append(1))
        net = Network(layers(np.random.default_rng(0)))
        before = [p.copy() for p, _ in net.parameters()]
        ds = small_dataset()

        def keys(indices, table):
            return block_keys(ALIGNED_PARTITION, ds.inputs[indices],
                              ds.targets[indices])
        with pytest.raises(ValueError, match="layer"):
            fit(net, keys, 30, 10, SMALL, np.random.default_rng(0))
        assert steps == []
        assert all(np.array_equal(a, p)
                   for a, (p, _) in zip(before, net.parameters()))


    @pytest.mark.parametrize("edge", list(EdgeMode))
    def test_geometry_layers_build_the_partition_frame(self, edge):
        """The partition block_form reports is the one whose ca frame the
        network's own leading and trailing layers build and undo."""
        net = build_model(Phase.OFFSET, edge, seed=1)
        partition, _ = block_form(net)
        x = random_grids(4, 8, 0.5, 5).astype(np.float64)
        frame = net.layers[0].forward(x[:, None])[0]
        assert np.array_equal(frame[:, 0], to_frame(x, *partition))
        assert np.array_equal(net.layers[-1].forward(frame)[0][:, 0],
                              from_frame(frame[:, 0], *partition))


def set_cell(grids, value):
    """Copy of a grid stack with one cell of grid 150 set to `value`."""
    out = grids.copy()
    out[150, 3, 4] = value
    return out


class TestTrain:
    def test_zero_epochs_returns_empty_history_and_same_params(self):
        ds = small_dataset()
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=2)
        before = [p.copy() for p, _ in net.parameters()]
        history, _ = train(net, ds, TrainConfig(epochs=0), 0.25)
        assert len(history) == 0
        for prev, (now, _) in zip(before, net.parameters()):
            assert np.array_equal(prev, now)

    def test_history_has_one_record_per_epoch(self):
        history, _ = train(build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                                       seed=2), small_dataset(), SMALL, 0.25)
        assert [r.epoch for r in history.records] == [1, 2]

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=2)
            history, _ = train(net, small_dataset(), SMALL, 0.25)
            runs.append(history.to_csv())
        assert runs[0] == runs[1]

    def test_loss_decreases_on_small_task(self):
        ds = small_dataset(count=200, seed=8)
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=3)
        history, _ = train(net, ds, TrainConfig(epochs=8, batch_size=16),
                           0.2)
        assert history.final.train_loss < history.records[0].train_loss

    def test_rejects_tiny_dataset_and_bad_holdout(self):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=2)
        with pytest.raises(ValueError):
            train(net, small_dataset(count=5), SMALL, 0.2)
        with pytest.raises(ValueError):
            train(net, small_dataset(), SMALL, 0.0)

    @pytest.mark.parametrize("spoil,message", [
        (lambda ds: dataclasses.replace(
            ds, targets=set_cell(ds.targets, 2)), "0 or 1"),
        (lambda ds: dataclasses.replace(
            ds, inputs=set_cell(ds.inputs.astype(np.float64), 0.5),
            targets=ds.targets.astype(np.float64)), "0 or 1"),
        (lambda ds: dataclasses.replace(ds, targets=ds.targets[:, :-2, :-2]),
         "target shape"),
        (lambda ds: dataclasses.replace(
            ds, targets=np.concatenate([ds.targets, ds.targets[:1]])),
         "target shape"),
        (lambda ds: dataclasses.replace(
            ds, inputs=np.tile(ds.inputs[0], (2, 2)),
            targets=np.tile(ds.targets[0], (2, 2))), "grid stack"),
        (lambda ds: dataclasses.replace(ds, inputs=ds.inputs[:, None],
                                        targets=ds.targets[:, None]),
         "grid stack"),
    ], ids=["target-2", "float", "misshaped", "longer-targets", "one-grid",
            "nested"])
    def test_bad_dataset_fails_before_the_first_optimizer_step(
            self, monkeypatch, spoil, message):
        # The chunks then split the 200 inputs evenly, so only a check of
        # the whole stacks sees one target too many.
        monkeypatch.setattr(train_module, "KEY_CHUNK", 50)
        steps = []
        monkeypatch.setattr(NetworkOptimizer, "step",
                            lambda self: steps.append(1))
        ds = spoil(small_dataset(count=200))
        net = build_model(Phase.OFFSET, EdgeMode.ZERO_PAD_CROP, seed=2)
        before = [p.copy() for p, _ in net.parameters()]
        with pytest.raises(ValueError, match=message) as trained:
            train(net, ds, SMALL, 0.25)
        assert steps == []
        assert all(np.array_equal(a, p)
                   for a, (p, _) in zip(before, net.parameters()))
        with pytest.raises(ValueError) as evaluated:
            evaluate(net, ds)
        assert str(evaluated.value) == str(trained.value)

    def test_binary_float_dataset_trains_like_uint8(self):
        ds = small_dataset(count=200)
        floats = dataclasses.replace(ds, inputs=ds.inputs.astype(np.float64),
                                     targets=ds.targets.astype(np.float64))
        runs = [train(build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                                  seed=2), d, SMALL, 0.25)[0].to_csv()
                for d in (ds, floats)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("run", ["train", "commute"])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_fit_steps_once_per_minibatch_and_evaluates_once_per_epoch(
            self, monkeypatch, epochs, run):
        # bench/workloads.py laps every NetworkOptimizer.step (step_laps),
        # ends training from the module-global train.evaluate_tensors
        # (Gate) and laps every call of commute's frozen evolution
        # (Commute.evolution_lap), so these counts are part of fit's
        # contract.  Each step and each evaluation runs the core once.
        steps, evaluations, forwards, evolutions = [], [], [], []
        real_step, real_evaluate, real_forward = (
            NetworkOptimizer.step, train_module.evaluate_tensors,
            models_module.code_forward)
        exact = exact_phase_step(Phase.ALIGNED)

        def counted_step(self):
            steps.append(1)
            real_step(self)

        def counted_evaluate(*args):
            evaluations.append(1)
            return real_evaluate(*args)

        def counted_forward(core):
            forwards.append(1)
            return real_forward(core)

        def evolution(grids):
            evolutions.append(len(grids))
            return exact(grids)
        monkeypatch.setattr(NetworkOptimizer, "step", counted_step)
        monkeypatch.setattr(train_module, "evaluate_tensors",
                            counted_evaluate)
        for module in (models_module, rollout_module, train_module):
            monkeypatch.setattr(module, "code_forward", counted_forward)
        config = TrainConfig(epochs=epochs, batch_size=16)
        # 40 training samples in minibatches of 16, 16 and 8; 10 held out.
        if run == "train":
            net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=2)
            history, _ = train(net, small_dataset(count=50), config, 0.2)
        else:
            history, _ = commute_experiment(evolution, 2, config, n=8,
                                            count=50, holdout_fraction=0.2)
            assert evolutions == [16, 16, 16, 16, 8, 8, 10, 10] * epochs
        assert len(history) == epochs
        assert len(steps) == 3 * epochs
        assert len(evaluations) == epochs
        assert len(forwards) == len(steps) + len(evaluations)

    @pytest.mark.parametrize("run", ["train", "commute"])
    def test_a_non_finite_logit_stops_training_before_any_step(
            self, monkeypatch, run):
        steps = []
        monkeypatch.setattr(NetworkOptimizer, "step",
                            lambda self: steps.append(1))

        def poisoned(*args, **kwargs):
            net = build_model(*args, **kwargs)
            head = [layer for layer in net.layers
                    if isinstance(layer, ConvLayer)][-1]
            head.kernel.bias[:] = np.inf
            return net
        config = TrainConfig(epochs=1, batch_size=16)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            if run == "train":
                train(poisoned(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=2),
                      small_dataset(count=50), config, 0.2)
            else:
                monkeypatch.setattr(commute_module, "build_model", poisoned)
                commute_experiment(exact_phase_step(Phase.ALIGNED), 2,
                                   config, n=8, count=50,
                                   holdout_fraction=0.2)
        assert steps == []

    def test_keys_are_packed_once_per_dataset(self, monkeypatch):
        rows = []
        real = train_module.block_keys

        def counted(*args):
            keys = real(*args)
            rows.append(len(keys))
            return keys
        monkeypatch.setattr(train_module, "block_keys", counted)
        ds = small_dataset(count=200)
        for epochs in (1, 3):
            rows.clear()
            net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=2)
            history, _ = train(net, ds, TrainConfig(epochs=epochs,
                                                    batch_size=16), 0.2)
            assert len(history) == epochs
            assert rows == [len(ds)]


class TestBlockKeys:
    @pytest.mark.parametrize("partition", [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)])
    @pytest.mark.parametrize("n", [4, 16])
    def test_keys_equal_a_ones_mask_carried_by_every_sample(self, partition,
                                                             n):
        x = random_grids(20, n, 0.5, n)
        t = random_grids(20, n, 0.5, n + 1)
        frame = to_frame(np.stack([x, t, np.ones_like(x)], axis=1),
                         *partition)
        codes = block_codes(frame).astype(np.uint16)
        want = codes[:, 0] << 8 | codes[:, 1] << 4 | codes[:, 2]
        got = block_keys(partition, x, t)
        assert got.dtype == np.uint16
        assert np.array_equal(got, want.reshape(20, -1))

    @pytest.mark.parametrize("partition", [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)])
    @pytest.mark.parametrize("count", [KEY_CHUNK - 300, KEY_CHUNK,
                                       KEY_CHUNK + 1, 2 * KEY_CHUNK + 501])
    def test_chunks_equal_one_whole_stack(self, monkeypatch, partition,
                                          count):
        x = random_grids(count, 4, 0.5, count)
        t = step(x, *partition)
        got = block_keys(partition, x, t)
        monkeypatch.setattr(train_module, "KEY_CHUNK", count + 1)
        want = block_keys(partition, x, t)
        assert got.dtype == want.dtype == np.uint16
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("inputs,targets", [
        (random_grids(KEY_CHUNK, 4, 0.5, 1),
         random_grids(KEY_CHUNK + 1, 4, 0.5, 2)),
        (random_grid(4, 0.5, 3), random_grid(4, 0.5, 4)),
        (random_grids(1, 4, 0.5, 5)[None], random_grids(1, 4, 0.5, 6)[None]),
        (random_grids(3, 4, 0.5, 7), random_grids(3, 6, 0.5, 8)),
    ], ids=["longer-targets", "one-grid", "nested", "other-side"])
    def test_stacks_must_be_count_n_n_of_one_shape(self, monkeypatch, inputs,
                                                   targets):
        seen = []
        monkeypatch.setattr(train_module, "validate_grids", seen.append)
        with pytest.raises(ValueError):
            block_keys(ALIGNED_PARTITION, inputs, targets)
        assert seen == []

    @pytest.mark.parametrize("partition", [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)])
    def test_mask_is_built_once_per_call(self, monkeypatch, partition):
        x = random_grids(2 * KEY_CHUNK + 1, 4, 0.5, 9)
        shapes = []
        real = train_module.to_frame

        def counted(grids, *args):
            shapes.append(np.shape(grids))
            return real(grids, *args)
        monkeypatch.setattr(train_module, "to_frame", counted)
        block_keys(partition, x, x)
        assert shapes == [(4, 4), (KEY_CHUNK, 2, 4, 4), (KEY_CHUNK, 2, 4, 4),
                          (1, 2, 4, 4)]


class TestEvaluate:
    def test_oracle_substitute_scores_perfectly(self):
        ds = small_dataset(seed=5)
        result = evaluate(step, ds)
        assert result.cell_accuracy == 1.0
        assert result.exact_grid_rate == 1.0

    def test_constant_half_predictor_is_coin_flip_accurate(self):
        ds = generate_dataset(16, 1000, Direction.FORWARD, Phase.ALIGNED,
                              EdgeMode.TORUS_WRAP, seed=6)
        # A constant 0.5 thresholds to all ones.
        result = evaluate(lambda g: np.ones_like(g), ds)
        assert abs(result.cell_accuracy - 0.5) <= 0.02
        assert result.exact_grid_rate == 0.0

    def test_empty_dataset_rejected(self):
        ds = small_dataset()
        empty = type(ds)(ds.inputs[:0], ds.targets[:0], ds.n, ds.direction,
                         ds.phase, ds.edge, ds.seed)
        with pytest.raises(ValueError):
            evaluate(lambda x: x, empty)


class TestRollout:
    def test_exact_substitutes_never_diverge(self):
        g = random_grid(8, 0.5, 7)
        aligned = lambda grid: step(grid, Phase.ALIGNED)
        offset = lambda grid: step(grid, Phase.OFFSET)
        trajectory, divergence = rollout(aligned, offset, g, steps=6)
        assert divergence == 7
        exact = evolve(g, 6)
        for a, b in zip(trajectory, exact):
            assert np.array_equal(a, b)

    def test_untrained_network_diverges_immediately(self):
        g = random_grid(16, 0.5, 8)
        net_a = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1)
        net_o = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=2)
        _, divergence = rollout(net_a, net_o, g, steps=4)
        assert divergence == 1

    def test_callable_grid_map_is_called_once_per_stack(self):
        from blockca.learn import apply_model_binary

        calls = []

        def aligned(grids):
            calls.append(grids.shape)
            return step(grids, Phase.ALIGNED)

        rng = np.random.default_rng(15)
        grids = np.stack([random_grid(8, 0.5, rng) for _ in range(7)])
        out = apply_model_binary(aligned, grids)
        assert calls == [(7, 8, 8)]
        assert np.array_equal(out, step(grids, Phase.ALIGNED))

    def test_grid_map_of_wrong_shape_rejected(self):
        from blockca.learn import apply_model_binary

        grids = np.stack([random_grid(8, 0.5, s) for s in range(3)])
        with pytest.raises(ValueError):
            apply_model_binary(lambda g: g[0], grids)

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            rollout(lambda g: g, lambda g: g, random_grid(4, 0.5, 0), 0)

    @pytest.mark.parametrize("pair", [
        # Each exact but on one block code, so rollouts part at many steps.
        lambda: (rule_network(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                              one_code_wrong(1)),
                 rule_network(Phase.OFFSET, EdgeMode.TORUS_WRAP,
                              one_code_wrong(14))),
        # The offset step only on grids with more than half their cells live.
        lambda: (lambda g: step(g, Phase.ALIGNED),
                 lambda g: np.where(g.sum(axis=(1, 2))[:, None, None] > 8,
                                    step(g, Phase.OFFSET), g)),
    ], ids=["networks", "callables"])
    def test_stack_equals_rollouts_grid_by_grid(self, pair):
        aligned, offset = pair()
        grids = random_grids(60, 4, 0.5, 83)
        trajectory, divergence = rollout(aligned, offset, grids, steps=6)
        assert len(trajectory) == 7 and divergence.shape == (60,)
        assert all(frame.shape == grids.shape for frame in trajectory)
        for i, g in enumerate(grids):
            frames, at = rollout(aligned, offset, g, steps=6)
            assert type(at) is int and at == divergence[i]
            assert all(np.array_equal(a, b[i])
                       for a, b in zip(frames, trajectory, strict=True))
        # Several outcomes, the exact one among them.
        assert len(set(divergence.tolist())) >= 3 and divergence.max() == 7

    def test_stack_of_stacks_keeps_its_shape(self):
        grids = random_grids(6, 4, 0.5, 89).reshape(2, 3, 4, 4)
        trajectory, divergence = rollout(lambda g: step(g, Phase.ALIGNED),
                                         lambda g: g, grids, steps=2)
        assert [f.shape for f in trajectory] == [grids.shape] * 3
        flat, want = rollout(lambda g: step(g, Phase.ALIGNED), lambda g: g,
                             grids.reshape(6, 4, 4), steps=2)
        assert all(np.array_equal(a.reshape(6, 4, 4), b)
                   for a, b in zip(trajectory, flat))
        assert np.array_equal(divergence, want.reshape(2, 3))


VARIANTS = [(phase, edge, bypass)
            for phase, edge in [(Phase.ALIGNED, EdgeMode.TORUS_WRAP),
                                (Phase.OFFSET, EdgeMode.TORUS_WRAP),
                                (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)]
            for bypass in (False, True)]


def all_4x4_grids():
    """The 65536 binary 4x4 grids; bit k of index c is cell k of grid c."""
    codes = np.arange(2 ** 16)[:, None]
    return ((codes >> np.arange(16)) & 1).astype(np.uint8).reshape(-1, 4, 4)


def centred_model(phase, edge, bypass, seed):
    """build_model with the head's logits centred: untrained probabilities
    all lie on one side of 0.5, and centring makes thresholding split the
    cells."""
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=seed)
    head = [layer for layer in net.layers
            if isinstance(layer, ConvLayer)][-1]
    p = np.median(net.forward(
        random_grids(20, 8, 0.5, 0)[:, None].astype(np.float64))[0])
    head.kernel.bias[:] -= np.log(p / (1.0 - p))
    return net


def one_code_wrong(code):
    """BLOCK_TABLE with `code` mapped to itself instead."""
    table = BLOCK_TABLE.copy()
    table[code] = code
    assert table[code] != BLOCK_TABLE[code]
    return table


def rule_network(phase, edge, table):
    """A build_model network set by hand to the block rule `table`: encode
    channel c fires on block code c alone, decode writes the cells of
    table[c], and the head turns them into logits of +-10."""
    net = build_model(phase, edge, seed=0)
    encode, decode, head = [layer for layer in net.layers
                            if isinstance(layer, (ConvLayer, DeconvLayer))]
    bits = np.array([[(c >> k) & 1 for k in range(4)] for c in range(16)],
                    dtype=np.float64)  # bits[c, 2 * row + column]
    encode.kernel.weights[:] = (2 * bits - 1).reshape(16, 1, 2, 2)
    encode.kernel.bias[:] = 1 - bits.sum(axis=1)
    decode.kernel.weights[:] = 0.0
    decode.kernel.weights[:, 0] = bits[table].reshape(16, 2, 2)
    decode.kernel.bias[:] = 0.0
    head.kernel.weights[:] = 0.0
    head.kernel.weights[0, 0] = 20.0
    head.kernel.bias[:] = -10.0
    return net


class TestRuleTable:
    @pytest.mark.parametrize("phase,edge", [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP), (Phase.OFFSET, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)])
    @pytest.mark.parametrize("table", [BLOCK_TABLE, one_code_wrong(7)],
                             ids=["exact", "one-wrong"])
    def test_binary_map_is_the_rule_of_its_table(self, phase, edge, table):
        net = rule_network(phase, edge, table)
        mapped = tabulate(net)
        assert mapped.partition == (phase, edge)
        assert np.array_equal(mapped.rule, table)
        x = all_4x4_grids()
        dense = net.forward(x[:, None].astype(np.float64))[0][:, 0]
        want = apply_rule(x, phase, edge, table)
        assert np.array_equal((dense >= 0.5).astype(np.uint8), want)
        assert np.array_equal(apply_model_binary(net, x), want)

    def test_callables_get_the_identity_rule(self):
        mapped = tabulate(lambda g: g)
        assert mapped.partition == (Phase.ALIGNED, EdgeMode.TORUS_WRAP)
        assert np.array_equal(mapped.rule, np.arange(16))

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    def test_logits_are_the_lowered_stages_on_the_16_codes(self, phase, edge,
                                                           bypass):
        net = centred_model(phase, edge, bypass, seed=83)
        want = witness_logits(lower_network(net), IDENTITY_TABLE)
        assert np.abs(tabulate(net).logits - want).max() <= 1e-12

    @pytest.mark.parametrize("model", [
        *[centred_model(*variant, seed=89) for variant in VARIANTS],
        lambda g: g], ids=[*map(str, range(len(VARIANTS))), "callable"])
    def test_table_is_the_sigmoid_of_the_logits(self, model):
        mapped = tabulate(model)
        probs = SigmoidLayer().forward(mapped.logits)[0]
        assert probs.tobytes() == mapped.table.tobytes()

    @pytest.mark.parametrize("phase,edge", [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.TORUS_WRAP),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)])
    def test_rule_scores_equal_its_grids_on_every_4x4_grid(self, phase, edge):
        """For the rule one bit away from BLOCK_TABLE at each (code, cell),
        evaluate_tensors equals a direct comparison of the network's
        binary grids with the exact step; in pad mode the ring cells of
        the frame must not count."""
        x = all_4x4_grids()
        t = step(x, phase, edge)
        keys = block_keys((phase, edge), x, t)
        for code in range(16):
            for cell in range(4):
                table = BLOCK_TABLE.copy()
                table[code] ^= 1 << cell
                net = rule_network(phase, edge, table)
                match = apply_model_binary(net, x) == t
                rate = int(match.all(axis=(1, 2)).sum()) / len(x)
                result = evaluate_tensors(tabulate(net), keys)
                assert 0.0 < rate < 1.0
                assert result.exact_grid_rate == rate
                assert result.cell_accuracy == int(match.sum()) / match.size


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatStorage:
    """A Network's theta and grad are the storage of its layers' parameters
    and gradients, in parameters() order."""

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    def test_block_form_core_is_the_network_own_layers(self, phase, edge,
                                                       bypass):
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=5)
        core = block_form(net)[1]
        assert all(any(layer is own for own in net.layers) for layer in core)
        owners = [layer for layer in core if hasattr(layer, "kernel")]
        assert owners == net.param_layers()
        for layer in owners:
            assert np.shares_memory(layer.kernel.weights, net.theta)
            assert np.shares_memory(layer.kernel.bias, net.theta)
            assert np.shares_memory(layer.grad_weights, net.grad)
            assert np.shares_memory(layer.grad_bias, net.grad)

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    def test_parameters_are_array_pairs_viewing_theta_and_grad(
            self, phase, edge, bypass):
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=5)
        pairs = net.parameters()
        assert len(pairs) == 2 * len(net.param_layers())
        for param, grad in pairs:
            assert type(param) is np.ndarray and type(grad) is np.ndarray
            assert param.shape == grad.shape
            assert np.shares_memory(param, net.theta)
            assert np.shares_memory(grad, net.grad)
        assert sum(p.size for p, _ in pairs) == net.theta.size

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    def test_theta_is_the_parameters_after_training(self, phase, edge,
                                                    bypass):
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=5)
        before = net.theta.copy()
        ds = small_dataset(seed=6, phase=phase, edge=edge)
        train(net, ds, dataclasses.replace(SMALL, epochs=1), 0.25)
        assert not np.array_equal(net.theta, before)
        assert np.array_equal(net.theta, flat(p for p, _ in net.parameters()))
        assert np.array_equal(net.grad, flat(g for _, g in net.parameters()))

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    def test_loaded_theta_has_the_saved_bytes(self, phase, edge, bypass,
                                              tmp_path):
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=5)
        save_network(net, tmp_path / "net.ckpt")
        loaded = load_network(tmp_path / "net.ckpt")
        assert loaded.theta.tobytes() == net.theta.tobytes()
        assert np.array_equal(loaded.theta,
                              flat(p for p, _ in loaded.parameters()))

    def test_writes_through_kernel_views_reach_theta(self):
        net = rule_network(Phase.OFFSET, EdgeMode.TORUS_WRAP, BLOCK_TABLE)
        encode = net.param_layers()[0]
        assert np.array_equal(net.theta[:64], encode.kernel.weights.ravel())
        assert np.array_equal(net.theta, flat(p for p, _ in net.parameters()))

    def test_a_subset_of_placed_layers_is_refused(self):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=5)
        encode, decode, head = net.param_layers()
        with pytest.raises(ValueError, match=re.escape("layer 0 (conv)")):
            Network([encode, head])
        with pytest.raises(ValueError, match=re.escape("layer 0 (deconv)")):
            Network([decode, encode])
        encode.kernel.weights[:] = 7.0
        assert (net.theta[:encode.kernel.weights.size] == 7.0).all()
        assert np.array_equal(net.theta, flat(p for p, _ in net.parameters()))

    def test_placed_layers_mixed_with_fresh_ones_are_refused(self):
        rng = np.random.default_rng(0)
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=5)
        head = ConvLayer.create(rng, 8, 1, 1, 1)
        with pytest.raises(ValueError, match=re.escape("layer 0 (conv)")):
            Network([*net.layers[:-2], head, SigmoidLayer()])
        with pytest.raises(ValueError, match=re.escape("layer 1 (conv)")):
            Network([head, *net.layers])
        assert np.array_equal(net.theta, flat(p for p, _ in net.parameters()))
        # A refused network moves nothing: the fresh head is still free.
        assert Network([head]).theta.size == head.kernel.weights.size + 1

    def test_a_kernel_layer_listed_twice_is_refused(self):
        conv = ConvLayer.create(np.random.default_rng(0), 1, 2, 1, 1)
        before = [p.copy() for p, _ in conv.parameters()]
        arrays = [p for p, _ in conv.parameters()]
        with pytest.raises(ValueError, match=re.escape(
                "layer 1 (conv) repeats layer 0")):
            Network([conv, conv, SigmoidLayer()])
        with pytest.raises(ValueError, match=re.escape(
                "layer 2 (conv) repeats layer 0")):
            Network([conv, ReLULayer(), conv])
        assert not conv.placed
        assert all(a is p for a, (p, _) in zip(arrays, conv.parameters()))
        assert all(np.array_equal(b, p)
                   for b, (p, _) in zip(before, conv.parameters()))
        net = Network([conv, SigmoidLayer()])
        assert np.array_equal(net.theta, flat(before))

    def test_a_run_of_placed_layers_is_refused(self):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=5)
        with pytest.raises(ValueError,
                           match=re.escape("layer 0 (deconv) is placed")):
            Network(net.layers[2:])
        with pytest.raises(ValueError, match=re.escape("layer 0 (conv)")):
            Network(block_form(net)[1])
        fresh = Network(block_core(np.random.default_rng(0)))
        assert not np.shares_memory(fresh.theta, net.theta)


class TestBlockPrediction:
    """The core's 16-code table, read on every block of the network's
    partition, reproduces the dense whole-grid Network.forward."""

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    @pytest.mark.parametrize("grids", [
        all_4x4_grids, lambda: random_grids(200, 16, 0.5, 61)])
    def test_matches_dense_reference(self, phase, edge, bypass, grids):
        net = centred_model(phase, edge, bypass, seed=59)
        x = grids()
        # In slices, to keep the dense reference's activations small.
        dense = np.concatenate([
            net.forward(x[lo:lo + 8192, None].astype(np.float64))[0][:, 0]
            for lo in range(0, len(x), 8192)])
        assert np.array_equal(apply_model_binary(net, x),
                              (dense >= 0.5).astype(np.uint8))
        mapped = tabulate(net)

        def lookup(rows):
            return mapped.table[block_codes(rows.reshape(-1, 2, 2)).ravel()]
        pred = map_blocks(x, *mapped.partition, lookup)
        assert np.abs(pred - dense).max() <= 1e-15

    @pytest.mark.parametrize("layers,named", [
        (lambda rng: block_core(rng)[:-2]
         + [ConvLayer.create(rng, 2, 1, 3, 1), SigmoidLayer()],
         "layer 4 (conv)"),
        (lambda rng: [WrapShiftLayer(), *block_core(rng)],
         "layer 6 (sigmoid)"),
    ])
    def test_rejects_non_block_networks_by_layer(self, layers, named):
        net = Network(layers(np.random.default_rng(0)))
        with pytest.raises(ValueError, match=re.escape(named)):
            tabulate(net)

    def test_rejects_non_binary_grids(self):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=0)
        with pytest.raises(ValueError, match="0 or 1"):
            apply_model_binary(net, 2 * random_grids(3, 8, 0.5, 0))


def dense_scores(pred, targets):
    """The dense reference of evaluate_tensors on a float prediction:
    (cell accuracy, exact-grid rate, mean BCE)."""
    loss, _ = bce_loss(pred, targets.astype(np.float64))
    match = (pred >= 0.5) == targets
    return (int(match.sum()) / match.size,
            int(match.all(axis=(1, 2)).sum()) / len(match), loss)


def flip_a_third(grids, seed):
    """Copy of a binary stack with one cell flipped in every third grid,
    cycling through the corners, the edges (where pad-and-crop networks
    read padded blocks) and the interior."""
    n = grids.shape[-1]
    cells = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (0, n // 2),
             (n - 1, 1), (n // 2, 0), (1, n - 1), (n // 2, n // 2 - 1)]
    out = grids.copy()
    rng = np.random.default_rng(seed)
    for j, i in enumerate(range(0, len(out), 3)):
        r, c = cells[j % len(cells)] if j < len(cells) \
            else rng.integers(0, n, 2)
        out[i, r, c] ^= 1
    return out


def read_keys(model, x, t):
    """The block keys evaluate packs for a grid map: those of the grids
    it reads, in its partition."""
    table = tabulate(model)
    return block_keys(table.partition, table.frame(x), t)


class TestBlockEvaluation:
    """evaluate_tensors scores the 16-code table against block keys; the
    dense Network.forward with bce_loss and a threshold is its reference."""

    @pytest.mark.parametrize("phase,edge,bypass", VARIANTS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_dense_reference(self, phase, edge, bypass, n):
        net = centred_model(phase, edge, bypass, seed=67)
        x = random_grids(60, n, 0.5, n)
        pred = net.forward(x[:, None].astype(np.float64))[0][:, 0]
        t = flip_a_third((pred >= 0.5).astype(np.uint8), n)
        accuracy, rate, loss = dense_scores(pred, t)
        assert 0.0 < rate < 1.0
        result = evaluate_tensors(tabulate(net),
                                  block_keys(block_form(net)[0], x, t))
        assert result.cell_accuracy == accuracy
        assert result.exact_grid_rate == rate
        assert abs(result.mean_loss - loss) <= 1e-12 * loss

    def test_callables_score_their_own_output(self):
        x = random_grids(60, 8, 0.5, 71)
        t = flip_a_third(step(x, Phase.ALIGNED), 71)
        for fn in (lambda g: step(g, Phase.ALIGNED), lambda g: g,
                   lambda g: np.zeros_like(g)):
            accuracy, rate, loss = dense_scores(
                fn(x).astype(np.float64), t)
            result = evaluate_tensors(tabulate(fn), read_keys(fn, x, t))
            assert (result.cell_accuracy, result.exact_grid_rate) == \
                (accuracy, rate)
            assert abs(result.mean_loss - loss) <= 1e-12 * loss

    @pytest.mark.parametrize("bad", [
        lambda t: 2 * t, lambda t: t - 1, lambda t: t * 0.5,
        lambda t: np.where(t, np.nan, 0.0), lambda t: t[:, :-2, :-2],
        lambda t: t[:-1], lambda t: t[0]])
    def test_rejects_non_binary_or_misshaped_targets(self, bad):
        x = random_grids(6, 8, 0.5, 73)
        t = bad(step(x, Phase.ALIGNED).astype(np.int64))
        for model in (build_model(Phase.OFFSET, EdgeMode.ZERO_PAD_CROP,
                                  seed=0), lambda g: g):
            with pytest.raises(ValueError):
                evaluate_tensors(tabulate(model), read_keys(model, x, t))

    def test_rollout_runs_each_core_once(self, monkeypatch):
        net_a = centred_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, False, 3)
        net_o = centred_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, False, 4)
        g = random_grid(16, 0.5, 79)
        want = [g]
        for k in range(10):
            net = net_a if k % 2 == 0 else net_o
            want.append(apply_model_binary(net, want[-1][None])[0])
        cores = []
        real = rollout_module.code_forward

        def counted(core):
            cores.append(core)
            return real(core)
        monkeypatch.setattr(rollout_module, "code_forward", counted)
        trajectory, _ = rollout(net_a, net_o, g, steps=10)
        assert cores == [block_form(net_a)[1], block_form(net_o)[1]]
        assert all(np.array_equal(a, b) for a, b in zip(trajectory, want))

    def test_evaluate_runs_the_core_once(self, monkeypatch):
        net = centred_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, False, 5)
        ds = small_dataset(seed=7, phase=Phase.OFFSET)
        want = evaluate(net, ds)
        cores = []
        real = rollout_module.code_forward

        def counted(core):
            cores.append(core)
            return real(core)
        monkeypatch.setattr(rollout_module, "code_forward", counted)
        assert evaluate(net, ds) == want
        assert cores == [block_form(net)[1]]

    def test_evaluate_tensors_scores_the_given_table(self, monkeypatch):
        net = centred_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, False, 5)
        ds = small_dataset(seed=7)
        want, mapped = evaluate(net, ds), tabulate(net)
        monkeypatch.setattr(train_module, "tabulate", None)
        assert evaluate_tensors(mapped, block_keys(
            mapped.partition, ds.inputs, ds.targets)) == want

    @pytest.mark.parametrize("model", [
        build_model(Phase.OFFSET, EdgeMode.ZERO_PAD_CROP, seed=0),
        lambda g: g], ids=["network", "callable"])
    def test_evaluate_validates_each_chunk_once(self, monkeypatch, model):
        ds = generate_dataset(4, 2 * KEY_CHUNK + 501, Direction.FORWARD,
                              Phase.OFFSET, EdgeMode.ZERO_PAD_CROP, seed=8)
        want = evaluate(model, ds)
        seen = []
        real = train_module.validate_grids

        def counted(grids):
            seen.append(len(grids))
            return real(grids)
        for module in (ca_module, rollout_module, train_module):
            monkeypatch.setattr(module, "validate_grids", counted)
        assert evaluate(model, ds) == want
        assert seen == [KEY_CHUNK, KEY_CHUNK] * 2 + [501, 501]


class TestCommute:
    def test_verify_certifies_identity_evolution_and_square(self):
        candidates = [
            ("identity", lambda g: g),
            ("evolution", lambda g: step(g, Phase.ALIGNED)),
            ("evolution-squared",
             lambda g: step(step(g, Phase.ALIGNED), Phase.ALIGNED)),
        ]
        report = verify_commuting_solutions(
            candidates, trials=50, seed=2,
            evolution=exact_phase_step(Phase.ALIGNED), n=8)
        assert all(r.commutes for r in report.results)
        assert report.certified
        assert len(report.distinct_commuters) == 3
        assert "non-uniqueness certified: yes" in report.summary()

    def test_non_commuting_candidate_flagged(self):
        candidates = [
            ("identity", lambda g: g),
            ("complement", lambda g: (1 - g).astype(np.uint8)),
        ]
        report = verify_commuting_solutions(
            candidates, trials=30, seed=3,
            evolution=exact_phase_step(Phase.ALIGNED), n=8)
        by_name = {r.name: r for r in report.results}
        assert by_name["identity"].commutes
        assert not by_name["complement"].commutes

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_commuting_solutions([("identity", lambda g: g)], 0, 0,
                                       exact_phase_step(Phase.ALIGNED))

    def test_epoch_metrics_score_the_moving_label_on_the_held_out_pool(self):
        evolution = exact_phase_step(Phase.ALIGNED)
        config = TrainConfig(epochs=2, batch_size=16, seed=4)
        history, net = commute_experiment(evolution, 3, config, n=8,
                                          count=100, holdout_fraction=0.2)
        held_out = random_grids(100, 8, 0.5, 4)[-20:]
        want = evaluate_tensors(tabulate(net), block_keys(
            block_form(net)[0], evolution(held_out),
            evolution(apply_model_binary(net, held_out))))
        final = history.final
        assert (final.test_loss, final.cell_accuracy,
                final.exact_grid_rate) == \
            (want.mean_loss, want.cell_accuracy, want.exact_grid_rate)

    def test_an_int64_evolution_trains_like_uint8(self):
        evolution = exact_phase_step(Phase.ALIGNED)
        config = TrainConfig(epochs=2, batch_size=16, seed=4)
        runs = [commute_experiment(fn, 3, config, n=8, count=100,
                                   holdout_fraction=0.2)[0].to_csv()
                for fn in (evolution,
                           lambda g: evolution(g).astype(np.int64))]
        assert runs[0] == runs[1]

    def test_a_non_binary_evolution_raises_value_error(self):
        evolution = exact_phase_step(Phase.ALIGNED)
        with pytest.raises(ValueError, match="grid cells must be 0 or 1"):
            commute_experiment(lambda g: 0.7 * evolution(g), 3,
                               TrainConfig(epochs=1, batch_size=16), n=8,
                               count=100, holdout_fraction=0.2)


# The five acceptance tasks: (direction, phase, edge, bypass).
TASKS = [(Direction.FORWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP, False),
         (Direction.FORWARD, Phase.OFFSET, EdgeMode.TORUS_WRAP, False),
         (Direction.FORWARD, Phase.OFFSET, EdgeMode.ZERO_PAD_CROP, False),
         (Direction.BACKWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP, False),
         (Direction.FORWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP, True)]


def test_real_paths_never_reach_the_general_conv_path(monkeypatch):
    """Training, tabulate, evaluate, rollout and commute run the core on
    one-window rows (see models.code_forward); only the dense reference
    unfolds and folds whole grids."""
    def general(*_):
        raise AssertionError("general conv path reached")
    monkeypatch.setattr(layers_module, "_unfold", general)
    monkeypatch.setattr(layers_module, "_fold", general)
    config = TrainConfig(epochs=1, batch_size=16, seed=1)
    grids = random_grids(5, 8, 0.5, 2)
    for i, (direction, phase, edge, bypass) in enumerate(TASKS):
        ds = generate_dataset(8, 40, direction, phase, edge, seed=i)
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=i)
        train(net, ds, config, 0.25)
        tabulate(net)
        evaluate(net, ds)
        rollout(net, net, grids, 2)
    commute_experiment(exact_phase_step(Phase.ALIGNED), 3, config, n=8,
                       count=40, holdout_fraction=0.25)


class TestExactMaps:
    def test_exact_full_step_matches_two_half_steps(self):
        from blockca.learn import exact_full_step

        rng = np.random.default_rng(12)
        grids = np.stack([random_grid(8, 0.5, rng) for _ in range(10)])
        want = np.stack([evolve(g, 2)[-1] for g in grids])
        assert np.array_equal(exact_full_step(grids), want)

    def test_exact_phase_step_matches_single_step(self):
        rng = np.random.default_rng(13)
        grids = np.stack([random_grid(8, 0.5, rng) for _ in range(10)])
        fn = exact_phase_step(Phase.OFFSET)
        want = np.stack([step(g, Phase.OFFSET) for g in grids])
        assert np.array_equal(fn(grids), want)
