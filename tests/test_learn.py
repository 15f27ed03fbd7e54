"""Datasets, model construction, training loop, rollout, commutativity."""

import numpy as np
import pytest

from blockca.ca import (Direction, EdgeMode, Phase, evolve, random_grid,
                        random_grids, step)
from blockca.learn import (
    TrainConfig,
    TrainHistory,
    apply_model_binary,
    build_model,
    commute_experiment,
    commute_loss,
    evaluate,
    evaluate_tensors,
    exact_phase_step,
    generate_dataset,
    rollout,
    train,
    verify_commuting_solutions,
)
from blockca.learn.data import verify_dataset
from blockca.nn import ReLULayer, WrapShiftLayer, UnwrapShiftLayer
from blockca.nn.optim import OptimizerConfig

SMALL = TrainConfig(epochs=2, batch_size=8, seed=0,
                    optimizer=OptimizerConfig(learning_rate=1e-3))


def small_dataset(seed=0, n=8, count=40, direction=Direction.FORWARD,
                  phase=Phase.ALIGNED, edge=EdgeMode.TORUS_WRAP):
    return generate_dataset(n, count, direction, phase, edge, seed)


class TestDataset:
    def test_targets_match_exact_rule(self):
        ds = small_dataset(seed=3)
        assert verify_dataset(ds)
        for x, t in ds.pairs[:5]:
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
        assert net.predict(x).shape == x.shape

    def test_offset_models_preserve_grid_shape(self):
        for edge in EdgeMode:
            net = build_model(Phase.OFFSET, edge, seed=1)
            x = np.random.default_rng(0).random((2, 1, 8, 8))
            assert net.predict(x).shape == x.shape

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

    def test_csv_round_trip_is_stable_at_nine_significant_digits(self):
        history, _ = train(build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                                       seed=2), small_dataset(), SMALL, 0.25)
        text = history.to_csv()
        parsed = TrainHistory.from_csv(text)
        assert parsed.to_csv() == text
        assert [r.epoch for r in parsed.records] == \
            [r.epoch for r in history.records]


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


class TestCommute:
    def test_identity_map_commutes_without_training(self):
        evolution = exact_phase_step(Phase.ALIGNED)
        rng = np.random.default_rng(0)
        grids = np.stack([random_grid(8, 0.5, rng) for _ in range(20)])
        assert commute_loss(lambda x: x, evolution, grids) <= 1e-10

    def test_evolution_commutes_with_itself(self):
        evolution = exact_phase_step(Phase.ALIGNED)
        rng = np.random.default_rng(1)
        grids = np.stack([random_grid(8, 0.5, rng) for _ in range(20)])
        candidate = lambda g: step(g, Phase.ALIGNED)
        assert commute_loss(candidate, evolution, grids) <= 1e-10

    def test_verify_certifies_identity_evolution_and_square(self):
        candidates = [
            ("identity", lambda g: g),
            ("evolution", lambda g: step(g, Phase.ALIGNED)),
            ("evolution-squared",
             lambda g: step(step(g, Phase.ALIGNED), Phase.ALIGNED)),
        ]
        report = verify_commuting_solutions(candidates, trials=50, seed=2,
                                            n=8)
        assert all(r.commutes for r in report.results)
        assert report.certified
        assert len(report.distinct_commuters) == 3
        assert "non-uniqueness certified: yes" in report.summary()

    def test_non_commuting_candidate_flagged(self):
        candidates = [
            ("identity", lambda g: g),
            ("complement", lambda g: (1 - g).astype(np.uint8)),
        ]
        report = verify_commuting_solutions(candidates, trials=30, seed=3,
                                            n=8)
        by_name = {r.name: r for r in report.results}
        assert by_name["identity"].commutes
        assert not by_name["complement"].commutes

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_commuting_solutions([("identity", lambda g: g)], 0, 0)

    def test_epoch_metrics_score_the_moving_label_on_the_held_out_pool(self):
        evolution = exact_phase_step(Phase.ALIGNED)
        config = TrainConfig(epochs=2, batch_size=16, seed=4)
        history, net = commute_experiment(evolution, 3, config, n=8,
                                          count=100, holdout_fraction=0.2)
        held_out = random_grids(100, 8, 0.5, 4)[-20:]
        want = evaluate_tensors(net, evolution(held_out),
                                evolution(apply_model_binary(net, held_out)))
        final = history.final
        assert (final.test_loss, final.cell_accuracy,
                final.exact_grid_rate) == \
            (want.mean_loss, want.cell_accuracy, want.exact_grid_rate)


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
