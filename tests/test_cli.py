"""Command-line surface: flags, file formats, exit codes, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockca import ca
from blockca.ca import EdgeMode, GridFormatError, Phase
from blockca.cli import _parse_random_spec, main
from blockca.learn import CommuteReport, build_model, rollout
from blockca.linops import build_full_step_operator, parse_operator
from blockca.nn import (
    CheckpointFormatError,
    ConvLayer,
    DeconvLayer,
    Network,
    ReLULayer,
    SigmoidLayer,
    load_network,
    save_network,
)


def run(*argv):
    return main([str(a) for a in argv])


# --random specs that are often, not always, well formed: integer and float
# fields (non-finite ones included) with stray text and separators.
_SPEC_FIELD = st.text(alphabet="0123456789-+.,e nainf_x", max_size=4)
near_random_spec = st.builds(
    lambda n, density, seed, sep: sep.join([n, density, seed]),
    st.one_of(st.integers(-4, 10**6).map(str), _SPEC_FIELD),
    st.one_of(st.floats().map(repr), st.sampled_from(
        ["nan", "-inf", "1e999", " .5", "0.5 ", "1_0.5"]), _SPEC_FIELD),
    st.one_of(st.integers(-4, 2**70).map(str), _SPEC_FIELD),
    st.sampled_from([",", ",", ",,", ";", ", "]))


class TestRandomSpec:
    """Parsed directly: a fuzzed n never reaches grid construction."""

    @given(st.one_of(st.text(), near_random_spec))
    @settings(max_examples=300, deadline=None)
    def test_any_spec_is_rejected_or_round_trips(self, spec):
        try:
            n, density, seed = _parse_random_spec(spec)
        except GridFormatError:
            return
        assert _parse_random_spec(f"{n},{density!r},{seed}") == \
            (n, density, seed)


class TestSimulate:
    def test_all_dead_two_steps_cycles_through_all_live(self, tmp_path):
        out = tmp_path / "traj.txt"
        assert run("simulate", "--random", "4,0.0,1", "--steps", "2",
                   "--out", out) == 0
        traj = ca.read_trajectory(out)
        assert (traj[0] == 0).all() and (traj[1] == 1).all() \
            and (traj[2] == 0).all()

    def test_zero_steps_echoes_input(self, tmp_path):
        grid_file = tmp_path / "grid.txt"
        g = ca.random_grid(6, 0.5, 3)
        grid_file.write_text(ca.format_grid(g), encoding="ascii")
        out = tmp_path / "out.txt"
        assert run("simulate", "--grid", grid_file, "--steps", "0",
                   "--out", out) == 0
        traj = ca.read_trajectory(out)
        assert len(traj) == 1 and np.array_equal(traj[0], g)

    def test_backward_after_forward_recovers_start(self, tmp_path):
        fwd = tmp_path / "fwd.txt"
        assert run("simulate", "--random", "8,0.5,42", "--steps", "5",
                   "--out", fwd) == 0
        forward = ca.read_trajectory(fwd)
        last = tmp_path / "last.txt"
        last.write_text(ca.format_grid(forward[-1]), encoding="ascii")
        bwd = tmp_path / "bwd.txt"
        assert run("simulate", "--grid", last, "--steps", "5",
                   "--direction", "bwd", "--out", bwd) == 0
        backward = ca.read_trajectory(bwd)
        assert np.array_equal(backward[-1], forward[0])

    def test_invert_equals_simulate_backward(self, tmp_path):
        grid_file = tmp_path / "g.txt"
        grid_file.write_text(ca.format_grid(ca.random_grid(6, 0.5, 9)),
                             encoding="ascii")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run("invert", "--grid", grid_file, "--steps", "3",
                   "--out", a) == 0
        assert run("simulate", "--grid", grid_file, "--steps", "3",
                   "--direction", "bwd", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_without_out_prints_the_trajectory(self, capsys):
        assert run("simulate", "--random", "4,0.5,3", "--steps", "2") == 0
        want = ca.format_trajectory(ca.evolve(ca.random_grid(4, 0.5, 3), 2))
        assert capsys.readouterr().out == want

    def test_parse_errors_exit_2(self, tmp_path):
        assert run("simulate", "--random", "garbage", "--steps", "1") == 2
        for density in ("nan", "inf", "-inf", "1e999"):
            assert run("simulate", "--random", f"16,{density},1",
                       "--steps", "1") == 2
        assert run("simulate", "--grid", tmp_path / "missing.txt",
                   "--steps", "1") == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n01\n")
        assert run("simulate", "--grid", bad, "--steps", "1") == 2

    @pytest.mark.parametrize("command", ["simulate", "invert"])
    def test_non_ascii_grid_file_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("2\n01\n0\uff10\n".encode())  # a fullwidth zero
        assert run(command, "--grid", bad, "--steps", "1") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad} is not ASCII text"]

    @pytest.mark.parametrize("command", ["simulate", "invert"])
    def test_directory_as_grid_exits_2(self, tmp_path, capsys, command):
        assert run(command, "--grid", tmp_path, "--steps", "1") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("header", ["+2", "0_2", "\uff12", "-2", "2.0",
                                        "9" * 5000])
    def test_side_length_must_be_ascii_digits(self, tmp_path, header):
        text = f"{header}\n01\n00\n"
        with pytest.raises(GridFormatError, match="side length"):
            ca.parse_grid(text)
        path = tmp_path / "grid.txt"
        path.write_bytes(text.encode())
        assert run("simulate", "--grid", path, "--steps", "1") == 2

    def test_invalid_configs_exit_3(self):
        assert run("simulate", "--random", "5,0.5,1", "--steps", "1") == 3
        assert run("simulate", "--random", "3,0.5,1", "--steps", "1") == 3
        assert run("simulate", "--random", "16,2,1", "--steps", "1") == 3
        assert run("simulate", "--random", "4,0.5,1", "--steps", "2",
                   "--edge", "pad", "--direction", "bwd") == 3
        assert run("simulate", "--random", "4,0.5,1", "--steps", "-1") == 3

    def test_unknown_flags_exit_2(self):
        assert run("simulate", "--random", "4,0.5,1", "--steps", "1",
                   "--bogus") == 2
        assert run("not-a-command") == 2

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("simulate", "--random", "8,0.5,5", "--steps", "4", "--out", a)
        run("simulate", "--random", "8,0.5,5", "--steps", "4", "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestOperatorCheck:
    def test_random_trials_pass(self, capsys):
        assert run("operator-check", "--n", "4", "--trials", "25",
                   "--seed", "1") == 0
        assert "25/25 passed" in capsys.readouterr().out

    def test_exhaustive_n2(self, capsys):
        assert run("operator-check", "--n", "2", "--exhaustive") == 0
        assert "16/16 passed" in capsys.readouterr().out

    def test_dump_is_the_first_grids_operator(self, tmp_path, capsys):
        dump = tmp_path / "op.txt"
        assert run("operator-check", "--n", "4", "--trials", "3",
                   "--seed", "0", "--dump", dump) == 0
        assert "3/3 passed" in capsys.readouterr().out
        first = ca.random_grids(3, 4, 0.5, 0)[0]
        assert parse_operator(dump.read_text(encoding="ascii")) == \
            build_full_step_operator(first)

    def test_exhaustive_above_n4_exits_3(self, capsys):
        assert run("operator-check", "--n", "6", "--exhaustive") == 3
        assert capsys.readouterr().err == \
            "error: --exhaustive is only tractable for n <= 4\n"

    def test_odd_n_exits_3(self):
        assert run("operator-check", "--n", "5", "--trials", "2") == 3

    def test_negative_trials_exit_3(self):
        assert run("operator-check", "--n", "4", "--trials", "-1") == 3

    def test_zero_trials_exit_3_instead_of_a_vacuous_pass(self, capsys):
        assert run("operator-check", "--n", "4", "--trials", "0") == 3
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        assert captured.err == "error: --trials must be >= 1, got 0\n"


class TestLowerCheck:
    def test_default_trials_pass(self, capsys):
        assert run("lower-check", "--trials", "8", "--seed", "3") == 0
        assert "9/9 passed" in capsys.readouterr().out

    def test_zero_trials_vacuously_pass(self, capsys):
        assert run("lower-check", "--trials", "0", "--seed", "3") == 0
        # the fixed identity-kernel case still runs
        assert "1/1 passed" in capsys.readouterr().out

    def test_negative_trials_exit_3(self, capsys):
        assert run("lower-check", "--trials", "-3") == 3
        assert "passed" not in capsys.readouterr().out


class TestGenData:
    def test_writes_inputs_targets_manifest(self, tmp_path):
        prefix = tmp_path / "data"
        assert run("gen-data", "--n", "6", "--count", "5", "--seed", "2",
                   "--out-prefix", prefix) == 0
        inputs = ca.read_trajectory(f"{prefix}.inputs.txt")
        targets = ca.read_trajectory(f"{prefix}.targets.txt")
        assert len(inputs) == len(targets) == 5
        for x, t in zip(inputs, targets):
            assert np.array_equal(t, ca.step(x))
        manifest = (tmp_path / "data.manifest.txt").read_text()
        assert "command=gen-data" in manifest and "seed=2" in manifest

    def test_backward_pad_rejected(self, tmp_path):
        assert run("gen-data", "--n", "4", "--count", "2",
                   "--direction", "bwd", "--phase", "offset",
                   "--edge", "pad", "--out-prefix", tmp_path / "x") == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny but real training run shared by train/eval/rollout tests."""
    root = tmp_path_factory.mktemp("cli-train")
    csv_a = root / "aligned.csv"
    ckpt_a = root / "aligned.ckpt"
    code = main(["train", "--n", "8", "--train-count", "300",
                 "--test-count", "60", "--epochs", "6", "--batch-size", "16",
                 "--data-seed", "11", "--model-seed", "12", "--seed", "13",
                 "--out-csv", str(csv_a), "--out-checkpoint", str(ckpt_a)])
    assert code == 0
    csv_o = root / "offset.csv"
    ckpt_o = root / "offset.ckpt"
    code = main(["train", "--n", "8", "--phase", "offset",
                 "--train-count", "300", "--test-count", "60",
                 "--epochs", "6", "--batch-size", "16",
                 "--data-seed", "21", "--model-seed", "22", "--seed", "23",
                 "--out-csv", str(csv_o), "--out-checkpoint", str(ckpt_o)])
    assert code == 0
    return root, csv_a, ckpt_a, ckpt_o


class TestTrainEvalRollout:
    def test_csv_has_one_row_per_epoch_and_manifest(self, trained):
        root, csv_a, _, _ = trained
        lines = csv_a.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,test_loss,cell_accuracy," \
                           "exact_grid_rate"
        assert len(lines) == 7
        manifest = (root / "aligned.csv.manifest.txt").read_text()
        assert "command=train" in manifest
        assert "data_seed=11" in manifest and "model_seed=12" in manifest

    def test_checkpoint_loads_and_evaluates(self, trained, tmp_path):
        _, _, ckpt_a, _ = trained
        report = tmp_path / "eval.txt"
        assert main(["eval", "--checkpoint", str(ckpt_a), "--n", "8",
                     "--count", "50", "--seed", "31",
                     "--out", str(report)]) == 0
        text = report.read_text()
        assert "cell_accuracy=" in text and "mean_loss=" in text

    def test_eval_of_nan_checkpoint_exits_4(self, tmp_path, capsys):
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1)
        for param, _ in net.parameters():
            param[...] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_network(net, ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--density", "0", "--seed", "1"]) == 4
        assert "error: non-finite prediction" in capsys.readouterr().err

    @pytest.mark.parametrize("bias", [np.inf, -np.inf, np.nan])
    def test_eval_of_non_finite_head_bias_exits_4(self, tmp_path, capsys,
                                                   bias):
        # An infinite logit thresholds to a constant grid; it must not be
        # scored as a prediction.
        net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1)
        net.layers[-2].kernel.bias[:] = bias
        ckpt = tmp_path / "head.ckpt"
        save_network(net, ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--seed", "1"]) == 4
        assert "error: non-finite prediction" in capsys.readouterr().err

    def test_eval_without_a_sigmoid_head_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        ckpt = tmp_path / "headless.ckpt"
        save_network(Network([ConvLayer.create(rng, 1, 2, 2, 2), ReLULayer(),
                              DeconvLayer.create(rng, 2, 1, 2, 2)]), ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--seed", "1"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: layer 2 (deconv) is not the head")

    def test_rollout_of_nan_checkpoints_exits_4(self, tmp_path, capsys):
        ckpts = []
        for phase in (Phase.ALIGNED, Phase.OFFSET):
            net = build_model(phase, EdgeMode.TORUS_WRAP, seed=1)
            for param, _ in net.parameters():
                param[...] = np.nan
            ckpts.append(tmp_path / f"{phase.name.lower()}.ckpt")
            save_network(net, ckpts[-1])
        assert main(["rollout", "--checkpoint-aligned", str(ckpts[0]),
                     "--checkpoint-offset", str(ckpts[1]), "--n", "8",
                     "--count", "5", "--steps", "4", "--seed", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: non-finite prediction"]
        assert "divergence_at_" not in captured.out

    def test_eval_missing_checkpoint_exits_2(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--n", "8", "--count", "10", "--seed", "1"]) == 2

    @pytest.mark.parametrize("old,new", [
        (b"layer conv 2 1 2 2 2 2\n", b"layer conv 2 1\n"),
        (b"layers 2\n", b"layers six\n"),
        (b"conv 2 1 2 2 2 2", b"conv -2 1 2 2 2 2"),
        (b"conv 2 1 2 2 2 2", b"conv 2 1 2 2 0 2"),
        (b"conv 2 1 2 2 2 2", b"conv 2 1 99999999 99999999 2 2"),
        (b"layer sigmoid\n", b"layer\n"),
        (b"layer sigmoid\n", b"layer sigmoid\njunk"),
        (b"layers 2\n", b"layers 1\n"),
        (b"layers 2\n", b"layers 02\n"),
        (b"layer sigmoid\n", b"layer sigmoid relu\n"),
        (b"layer sigmoid\n", b"layer tanh\n"),
        (b"layer sigmoid\n", b"layer sigm\xffid\n"),
    ])
    def test_eval_of_malformed_checkpoint_exits_2(self, tmp_path, capsys,
                                                  old, new):
        rng = np.random.default_rng(1)
        ckpt = tmp_path / "bad.ckpt"
        save_network(Network([ConvLayer.create(rng, 1, 2, 2, 2),
                              SigmoidLayer()]), ckpt)
        assert old in ckpt.read_bytes()
        ckpt.write_bytes(ckpt.read_bytes().replace(old, new))
        with pytest.raises(CheckpointFormatError):
            load_network(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_rollout_writes_divergence_report(self, trained, tmp_path):
        _, _, ckpt_a, ckpt_o = trained
        report = tmp_path / "rollout.txt"
        assert main(["rollout", "--checkpoint-aligned", str(ckpt_a),
                     "--checkpoint-offset", str(ckpt_o), "--n", "8",
                     "--count", "10", "--steps", "4", "--seed", "41",
                     "--out", str(report)]) == 0
        text = report.read_text()
        assert "steps=4" in text and "trials=10" in text
        assert "mean_divergence_step=" in text
        # The same report from rollouts run grid by grid.
        nets = load_network(ckpt_a), load_network(ckpt_o)
        rng = np.random.default_rng(41)
        divergences = [rollout(*nets, ca.random_grid(8, 0.5, rng), 4)[1]
                       for _ in range(10)]
        counts = {d: divergences.count(d) for d in sorted(set(divergences))}
        assert text.splitlines() == [
            "steps=4", "trials=10",
            f"mean_divergence_step={np.mean(divergences):.9g}",
            f"exact_rollouts={counts.get(5, 0)}",
            *[f"divergence_at_{d}={c}" for d, c in counts.items()]]

    def test_directory_as_checkpoint_exits_2(self, trained, tmp_path,
                                             capsys):
        _, _, ckpt_a, ckpt_o = trained
        for argv in (["eval", "--checkpoint", tmp_path],
                     ["rollout", "--checkpoint-aligned", tmp_path,
                      "--checkpoint-offset", ckpt_o],
                     ["rollout", "--checkpoint-aligned", ckpt_a,
                      "--checkpoint-offset", tmp_path]):
            assert run(*argv, "--n", 8, "--count", 10) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("count", [0, -2])
    def test_rollout_of_no_grids_exits_3(self, trained, capsys, count):
        _, _, ckpt_a, ckpt_o = trained
        assert main(["rollout", "--checkpoint-aligned", str(ckpt_a),
                     "--checkpoint-offset", str(ckpt_o), "--n", "8",
                     "--count", str(count)]) == 3
        captured = capsys.readouterr()
        assert "trials=" not in captured.out
        assert captured.err.startswith("error: --count")

    def test_unchained_checkpoint_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        ckpt = tmp_path / "unchained.ckpt"
        save_network(Network([ConvLayer.create(rng, 1, 2, 2, 2),
                              ConvLayer.create(rng, 3, 1, 1, 1),
                              SigmoidLayer()]), ckpt)
        with pytest.raises(CheckpointFormatError, match="layer 1"):
            load_network(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--seed", "1"]) == 2
        assert "takes 3 channels" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,named", [
        # The head conv emits 1 channel and the deconv 8: a bias of the
        # other side's length is refused.
        (b"layer conv 1 8 1 1 1 1\n", b"layer conv 1 8 1 1 1 8\n",
         "layer 4 (conv) has 8 bias entries"),
        (b"layer deconv 16 8 2 2 2 8\n", b"layer deconv 16 8 2 2 2 16\n",
         "layer 2 (deconv) has 16 bias entries"),
    ])
    def test_checkpoint_bias_on_the_wrong_side_exits_2(self, tmp_path, capsys,
                                                       old, new, named):
        ckpt = tmp_path / "bias.ckpt"
        save_network(build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1),
                     ckpt)
        data = ckpt.read_bytes()
        at = data.index(old) + len(old)
        dims = [int(word) for word in old.split()[2:]]
        weights_end = at + 8 * math.prod(dims[:4])
        bias = np.full(int(new.split()[-1]), 0.5).astype("<f8").tobytes()
        ckpt.write_bytes(data[:at - len(old)] + new + data[at:weights_end]
                         + bias + data[weights_end + 8 * dims[-1]:])
        with pytest.raises(CheckpointFormatError, match=re.escape(named)):
            load_network(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

    @pytest.mark.parametrize("decode", [False, True])
    def test_chained_checkpoint_of_the_wrong_shape_loads_and_exits_3(
            self, tmp_path, capsys, decode):
        # The layers chain, but the output is two half-size channels, or
        # three full-size ones, not the one channel of a grid.  Without a
        # deconv, block_form rejects the network; with one, the core's
        # output on the 16 block codes has the wrong shape.
        rng = np.random.default_rng(3)
        layers = [ConvLayer.create(rng, 1, 2, 2, 2)]
        if decode:
            layers.append(DeconvLayer.create(rng, 2, 3, 2, 2))
        ckpt = tmp_path / "shape.ckpt"
        save_network(Network([*layers, SigmoidLayer()]), ckpt)
        assert len(load_network(ckpt).layers) == len(layers) + 1
        assert main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                     "--count", "10", "--seed", "1"]) == 3
        want = ("network maps" if decode
                else "no 2x2 stride-2 deconv returns the blocks")
        assert capsys.readouterr().err.startswith(f"error: {want}")

    def test_train_reruns_byte_identical(self, trained, tmp_path):
        _, csv_a, _, _ = trained
        again = tmp_path / "again.csv"
        assert main(["train", "--n", "8", "--train-count", "300",
                     "--test-count", "60", "--epochs", "6",
                     "--batch-size", "16", "--data-seed", "11",
                     "--model-seed", "12", "--seed", "13",
                     "--out-csv", str(again)]) == 0
        assert again.read_bytes() == csv_a.read_bytes()


class TestCommuteAndGradcheck:
    def test_commute_writes_csv_and_certifies_nonuniqueness(self, tmp_path,
                                                            capsys):
        csv = tmp_path / "commute.csv"
        code = main(["commute", "--n", "8", "--count", "200", "--epochs", "2",
                     "--batch-size", "16", "--model-seed", "1", "--seed", "2",
                     "--verify-trials", "20", "--out-csv", str(csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "identity: 20/20 commutes" in out
        assert "evolution-itself: 20/20 commutes" in out
        assert "non-uniqueness certified: yes" in out
        assert len(csv.read_text().strip().splitlines()) == 3

    def test_uncertified_commute_exits_4_after_writing(self, tmp_path,
                                                       capsys, monkeypatch):
        monkeypatch.setattr("blockca.cli.verify_commuting_solutions",
                            lambda *args, **kwargs: CommuteReport())
        csv = tmp_path / "commute.csv"
        assert run("commute", "--n", "8", "--count", "100", "--epochs", "1",
                   "--verify-trials", "1", "--out-csv", csv) == 4
        assert "non-uniqueness certified: no" in capsys.readouterr().out
        assert len(csv.read_text().strip().splitlines()) == 2
        assert "command=commute" in \
            (tmp_path / "commute.csv.manifest.txt").read_text()

    def test_commute_manifest_lists_only_its_own_flags(self, tmp_path):
        csv = tmp_path / "commute.csv"
        assert run("commute", "--n", "8", "--count", "100", "--epochs", "1",
                   "--verify-trials", "0", "--out-csv", csv) == 0
        manifest = (tmp_path / "commute.csv.manifest.txt").read_text()
        keys = [line.split("=")[0] for line in manifest.splitlines()]
        assert "train_count" not in keys and "test_count" not in keys
        assert "command=commute" in manifest and "count=100" in manifest

    def test_negative_verify_trials_exit_3_before_training(self, tmp_path):
        csv = tmp_path / "commute.csv"
        assert main(["commute", "--n", "8", "--count", "200", "--epochs", "1",
                     "--verify-trials", "-4", "--out-csv", str(csv)]) == 3
        assert not csv.exists()

    @pytest.mark.parametrize("command", ["train", "commute"])
    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_exit_3_before_writing(self, tmp_path, capsys,
                                                    command, epochs):
        csv = tmp_path / "history.csv"
        assert run(command, "--n", "8", "--epochs", epochs,
                   "--out-csv", csv) == 3
        assert capsys.readouterr().err == \
            f"error: --epochs must be >= 1, got {epochs}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "commute"])
    @pytest.mark.parametrize("flag,value,field", [
        ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
        ("--adam-epsilon", "0", "adam_epsilon"),
        ("--adam-epsilon", "-1", "adam_epsilon"),
        ("--adam-epsilon", "nan", "adam_epsilon")])
    def test_bad_optimizer_flags_exit_3_before_writing(self, tmp_path, capsys,
                                                       command, flag, value,
                                                       field):
        csv = tmp_path / "history.csv"
        assert run(command, "--n", "8", "--epochs", "1", flag, value,
                   "--out-csv", csv) == 3
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gradcheck_passes_on_default_model(self, capsys):
        assert run("gradcheck", "--n", "4", "--seed", "5") == 0
        assert "max relative error" in capsys.readouterr().out

    def test_gradcheck_variants(self):
        assert run("gradcheck", "--n", "4", "--phase", "offset",
                   "--edge", "pad", "--bypass", "--seed", "6") == 0

    @pytest.mark.parametrize("batch", ["0", "-2"])
    def test_gradcheck_batch_validated(self, capsys, batch):
        assert run("gradcheck", "--n", "4", "--batch", batch) == 3
        assert capsys.readouterr().err == \
            f"error: --batch must be >= 1, got {batch}\n"

    def test_gradcheck_without_a_margin_input_exits_4(self, capsys):
        assert run("gradcheck", "--n", "4", "--batch", "3", "--phase",
                   "offset", "--edge", "pad") == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no input cleared")
