"""Command-line surface: flags, file formats, exit codes, determinism."""

import numpy as np
import pytest

from blockca import ca
from blockca.ca import EdgeMode, Phase
from blockca.cli import main
from blockca.learn import build_model
from blockca.nn import save_network


def run(*argv):
    return main([str(a) for a in argv])


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
        ca.write_grid(grid_file, g)
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
        ca.write_grid(last, forward[-1])
        bwd = tmp_path / "bwd.txt"
        assert run("simulate", "--grid", last, "--steps", "5",
                   "--direction", "bwd", "--out", bwd) == 0
        backward = ca.read_trajectory(bwd)
        assert np.array_equal(backward[-1], forward[0])

    def test_invert_equals_simulate_backward(self, tmp_path):
        grid_file = tmp_path / "g.txt"
        ca.write_grid(grid_file, ca.random_grid(6, 0.5, 9))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run("invert", "--grid", grid_file, "--steps", "3",
                   "--out", a) == 0
        assert run("simulate", "--grid", grid_file, "--steps", "3",
                   "--direction", "bwd", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parse_errors_exit_2(self, tmp_path):
        assert run("simulate", "--random", "garbage", "--steps", "1") == 2
        assert run("simulate", "--grid", tmp_path / "missing.txt",
                   "--steps", "1") == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n01\n")
        assert run("simulate", "--grid", bad, "--steps", "1") == 2

    def test_invalid_configs_exit_3(self):
        assert run("simulate", "--random", "5,0.5,1", "--steps", "1") == 3
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

    def test_odd_n_exits_3(self):
        assert run("operator-check", "--n", "5", "--trials", "2") == 3

    def test_negative_trials_exit_3(self):
        assert run("operator-check", "--n", "4", "--trials", "-1") == 3


class TestLowerCheck:
    def test_default_trials_pass(self, capsys):
        assert run("lower-check", "--trials", "8", "--seed", "3") == 0
        assert "9/9 passed" in capsys.readouterr().out

    def test_zero_trials_vacuously_pass(self, capsys):
        assert run("lower-check", "--trials", "0", "--seed", "3") == 0
        # the fixed identity-kernel case still runs
        assert "1/1 passed" in capsys.readouterr().out


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

    def test_gradcheck_passes_on_default_model(self, capsys):
        assert run("gradcheck", "--n", "4", "--seed", "5") == 0
        assert "max relative error" in capsys.readouterr().out

    def test_gradcheck_variants(self):
        assert run("gradcheck", "--n", "4", "--phase", "offset",
                   "--edge", "pad", "--bypass", "--seed", "6") == 0

    def test_gradcheck_without_a_margin_input_exits_4(self, capsys):
        assert run("gradcheck", "--n", "4", "--batch", "3", "--phase",
                   "offset", "--edge", "pad") == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no input cleared")
