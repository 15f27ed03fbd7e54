"""Smoke runs of the experiment scripts at tiny sizes."""

import runpy
import sys
from pathlib import Path

import pytest

from blockca.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [name, *map(str, argv)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def keys(path):
    return [line.split("=")[0] for line in path.read_text().splitlines()]


def test_rule_learning_writes_every_output(tmp_path, monkeypatch):
    out = tmp_path / "rl"
    assert run_script("run_rule_learning.py", monkeypatch,
                      "--outdir", out, "--n", 8, "--count", 200,
                      "--epochs", 1, "--seed", 5, "--rollout-trials", 4,
                      "--rollout-steps", 3) == 0
    for task in ("fwd-aligned", "fwd-offset-torus", "fwd-offset-pad",
                 "bwd-aligned", "fwd-aligned-bypass"):
        assert len((out / f"{task}.csv").read_text().splitlines()) == 2
        assert (out / f"{task}.ckpt").stat().st_size > 0
        assert "command=train" in (out / f"{task}.manifest.txt").read_text()
    cli_report = tmp_path / "rollout.txt"
    assert main(["rollout",
                 "--checkpoint-aligned", str(out / "fwd-aligned.ckpt"),
                 "--checkpoint-offset", str(out / "fwd-offset-torus.ckpt"),
                 "--n", "8", "--count", "4", "--steps", "3", "--seed", "5",
                 "--out", str(cli_report)]) == 0
    assert keys(out / "rollout.txt") == keys(cli_report)


def test_commute_writes_every_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cm"
    assert run_script("run_commute.py", monkeypatch,
                      "--outdir", out, "--n", 8, "--count", 300,
                      "--epochs", 1, "--seeds", 11, 12,
                      "--verify-trials", 10) == 0
    for seed in (11, 12):
        assert len((out / f"commute-{seed}.csv").read_text()
                   .splitlines()) == 2
        assert (out / f"commute-{seed}.ckpt").stat().st_size > 0
        assert "command=commute" in \
            (out / f"commute-{seed}.manifest.txt").read_text()
    assert "non-uniqueness certified: yes" in \
        (out / "verification.txt").read_text()
    assert "different seeds disagree on" in capsys.readouterr().out
