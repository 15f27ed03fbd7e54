#!/usr/bin/env python3
"""Train every rule-learning variant and report rollout behaviour.

Each task is one `blockca train` run writing a history CSV, checkpoint and
manifest under --outdir; then `blockca rollout` iterates the trained
aligned/offset pair against the exact trajectory and writes the
divergence-step report to rollout.txt.
"""

import argparse
import sys
from pathlib import Path

from blockca.cli import main as blockca
from blockca.learn.train import split_holdout

# name: extra `blockca train` flags
TASKS = {
    "fwd-aligned": [],
    "fwd-offset-torus": ["--phase", "offset"],
    "fwd-offset-pad": ["--phase", "offset", "--edge", "pad"],
    "bwd-aligned": ["--direction", "bwd"],
    "fwd-aligned-bypass": ["--bypass"],
}


def run_task(name, outdir, n, count, holdout, epochs, base_seed):
    n_test = split_holdout(count, holdout)
    print(f"{name}: ", end="", flush=True)
    code = blockca([
        "train", *TASKS[name], "--n", str(n),
        "--train-count", str(count - n_test), "--test-count", str(n_test),
        "--epochs", str(epochs), "--data-seed", str(base_seed),
        "--model-seed", str(base_seed + 1), "--seed", str(base_seed + 2),
        "--out-csv", str(outdir / f"{name}.csv"),
        "--out-checkpoint", str(outdir / f"{name}.ckpt")])
    if code == 0:
        (outdir / f"{name}.csv.manifest.txt").replace(
            outdir / f"{name}.manifest.txt")
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/rule-learning")
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--count", type=int, default=9000)
    parser.add_argument("--holdout", type=float, default=1 / 9)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--rollout-steps", type=int, default=10)
    parser.add_argument("--rollout-trials", type=int, default=100)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for offset, name in enumerate(TASKS):
        code = run_task(name, outdir, args.n, args.count, args.holdout,
                        args.epochs, args.seed + 10 * offset)
        if code != 0:
            return code

    report = outdir / "rollout.txt"
    code = blockca([
        "rollout",
        "--checkpoint-aligned", str(outdir / "fwd-aligned.ckpt"),
        "--checkpoint-offset", str(outdir / "fwd-offset-torus.ckpt"),
        "--n", str(args.n), "--count", str(args.rollout_trials),
        "--steps", str(args.rollout_steps), "--seed", str(args.seed),
        "--out", str(report)])
    if code == 0:
        print("rollout:", ", ".join(report.read_text().splitlines()))
    return code


if __name__ == "__main__":
    sys.exit(main())
