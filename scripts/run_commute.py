#!/usr/bin/env python3
"""Commutativity experiment: train networks to commute with the evolution
rule from two seeds, certify the non-uniqueness of exact commuters, and
measure how differently the two runs end up behaving.

Each seed is one `blockca commute` run writing a history CSV, checkpoint
and manifest under --outdir; the verification report goes to
verification.txt."""

import argparse
import sys
from pathlib import Path

from blockca.ca import Phase, random_grids, step
from blockca.cli import main as blockca
from blockca.learn import exact_phase_step, verify_commuting_solutions
from blockca.learn.rollout import apply_model_binary
from blockca.nn import load_network


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/commute")
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--count", type=int, default=4000)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1001, 2002))
    parser.add_argument("--verify-trials", type=int, default=100)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    nets = {}
    for init_seed in args.seeds:
        stem = outdir / f"commute-{init_seed}"
        print(f"seed {init_seed}: ", end="", flush=True)
        code = blockca([
            "commute", "--verify-trials", "0", "--n", str(args.n),
            "--count", str(args.count), "--epochs", str(args.epochs),
            "--model-seed", str(init_seed), "--seed", str(init_seed + 7),
            "--out-csv", f"{stem}.csv", "--out-checkpoint", f"{stem}.ckpt"])
        if code != 0:
            return code
        Path(f"{stem}.csv.manifest.txt").replace(f"{stem}.manifest.txt")
        nets[init_seed] = load_network(f"{stem}.ckpt")

    evolution = exact_phase_step(Phase.ALIGNED)
    candidates = [
        ("identity", lambda g: g),
        ("evolution", lambda g: step(g, Phase.ALIGNED)),
        ("evolution-squared",
         lambda g: step(step(g, Phase.ALIGNED), Phase.ALIGNED)),
        ("trained-" + str(args.seeds[0]), nets[args.seeds[0]]),
        ("trained-" + str(args.seeds[1]), nets[args.seeds[1]]),
    ]
    cert = verify_commuting_solutions(candidates, args.verify_trials,
                                      seed=555, evolution=evolution, n=args.n)
    (outdir / "verification.txt").write_text(cert.summary())
    print(cert.summary(), end="")

    probes = random_grids(100, args.n, 0.5, 777)
    outs = [apply_model_binary(nets[s], probes) for s in args.seeds]
    disagreement = float((outs[0] != outs[1]).mean())
    print(f"different seeds disagree on {100 * disagreement:.2f}% "
          f"of output cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
