#!/usr/bin/env python3
"""Benchmark for blockca: time to exact networks, commute training and exact
GF(2) algebra, measured end to end, with per-layer spans on request.

    python3 bench/run.py --workload rule-learning --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; blockca is imported from its `src/`.
Each run repeats timed passes of the workload until `--seconds` of passes are
measured (at least two, so every run also checks that a pass reproduces byte
for byte).  Set-up is a fresh interpreter importing blockca, plus building
the seeded inputs, each timed nine times.  With
`--trace 1` untraced and traced passes alternate and the per-layer metrics
come from the traced ones.  Every output is checked against the exact
automaton outside the timed section.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# One BLAS thread, before numpy loads: with two threads on a shared two-CPU
# machine the deconv weight-gradient GEMM was measured 300x slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rule-learning", "commute", "exact-algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockca" / "__init__.py").is_file():
        print(f"bench: no blockca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blockca
    if Path(blockca.__file__).resolve().parent != SRC / "blockca":
        print(f"bench: imported blockca from {blockca.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), OUT_DIR)
    print("env " + json.dumps(result.env, sort_keys=True))
    for name, (value, unit) in result.report.items():
        print(f"report {name} {value!r} {unit}")
    print("setup_s " + " ".join(f"{t:.6f}" for t in result.setup_s))
    for i, (traced, wall) in enumerate(result.passes, 1):
        print(f"pass {i} {'traced' if traced else 'plain'} {wall:.6f} s")
    for failure in result.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
