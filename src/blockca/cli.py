"""Command-line front end: simulation, operator checks, training,
evaluation, rollout, gradient checking and the commutativity experiment.

Exit codes: 0 success, 2 input parse error, 3 invalid configuration,
4 numerical failure.  All randomness flows from explicit --seed flags and
outputs carry no timestamps, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .ca import (
    Direction,
    EdgeMode,
    GridFormatError,
    Phase,
    evolve,
    random_grid,
    random_grids,
    read_grid,
    write_trajectory,
    format_trajectory,
)
from .linops import (
    KernelSpec,
    apply_operator,
    build_full_step_operator,
    conv_to_matrix,
    deconv_to_matrix,
    format_operator,
    operator_is_invertible,
    vectorize_zigzag,
)
from .nn import (
    CheckpointFormatError,
    MarginNotFound,
    conv_forward,
    deconv_forward,
    grad_check,
    draw_input_with_margin,
    load_network,
    save_network,
)
from .nn.optim import OptimizerConfig
from .learn import (
    DEFAULT_DENSITY,
    DEFAULT_GRID_SIZE,
    DEFAULT_TEST_COUNT,
    DEFAULT_TRAIN_COUNT,
    TrainConfig,
    TrainingDiverged,
    build_model,
    commute_experiment,
    evaluate,
    exact_phase_step,
    generate_dataset,
    rollout,
    train,
    verify_commuting_solutions,
)
from .learn.data import verify_dataset

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

GRADCHECK_TOLERANCE = 1e-4
LOWER_TOLERANCE = 1e-10


def _phase(value: str) -> Phase:
    return Phase.ALIGNED if value == "aligned" else Phase.OFFSET


def _edge(value: str) -> EdgeMode:
    return EdgeMode.TORUS_WRAP if value == "torus" else EdgeMode.ZERO_PAD_CROP


def _direction(value: str) -> Direction:
    return Direction.FORWARD if value == "fwd" else Direction.BACKWARD


def _parse_random_spec(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise GridFormatError(f"--random expects n,density,seed, got {spec!r}")
    try:
        return int(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise GridFormatError(f"bad --random spec {spec!r}") from None


def _load_start_grid(args) -> np.ndarray:
    if args.grid is not None:
        return read_grid(args.grid)
    n, density, seed = _parse_random_spec(args.random)
    return random_grid(n, density, seed)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)


def write_manifest(path, entries: dict) -> None:
    lines = [f"{key}={entries[key]}" for key in sorted(entries)]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(algorithm=args.optimizer,
                           learning_rate=args.lr,
                           adam_beta1=args.adam_beta1,
                           adam_beta2=args.adam_beta2,
                           adam_epsilon=args.adam_epsilon)


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                       optimizer=_optimizer_config(args), seed=args.seed,
                       bypass_endpoints=getattr(args, "bypass", False))


def _train_manifest(args, command: str) -> dict:
    return {
        "command": command,
        "n": args.n,
        "direction": getattr(args, "direction", "fwd"),
        "phase": getattr(args, "phase", "aligned"),
        "edge": getattr(args, "edge", "torus"),
        "bypass_endpoints": getattr(args, "bypass", False),
        "train_count": getattr(args, "train_count", 0),
        "test_count": getattr(args, "test_count", 0),
        "density": getattr(args, "density", DEFAULT_DENSITY),
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "optimizer": args.optimizer,
        "learning_rate": args.lr,
        "adam_beta1": args.adam_beta1,
        "adam_beta2": args.adam_beta2,
        "adam_epsilon": args.adam_epsilon,
        "seed": args.seed,
    }


def cmd_simulate(args) -> int:
    grid = _load_start_grid(args)
    trajectory = evolve(grid, args.steps, _edge(args.edge),
                        _direction(args.direction))
    _write_text(args.out, format_trajectory(trajectory))
    return EXIT_OK


def cmd_invert(args) -> int:
    grid = read_grid(args.grid)
    trajectory = evolve(grid, args.steps, EdgeMode.TORUS_WRAP,
                        Direction.BACKWARD)
    _write_text(args.out, format_trajectory(trajectory))
    return EXIT_OK


def cmd_operator_check(args) -> int:
    if args.n % 2 != 0 or args.n < 2:
        raise ValueError(f"--n must be even and >= 2, got {args.n}")
    if args.exhaustive:
        if args.n > 4:
            raise ValueError("--exhaustive is only tractable for n <= 4")
        # Bit k of code c is cell k (row-major) of grid c.
        cells = args.n * args.n
        codes = np.arange(2 ** cells)[:, None]
        grids = ((codes >> np.arange(cells)) & 1).astype(np.uint8)
        grids = grids.reshape(-1, args.n, args.n)
    else:
        grids = random_grids(args.trials, args.n, 0.5, args.seed)
    wants = evolve(grids, 2)[-1]
    failures = 0
    for index, g in enumerate(grids):
        op = build_full_step_operator(g)
        if index == 0 and args.dump:
            with open(args.dump, "w", encoding="ascii") as f:
                f.write(format_operator(op))
        got = apply_operator(op, vectorize_zigzag(g))
        want = vectorize_zigzag(wants[index])
        if not np.array_equal(got, want) or not operator_is_invertible(op):
            failures += 1
    print(f"operator-check: {len(grids) - failures}/{len(grids)} passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_lower_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    checked = 0

    def check(kernel, shape):
        nonlocal failures, checked
        checked += 1
        x = rng.normal(size=(1, *shape))
        mat, bias = conv_to_matrix(kernel, shape)
        conv_err = np.abs(mat @ x.ravel() + bias
                          - conv_forward(kernel, x).ravel()).max()
        small = conv_forward(kernel, x).shape[1:]
        y = rng.normal(size=(1, *small))
        zero_k = KernelSpec(kernel.out_channels, kernel.in_channels,
                            kernel.height, kernel.width, kernel.stride,
                            kernel.weights, np.zeros(kernel.out_channels))
        dmat, dbias = deconv_to_matrix(zero_k, small)
        deconv_err = np.abs(dmat @ y.ravel() + dbias
                            - deconv_forward(zero_k, y).ravel()).max()
        adjoint_err = abs(np.sum(conv_forward(zero_k, x) * y)
                          - np.sum(x * deconv_forward(zero_k, y)))
        if conv_err > LOWER_TOLERANCE or deconv_err > LOWER_TOLERANCE \
                or adjoint_err > 1e-8:
            failures += 1

    # Fixed case: 1x1 identity kernel is its own lowering.
    ident = KernelSpec(1, 1, 1, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1))
    check(ident, (1, 4, 4))
    for _ in range(args.trials):
        co, ci = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 2, 3]))
        s = int(rng.choice([1, 2]))
        h = k + s * int(rng.integers(1, 5))
        w = k + s * int(rng.integers(1, 5))
        kernel = KernelSpec(co, ci, k, k, s,
                            rng.normal(size=(co, ci, k, k)),
                            rng.normal(size=co))
        check(kernel, (ci, h, w))
    print(f"lower-check: {checked - failures}/{checked} passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_gen_data(args) -> int:
    ds = generate_dataset(args.n, args.count, _direction(args.direction),
                          _phase(args.phase), _edge(args.edge), args.seed,
                          args.density)
    if not verify_dataset(ds):
        raise TrainingDiverged("generated targets failed re-verification")
    write_trajectory(f"{args.out_prefix}.inputs.txt", ds.inputs)
    write_trajectory(f"{args.out_prefix}.targets.txt", ds.targets)
    write_manifest(f"{args.out_prefix}.manifest.txt", {
        "command": "gen-data", "n": args.n, "count": args.count,
        "direction": args.direction, "phase": args.phase, "edge": args.edge,
        "seed": args.seed, "density": args.density,
    })
    return EXIT_OK


def cmd_train(args) -> int:
    count = args.train_count + args.test_count
    ds = generate_dataset(args.n, count, _direction(args.direction),
                          _phase(args.phase), _edge(args.edge),
                          args.data_seed, args.density)
    net = build_model(_phase(args.phase), _edge(args.edge),
                      bypass_endpoints=args.bypass, seed=args.model_seed)
    history, net = train(net, ds, _train_config(args),
                         holdout_fraction=args.test_count / count)
    with open(args.out_csv, "w", encoding="ascii") as f:
        f.write(history.to_csv())
    if args.out_checkpoint:
        save_network(net, args.out_checkpoint)
    manifest = _train_manifest(args, "train")
    manifest.update(data_seed=args.data_seed, model_seed=args.model_seed)
    write_manifest(args.out_csv + ".manifest.txt", manifest)
    final = history.final
    print(f"train: epochs={len(history)} "
          f"final cell_accuracy={final.cell_accuracy:.9g} "
          f"exact_grid_rate={final.exact_grid_rate:.9g} "
          f"test_loss={final.test_loss:.9g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    net = load_network(args.checkpoint)
    ds = generate_dataset(args.n, args.count, _direction(args.direction),
                          _phase(args.phase), _edge(args.edge), args.seed,
                          args.density)
    result = evaluate(net, ds)
    report = (f"cell_accuracy={result.cell_accuracy:.9g}\n"
              f"exact_grid_rate={result.exact_grid_rate:.9g}\n"
              f"mean_loss={result.mean_loss:.9g}\n")
    _write_text(args.out, report)
    return EXIT_OK


def cmd_rollout(args) -> int:
    net_aligned = load_network(args.checkpoint_aligned)
    net_offset = load_network(args.checkpoint_offset)
    rng = np.random.default_rng(args.seed)
    divergences = []
    for _ in range(args.count):
        g = random_grid(args.n, args.density, rng)
        _, div = rollout(net_aligned, net_offset, g, args.steps)
        divergences.append(div)
    counts = {}
    for d in divergences:
        counts[d] = counts.get(d, 0) + 1
    lines = [f"steps={args.steps}", f"trials={args.count}",
             f"mean_divergence_step={np.mean(divergences):.9g}",
             f"exact_rollouts={counts.get(args.steps + 1, 0)}"]
    lines += [f"divergence_at_{k}={counts[k]}" for k in sorted(counts)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_commute(args) -> int:
    config = _train_config(args)
    evolution = exact_phase_step(Phase.ALIGNED)
    history, net = commute_experiment(evolution, args.model_seed,
                                      config, n=args.n, count=args.count,
                                      holdout_fraction=args.holdout)
    with open(args.out_csv, "w", encoding="ascii") as f:
        f.write(history.to_csv())
    if args.out_checkpoint:
        save_network(net, args.out_checkpoint)
    manifest = _train_manifest(args, "commute")
    manifest.update(count=args.count, holdout=args.holdout,
                    model_seed=args.model_seed,
                    verify_trials=args.verify_trials)
    write_manifest(args.out_csv + ".manifest.txt", manifest)
    print(f"commute: final loss={history.final.test_loss:.9g}")
    if args.verify_trials > 0:
        candidates = [
            ("identity", lambda g: g),
            ("evolution-itself", evolution),
            ("evolution-squared", lambda g: evolution(evolution(g))),
            ("trained-network", net),
        ]
        report = verify_commuting_solutions(candidates, args.verify_trials,
                                            args.seed + 1,
                                            evolution=evolution, n=args.n)
        sys.stdout.write(report.summary())
        if not report.certified:
            return EXIT_NUMERIC
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .ca import step as exact_step

    phase, edge = _phase(args.phase), _edge(args.edge)
    net = build_model(phase, edge, bypass_endpoints=args.bypass,
                      seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    x = draw_input_with_margin(net, (args.batch, 1, args.n, args.n), rng)
    target = exact_step((x[:, 0] >= 0.5).astype(np.uint8), phase,
                        edge)[:, None].astype(np.float64)
    err = grad_check(net, x, target)
    print(f"gradcheck: max relative error {err:.3e}")
    return EXIT_OK if err <= GRADCHECK_TOLERANCE else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockca",
        description="Reversible block cellular automaton toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_train_flags(p, default_epochs=50):
        p.add_argument("--epochs", type=int, default=default_epochs)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--adam-beta1", type=float, default=0.9)
        p.add_argument("--adam-beta2", type=float, default=0.999)
        p.add_argument("--adam-epsilon", type=float, default=1e-8)
        p.add_argument("--seed", type=int, default=0,
                       help="seed for shuffling and batching")

    p = sub.add_parser("simulate", help="run a trajectory")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--grid", help="grid text file")
    src.add_argument("--random", help="n,density,seed")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--edge", choices=["torus", "pad"], default="torus")
    p.add_argument("--direction", choices=["fwd", "bwd"], default="fwd")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("invert", help="run a trajectory backward (torus)")
    p.add_argument("--grid", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("operator-check",
                       help="full-step operator vs the simulator")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate every grid instead of sampling")
    p.add_argument("--dump", default=None,
                   help="write the first trial's operator in dump format")
    p.set_defaults(func=cmd_operator_check)

    p = sub.add_parser("lower-check",
                       help="conv/deconv matrix lowerings vs forward passes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lower_check)

    p = sub.add_parser("gen-data", help="write a dataset as grid text files")
    p.add_argument("--n", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--direction", choices=["fwd", "bwd"], default="fwd")
    p.add_argument("--phase", choices=["aligned", "offset"], default="aligned")
    p.add_argument("--edge", choices=["torus", "pad"], default="torus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a rule-learning network")
    p.add_argument("--n", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--train-count", type=int, default=DEFAULT_TRAIN_COUNT)
    p.add_argument("--test-count", type=int, default=DEFAULT_TEST_COUNT)
    p.add_argument("--direction", choices=["fwd", "bwd"], default="fwd")
    p.add_argument("--phase", choices=["aligned", "offset"], default="aligned")
    p.add_argument("--edge", choices=["torus", "pad"], default="torus")
    p.add_argument("--bypass", action="store_true",
                   help="identity activations on the first and last hidden layers")
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--model-seed", type=int, default=2)
    add_common_train_flags(p)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-checkpoint", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on fresh data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--count", type=int, default=DEFAULT_TEST_COUNT)
    p.add_argument("--direction", choices=["fwd", "bwd"], default="fwd")
    p.add_argument("--phase", choices=["aligned", "offset"], default="aligned")
    p.add_argument("--edge", choices=["torus", "pad"], default="torus")
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rollout",
                       help="iterate trained models against the exact rule")
    p.add_argument("--checkpoint-aligned", required=True)
    p.add_argument("--checkpoint-offset", required=True)
    p.add_argument("--n", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("commute",
                       help="train a network toward commutativity")
    p.add_argument("--n", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--count", type=int, default=4000)
    p.add_argument("--holdout", type=float, default=0.1)
    p.add_argument("--model-seed", type=int, default=2)
    p.add_argument("--verify-trials", type=int, default=100)
    add_common_train_flags(p, default_epochs=10)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-checkpoint", default=None)
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of backprop gradients")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--phase", choices=["aligned", "offset"], default="aligned")
    p.add_argument("--edge", choices=["torus", "pad"], default="torus")
    p.add_argument("--bypass", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GridFormatError, CheckpointFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (TrainingDiverged, MarginNotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
