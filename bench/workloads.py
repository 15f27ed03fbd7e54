"""The benchmark's three workloads, driven through blockca's public API.

Each workload builds its inputs from the benchmark seed in `prepare()`, runs
one timed pass in `run_pass()`, and checks that pass's outputs against the
exact automaton in `check()`, outside the timed section.  A pass records its
stages (contiguous laps that add up to its wall time), so the harness can
compare the same stage across the passes of a run.

Model initialisation and shuffle seeds are pinned to the acceptance suite's
values; the benchmark seed chooses the data (grids), so every seed trains
the same networks on different samples of the same distribution.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np

from blockca import ca, learn, linops, nn
from blockca.ca import Direction, EdgeMode, Phase

TRAIN_MODULE = importlib.import_module("blockca.learn.train")
OPTIM_MODULE = importlib.import_module("blockca.nn.optim")

EXACT_GATE = 0.99

# name: (direction, phase, edge, bypass, model seed, shuffle seed)
TASKS = {
    "fwd-aligned": (Direction.FORWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                    False, 202, 303),
    "fwd-offset-torus": (Direction.FORWARD, Phase.OFFSET, EdgeMode.TORUS_WRAP,
                         False, 212, 313),
    "fwd-offset-pad": (Direction.FORWARD, Phase.OFFSET,
                       EdgeMode.ZERO_PAD_CROP, False, 222, 323),
    "bwd-aligned": (Direction.BACKWARD, Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                    False, 232, 333),
    "fwd-aligned-bypass": (Direction.FORWARD, Phase.ALIGNED,
                           EdgeMode.TORUS_WRAP, True, 242, 343),
}
ROLLOUT_PAIR = ("fwd-aligned", "fwd-offset-torus")
COMMUTE_INIT_SEEDS = (1001, 2002)
COMMUTE_HOLDOUT = 0.1


@dataclass(frozen=True)
class Sizes:
    n: int = 16
    pairs: int = 9000
    holdout: float = 1 / 9
    batch: int = 32
    epoch_cap: int = 20
    rollout_grids: int = 100
    rollout_steps: int = 10
    commute_count: int = 4000
    commute_epochs: int = 1
    verify_trials: int = 100
    operator_n: int = 32
    operator_grids: int = 8
    witness_grids: int = 1000


FULL = Sizes()


class Checks:
    """Tally of output checks; each failed check names what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Laps:
    """Contiguous timed laps of one pass.

    A lap runs from one named boundary to the next.  `stages` keys each lap
    by its own boundary and the boundaries before and after it, so laps that
    share a key do the same work: the middle optimizer steps of one task,
    its middle dataset chunks, the middle rollouts of a pass.  The first and
    last step of an epoch (the shuffle, a partial minibatch) get keys of
    their own."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self._laps: list[tuple[str, float, bool]] = []

    def lap(self, boundary: str, main: bool = False) -> float:
        now = time.perf_counter()
        self._laps.append((boundary, now - self.last, main))
        self.last = now
        return now

    @property
    def wall_s(self) -> float:
        return self.last - self.start

    @property
    def stages(self) -> list[tuple[str, float, bool]]:
        """(key, seconds, main stage?) per lap, in order."""
        names = ["start"] + [b for b, _, _ in self._laps] + ["end"]
        return [(f"{names[i]}>{b}>{names[i + 2]}", seconds, main)
                for i, (b, seconds, main) in enumerate(self._laps)]


@contextlib.contextmanager
def step_laps(laps: Laps, boundary: str):
    """Lap `boundary` at the end of every optimizer step.

    learn.train and commute_experiment take one optimizer step per
    minibatch of the configured batch size, so every step of one training
    run is the same work.  Machine speed on a shared host changes within
    tens of milliseconds; the fastest of a few thousand steps reads far more
    steadily from run to run than the fastest of a few epochs."""
    cls = OPTIM_MODULE.NetworkOptimizer
    original = cls.step

    def step(self):
        original(self)
        laps.lap(boundary, main=True)
    cls.step = step
    try:
        yield
    finally:
        cls.step = original


@dataclass
class PassResult:
    wall_s: float
    grids: int          # grids through the pass's main stage
    stages: list        # Laps.stages
    report: dict        # workload-specific timings and counts
    outputs: object     # what check() inspects
    digest: str = ""


class GateReached(Exception):
    """Raised from the evaluation hook to end training at the gate."""


class Gate:
    """Ends learn.train after the first epoch whose held-out exact-grid rate
    meets the gate, lapping `boundary` at the end of each epoch's
    evaluation and recording its end time and result.

    It hooks evaluate_tensors at the name learn.train calls, which train
    invokes once per epoch after the epoch's last optimizer step.
    """

    def __init__(self, threshold: float, laps: Laps, boundary: str):
        self.threshold = threshold
        self.laps = laps
        self.boundary = boundary
        self.epochs: list[tuple[float, object]] = []
        self.reached = False

    def __enter__(self):
        self._original = TRAIN_MODULE.evaluate_tensors
        original = self._original

        def evaluate_at_gate(*args, **kwargs):
            result = original(*args, **kwargs)
            end = self.laps.lap(self.boundary, main=True)
            self.epochs.append((end, result))
            if result.exact_grid_rate >= self.threshold:
                self.reached = True
                raise GateReached
            return result
        TRAIN_MODULE.evaluate_tensors = evaluate_at_gate
        return self

    def __exit__(self, exc_type, exc, tb):
        TRAIN_MODULE.evaluate_tensors = self._original
        return exc_type is GateReached

    def history(self) -> str:
        return "".join(f"{i + 1},{r.mean_loss:.9g},{r.cell_accuracy:.9g},"
                       f"{r.exact_grid_rate:.9g}\n"
                       for i, (_, r) in enumerate(self.epochs))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _params_bytes(net) -> bytes:
    return b"".join(np.ascontiguousarray(p).tobytes()
                    for p, _ in net.parameters())


WARM_UP_STEPS = 300


def warm_up() -> None:
    """A fixed amount of simulator, operator and training work, run once
    before the first timed pass and never measured.  Without it the first
    pass of a process ran 10-15% slower than later ones."""
    rng = np.random.default_rng(0)
    grid = ca.random_grid(16, 0.5, rng)
    linops.operator_is_invertible(linops.build_full_step_operator(grid))
    net = learn.build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=0)
    x = rng.random((32, 1, 16, 16))
    for _ in range(WARM_UP_STEPS):
        ca.step(grid)
        pred, caches = net.forward(x)
        net.backward(pred, caches)


def _aligned_reference(grid: np.ndarray) -> np.ndarray:
    """Aligned half-step on a torus through the GF(2) operator of the grid,
    without calling blockca.ca's block tables."""
    op = linops.build_phase_operator(grid)
    image = linops.apply_operator(op, linops.vectorize_zigzag(grid))
    return linops.devectorize_zigzag(image, grid.shape[0])


def reference_pair_ok(x: np.ndarray, target: np.ndarray, direction: Direction,
                      phase: Phase, edge: EdgeMode) -> bool:
    """Whether `target` is the exact half-step image of `x` (or, backward,
    its preimage), by the GF(2) operator rather than ca.step."""
    if direction is Direction.BACKWARD:
        x, target = target, x
    if phase is Phase.ALIGNED:
        image = _aligned_reference(x)
    elif edge is EdgeMode.TORUS_WRAP:
        # On an even torus a one-cell diagonal shift turns the offset
        # partition into the aligned one.
        image = np.roll(_aligned_reference(np.roll(x, 1, (0, 1))), -1, (0, 1))
    else:
        image = _aligned_reference(np.pad(x, 1))[1:-1, 1:-1]
    return np.array_equal(image, target)


REFERENCE_SAMPLE = 100
DATASET_CHUNK = 300


def _holdout_count(count: int, fraction: float) -> int:
    return TRAIN_MODULE.split_holdout(count, fraction)


class RuleLearning:
    """The five supervised tasks, each trained to the exactness gate, then a
    rollout of the trained aligned/offset pair."""

    name = "rule-learning"

    def __init__(self, seed: int, sizes: Sizes, tmp_dir):
        self.seed = seed
        self.sizes = sizes
        self.tmp_dir = tmp_dir

    def data_seed(self, index: int) -> int:
        return 1000 * self.seed + index

    def prepare(self) -> None:
        rng = np.random.default_rng(self.data_seed(100))
        self.rollout_grids = [ca.random_grid(self.sizes.n, 0.5, rng)
                              for _ in range(self.sizes.rollout_grids)]

    def generate(self, index: int, name: str, laps: Laps):
        """Task `name`'s dataset, generated in chunks of DATASET_CHUNK pairs
        with one lap each, so that generation, like training, is timed in
        many laps of equal work."""
        s = self.sizes
        direction, phase, edge = TASKS[name][:3]
        inputs, targets = [], []
        for chunk, lo in enumerate(range(0, s.pairs, DATASET_CHUNK)):
            part = learn.generate_dataset(
                s.n, min(DATASET_CHUNK, s.pairs - lo), direction, phase, edge,
                seed=100 * self.data_seed(index) + chunk)
            inputs.append(part.inputs)
            targets.append(part.targets)
            laps.lap(f"{name}.generate")
        return learn.Dataset(np.concatenate(inputs), np.concatenate(targets),
                             s.n, direction, phase, edge,
                             seed=self.data_seed(index))

    def run_pass(self) -> PassResult:
        s = self.sizes
        n_train = s.pairs - _holdout_count(s.pairs, s.holdout)
        tasks = {}
        time_to_exact = train_s = 0.0
        epochs = 0
        laps = Laps()
        for index, (name, spec) in enumerate(TASKS.items()):
            _, phase, edge, bypass, model_seed, shuffle_seed = spec
            t0 = laps.last
            dataset = self.generate(index, name, laps)
            net = learn.build_model(phase, edge, bypass_endpoints=bypass,
                                    seed=model_seed)
            config = learn.TrainConfig(epochs=s.epoch_cap,
                                       batch_size=s.batch, seed=shuffle_seed,
                                       bypass_endpoints=bypass)
            t1 = time.perf_counter()
            with Gate(EXACT_GATE, laps, f"{name}.evaluate") as gate, \
                    step_laps(laps, f"{name}.step"):
                learn.train(net, dataset, config, holdout_fraction=s.holdout)
            t2 = time.perf_counter()
            path = os.path.join(self.tmp_dir, f"{name}.ckpt")
            nn.save_network(net, path)
            loaded = nn.load_network(path)
            laps.lap(f"{name}.checkpoint")
            time_to_exact += (gate.epochs[-1][0] if gate.reached else t2) - t0
            train_s += t2 - t1
            epochs += len(gate.epochs)
            tasks[name] = (dataset, net, loaded, gate, path)
        t3 = laps.last
        aligned, offset = (tasks[k][2] for k in ROLLOUT_PAIR)
        rollouts = []
        for g in self.rollout_grids:
            rollouts.append(learn.rollout(aligned, offset, g, s.rollout_steps))
            end = laps.lap("rollout")
        frames = len(rollouts) * s.rollout_steps
        return PassResult(
            wall_s=laps.wall_s, grids=epochs * n_train, stages=laps.stages,
            report={"time_to_exact_s": (time_to_exact, "s"),
                    "epochs_to_exact": (epochs, "count"),
                    "train_samples_per_s": (epochs * n_train / train_s, "1/s"),
                    "rollout_frames_per_s": (frames / (end - t3), "1/s")},
            outputs=(tasks, rollouts))

    def check(self, result: PassResult, checks: Checks, first: bool) -> None:
        tasks, rollouts = result.outputs
        parts = []
        for index, (name, (dataset, net, loaded, gate, path)) in \
                enumerate(tasks.items()):
            if first:
                step = ca.step if dataset.direction is Direction.FORWARD \
                    else ca.inverse_step
                checks.check(f"{name}: dataset targets", all(
                    np.array_equal(step(x, dataset.phase, dataset.edge), t)
                    for x, t in zip(dataset.inputs, dataset.targets)))
                # generate_dataset computes its targets with ca.step itself,
                # so a sample is also checked against the GF(2) operator.
                sample = np.random.default_rng(self.data_seed(
                    200 + index)).choice(len(dataset), REFERENCE_SAMPLE)
                checks.check(f"{name}: dataset targets against the GF(2) "
                             "operator", all(reference_pair_ok(
                                 dataset.inputs[i], dataset.targets[i],
                                 dataset.direction, dataset.phase,
                                 dataset.edge) for i in sample))
            n_test = _holdout_count(len(dataset), self.sizes.holdout)
            held = learn.apply_model_binary(loaded, dataset.inputs[-n_test:])
            exact = (held == dataset.targets[-n_test:]).all(axis=(1, 2)).mean()
            checks.check(f"{name}: held-out exactness at the gate",
                         gate.reached and exact >= EXACT_GATE)
            checks.check(f"{name}: checkpoint round trip",
                         _params_bytes(net) == _params_bytes(loaded))
            with open(path, "rb") as f:
                parts += [name, gate.history(), f.read()]
        ok = True
        for g, (trajectory, divergence) in zip(self.rollout_grids, rollouts):
            exact = ca.evolve(g, self.sizes.rollout_steps)
            wrong = [k for k in range(1, len(exact))
                     if not np.array_equal(trajectory[k], exact[k])]
            ok &= divergence == (wrong[0] if wrong else len(exact))
            parts += [np.stack(trajectory), divergence]
        checks.check("rollout divergence against ca.evolve", ok)
        result.digest = _digest(*parts)


class Commute:
    """commute_experiment from two init seeds, then the non-uniqueness
    certificate over the exact commuters and both trained networks."""

    name = "commute"

    def __init__(self, seed: int, sizes: Sizes, tmp_dir):
        self.seed = seed
        self.sizes = sizes

    def prepare(self) -> None:
        rng = np.random.default_rng(1000 * self.seed + 200)
        self.check_grids = np.stack([ca.random_grid(self.sizes.n, 0.5, rng)
                                     for _ in range(REFERENCE_SAMPLE)])

    def run_pass(self) -> PassResult:
        s = self.sizes
        n_train = s.commute_count - _holdout_count(s.commute_count,
                                                   COMMUTE_HOLDOUT)
        laps = Laps()
        evolution = learn.exact_phase_step(Phase.ALIGNED)

        def evolution_lap(grids):
            # The frozen evolution runs twice per training step and twice
            # per evaluation; a lap per call, named by its batch size,
            # splits a step into laps of a few milliseconds.
            out = evolution(grids)
            laps.lap(f"commute.evolution-{len(grids)}", main=True)
            return out
        runs = []
        for j, init_seed in enumerate(COMMUTE_INIT_SEEDS):
            config = learn.TrainConfig(epochs=s.commute_epochs,
                                       batch_size=s.batch,
                                       seed=1000 * self.seed + j)
            # Both experiments train the same architecture on the same
            # shapes, so their optimizer steps share one lap key.
            with step_laps(laps, "commute.step"):
                runs.append(learn.commute_experiment(
                    evolution_lap, init_seed, config, n=s.n,
                    count=s.commute_count, holdout_fraction=COMMUTE_HOLDOUT))
            laps.lap(f"experiment-{init_seed}", main=True)
        candidates = [
            ("identity", lambda g: g),
            ("evolution", lambda g: ca.step(g, Phase.ALIGNED)),
            ("evolution-squared",
             lambda g: ca.step(ca.step(g, Phase.ALIGNED), Phase.ALIGNED)),
        ] + [(f"trained-{seed}", net)
             for seed, (_, net) in zip(COMMUTE_INIT_SEEDS, runs)]
        report = learn.verify_commuting_solutions(
            candidates, s.verify_trials, seed=1000 * self.seed + 300,
            evolution=evolution, n=s.n)
        laps.lap("verify")
        samples = len(runs) * s.commute_epochs * n_train
        train_s = sum(t for _, t, main in laps.stages if main)
        return PassResult(
            wall_s=laps.wall_s, grids=samples, stages=laps.stages,
            report={"train_samples_per_s": (samples / train_s, "1/s")},
            outputs=(evolution, runs, report))

    def check(self, result: PassResult, checks: Checks, first: bool) -> None:
        evolution, runs, report = result.outputs
        # The frozen evolution the networks trained against, by the GF(2)
        # operator; a traced pass hands back a tracing wrapper around it.
        expected = np.stack([_aligned_reference(g) for g in self.check_grids])
        checks.check("evolution map against the GF(2) operator",
                     np.array_equal(inspect.unwrap(evolution)(
                         self.check_grids), expected))
        checks.check("commute certificate", report.certified)
        exact = {r.name: r.commutes for r in report.results[:3]}
        checks.check("exact maps commute", all(exact.values()))
        result.digest = _digest(
            *[h.to_csv() for h, _ in runs],
            *[_params_bytes(net) for _, net in runs], report.summary())


class ExactAlgebra:
    """GF(2) operator checks on 32x32 grids and the lowering witnesses on
    16x16 grids for seeded, untrained aligned/offset networks."""

    name = "exact-algebra"

    def __init__(self, seed: int, sizes: Sizes, tmp_dir):
        self.seed = seed
        self.sizes = sizes

    def prepare(self) -> None:
        s = self.sizes
        rng = np.random.default_rng(1000 * self.seed + 400)
        self.operator_grids = [ca.random_grid(s.operator_n, 0.5, rng)
                               for _ in range(s.operator_grids)]
        self.witness_grids = np.stack([ca.random_grid(s.n, 0.5, rng)
                                       for _ in range(s.witness_grids)])
        self.net_aligned = learn.build_model(
            Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1000 * self.seed + 500)
        self.net_offset = learn.build_model(
            Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=1000 * self.seed + 501)

    def run_pass(self) -> PassResult:
        laps = Laps()
        operators = []
        for i, g in enumerate(self.operator_grids):
            op = linops.build_full_step_operator(g)
            image = linops.apply_operator(op, linops.vectorize_zigzag(g))
            operators.append((op, image, linops.operator_is_invertible(op)))
            laps.lap(f"operator-{i}", main=True)
        t1 = laps.last
        single = learn.single_step_witness(self.net_aligned,
                                           self.witness_grids)
        laps.lap("single-step-witness")
        two, margin = learn.two_step_witness(self.net_aligned,
                                             self.net_offset,
                                             self.witness_grids)
        end = laps.lap("two-step-witness")
        return PassResult(
            wall_s=laps.wall_s, grids=len(operators), stages=laps.stages,
            report={"operator_checks_per_s": (len(operators)
                                              / (t1 - laps.start), "1/s"),
                    "witness_grids_per_s": (2 * len(self.witness_grids)
                                            / (end - t1), "1/s")},
            outputs=(operators, single, two, margin))

    def check(self, result: PassResult, checks: Checks, first: bool) -> None:
        operators, single, two, margin = result.outputs
        n = self.sizes.operator_n
        for g, (op, image, invertible) in zip(self.operator_grids, operators):
            checks.check("operator image against ca.evolve", np.array_equal(
                linops.devectorize_zigzag(image, n), ca.evolve(g, 2)[2]))
            checks.check("operator invertible", invertible)
        first_half = learn.apply_model_binary(self.net_aligned,
                                              self.witness_grids)
        checks.check("single-step witness against the network",
                     np.array_equal(single, first_half))
        checks.check("two-step witness against the networks", np.array_equal(
            two, learn.apply_model_binary(self.net_offset, first_half)))
        result.digest = _digest(
            *[(op.rows, op.bias) for op, _, _ in operators], single, two,
            margin)


WORKLOADS = {w.name: w for w in (RuleLearning, Commute, ExactAlgebra)}
