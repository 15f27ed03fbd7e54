"""Mini-batch training loop with per-epoch held-out metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.layers import Network
from ..nn.loss import bce_loss
from ..nn.optim import NetworkOptimizer, OptimizerConfig
from .data import Dataset
from .rollout import TrainingDiverged, predict_grids

DEFAULT_GRID_SIZE = 16
DEFAULT_TRAIN_COUNT = 8000
DEFAULT_TEST_COUNT = 1000
DEFAULT_DENSITY = 0.5

HISTORY_CSV_HEADER = "epoch,train_loss,test_loss,cell_accuracy,exact_grid_rate"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    bypass_endpoints: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EvalResult:
    cell_accuracy: float
    exact_grid_rate: float
    mean_loss: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float
    cell_accuracy: float
    exact_grid_rate: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> EpochRecord:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1]

    def to_csv(self) -> str:
        lines = [HISTORY_CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.train_loss:.9g},{r.test_loss:.9g},"
                         f"{r.cell_accuracy:.9g},{r.exact_grid_rate:.9g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "TrainHistory":
        lines = text.strip().splitlines()
        if not lines or lines[0] != HISTORY_CSV_HEADER:
            raise ValueError("bad history CSV header")
        records = []
        for line in lines[1:]:
            e, tr, te, acc, ex = line.split(",")
            records.append(EpochRecord(int(e), float(tr), float(te),
                                       float(acc), float(ex)))
        return TrainHistory(records)


def evaluate_tensors(model, grids: np.ndarray, targets: np.ndarray,
                     chunk: int = 1024) -> EvalResult:
    """Thresholded-at-0.5 cell accuracy, exact-grid rate and mean loss of a
    grid map (see predict_grids) on (count, n, n) grids against targets.

    A non-finite prediction raises TrainingDiverged (see predict_grids).
    """
    if grids.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    cells_right = 0
    grids_right = 0
    loss_sum = 0.0
    for lo in range(0, grids.shape[0], chunk):
        xs, ts = grids[lo:lo + chunk], targets[lo:lo + chunk]
        pred = predict_grids(model, xs)
        loss, _ = bce_loss(pred, ts.astype(np.float64))
        loss_sum += loss * xs.shape[0]
        match = (pred >= 0.5) == ts
        cells_right += int(match.sum())
        grids_right += int(match.all(axis=(1, 2)).sum())
    return EvalResult(cell_accuracy=cells_right / targets.size,
                      exact_grid_rate=grids_right / grids.shape[0],
                      mean_loss=loss_sum / grids.shape[0])


def evaluate(model, dataset: Dataset) -> EvalResult:
    return evaluate_tensors(model, dataset.inputs, dataset.targets)


def split_holdout(count: int, holdout_fraction: float) -> int:
    """Number of trailing samples reserved for evaluation."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie strictly in (0, 1)")
    n_test = int(round(count * holdout_fraction))
    if n_test < 1 or n_test >= count:
        raise ValueError(f"holdout fraction {holdout_fraction} leaves no "
                         f"usable split of {count} samples")
    return n_test


def fit(net: Network, pairs, n_train: int, n_test: int, config: TrainConfig,
        rng: np.random.Generator) -> TrainHistory:
    """Minibatch BCE training of `net` in place; returns per-epoch history.

    `pairs(indices)` returns the (inputs, targets) (count, n, n) grid stacks
    of those sample indices.  Indices below `n_train` are trained on, in an
    order `rng` shuffles each epoch; the next `n_test` are held out and
    scored by evaluate_tensors after each epoch's last optimizer step.
    """
    history = TrainHistory()
    optimizer = NetworkOptimizer(config.optimizer, net)
    held_out = np.arange(n_train, n_train + n_test)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x, t = pairs(idx)
            pred, caches = net.forward(x[:, None].astype(np.float64))
            loss, dpred = bce_loss(pred, t[:, None].astype(np.float64))
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            net.backward(dpred, caches)
            optimizer.step()
            loss_sum += loss * idx.size
        # A module-global call: bench/workloads.py's Gate replaces
        # evaluate_tensors here to end training at a held-out gate.
        test = evaluate_tensors(net, *pairs(held_out))
        history.records.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n_train,
            test_loss=test.mean_loss,
            cell_accuracy=test.cell_accuracy,
            exact_grid_rate=test.exact_grid_rate,
        ))
    return history


def train(model: Network, dataset: Dataset, config: TrainConfig,
          holdout_fraction: float) -> tuple[TrainHistory, Network]:
    """Train in place; returns per-epoch history and the same network.

    The trailing `holdout_fraction` of the dataset is never trained on and
    supplies the per-epoch test metrics.  Identical seeds and configs give
    bit-identical histories.
    """
    if len(dataset) < 10:
        raise ValueError("dataset must hold at least 10 pairs")
    n_test = split_holdout(len(dataset), holdout_fraction)

    def pairs(indices):
        return dataset.inputs[indices], dataset.targets[indices]

    history = fit(model, pairs, len(dataset) - n_test, n_test, config,
                  np.random.default_rng(config.seed))
    return history, model
