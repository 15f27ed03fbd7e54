"""Mini-batch training loop with per-epoch held-out metrics.

Training runs in block-code space.  A build_model network maps every block
of its partition on its own, so the loss of a minibatch is a sum over the
16 block codes, weighted by how often each (code, cell, target bit) occurs.
Each sample is read as its row of 12-bit block keys (see block_keys), and
supervised training packs the keys of its whole dataset once, KEY_CHUNK
grids at a time.  Each step (see fit) runs the network's core forward once
on the 16 codes, as row stacks (see models.code_forward), instead of on
the whole batch; reads the keys of its minibatch, which may depend on that
forward's 16-code table (commute labels do); counts them and runs the
core's backward once (see models.code_backward).  Held-out evaluation
scores the same keys: the loss from the core's 16-code table, every bit
from its rule.  Dense backprop stays as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ca import ALL_BLOCKS, block_codes, to_frame, validate_grids
from ..nn.layers import Network
from ..nn.loss import counted_bce_loss
from ..nn.optim import NetworkOptimizer, OptimizerConfig
from .data import Dataset
from .models import block_form, code_backward, code_forward
from .rollout import BlockTable, TrainingDiverged, tabulate

DEFAULT_GRID_SIZE = 16
DEFAULT_TRAIN_COUNT = 8000
DEFAULT_TEST_COUNT = 1000
DEFAULT_DENSITY = 0.5

HISTORY_CSV_HEADER = "epoch,train_loss,test_loss,cell_accuracy,exact_grid_rate"


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; only commute_experiment reads bypass_endpoints."""

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


def evaluate_tensors(mapped: BlockTable, keys: np.ndarray) -> EvalResult:
    """Cell accuracy, exact-grid rate and mean loss of a grid map, given as
    its BlockTable (see rollout.tabulate), against the (count, blocks)
    block keys of its grids (see block_keys), packed in its partition from
    the grids it reads, as evaluate does.

    The (code, cell, target bit) counts of the keys give the loss from the
    float rows of `table` and the cell accuracy from the bits of `rule`,
    and a block is wrong where rule[input code] and the target code differ
    in a scored cell.
    """
    if len(keys) == 0:
        raise ValueError("cannot evaluate on an empty set")
    counts = key_counts(keys)
    cells = int(counts.sum())
    loss, _ = counted_bce_loss(mapped.table, counts[..., 1], counts[..., 0],
                               cells)
    hit = _CELL_BITS[mapped.rule]
    right = counts[..., 1][hit].sum() + counts[..., 0][~hit].sum()
    wrong = (mapped.rule[keys >> 8] ^ keys >> 4) & keys & 15
    exact = ~wrong.any(axis=1)
    return EvalResult(cell_accuracy=int(right) / cells,
                      exact_grid_rate=int(exact.sum()) / len(keys),
                      mean_loss=loss)


def evaluate(model, dataset: Dataset) -> EvalResult:
    """evaluate_tensors of tabulate(model) on a whole dataset."""
    mapped = tabulate(model)
    return evaluate_tensors(mapped, block_keys(
        mapped.partition, mapped.frame(dataset.inputs), dataset.targets))


# _CELL_BITS[c, k] is cell k (2 * row in block + column in block) of the
# block of code c.  _SCORES[(t, m), (k, b)] is 1 where a block whose target
# cells pack to code t and whose scored-cell mask packs to code m scores
# its cell k with target bit b.
_CELL_BITS = ALL_BLOCKS.reshape(16, 4).astype(bool)
_SCORES = (_CELL_BITS[None, :, :, None]
           * (_CELL_BITS[:, None, :, None] == np.arange(2))
           ).reshape(256, 8).astype(np.float64)


# Grids per chunk in block_keys, which bounds its work arrays however
# large the stack.
KEY_CHUNK = 1000


def block_keys(partition, inputs, targets) -> np.ndarray:
    """(count, blocks) 12-bit keys of the blocks of `partition` of two
    (count, n, n) grid stacks: input code << 8 | target code << 4 | mask
    code.  Both shapes are checked first; then each KEY_CHUNK grids of both
    stacks are checked by ca.validate_grids and packed.

    The mask code marks the cells of a block that ca.from_frame keeps; it
    depends only on the partition and the grid side, so it is taken once
    from an (n, n) ones grid in the partition's frame (see ca.to_frame).
    """
    if np.ndim(inputs) != 3:
        raise ValueError(f"expected a (count, n, n) grid stack, got shape "
                         f"{np.shape(inputs)}")
    if np.shape(targets) != np.shape(inputs):
        raise ValueError(f"target shape {np.shape(targets)} != grid shape "
                         f"{np.shape(inputs)}")
    mask = block_codes(to_frame(np.ones(np.shape(inputs)[1:], np.uint8),
                                *partition))
    keys = np.empty((len(inputs), *mask.shape), np.uint16)
    for lo in range(0, len(inputs), KEY_CHUNK):
        chunk = slice(lo, lo + KEY_CHUNK)
        frame = np.stack([validate_grids(inputs[chunk]),
                          validate_grids(targets[chunk])], axis=1)
        codes = block_codes(to_frame(frame, *partition)).astype(np.uint16)
        keys[chunk] = codes[:, 0] << 8 | codes[:, 1] << 4 | mask
    return keys.reshape(len(keys), -1)


def key_counts(keys: np.ndarray) -> np.ndarray:
    """(16, 4, 2) counts of (input code, cell in block, target bit) over the
    scored cells of the blocks `keys` (see block_keys); exact float64
    integers."""
    blocks = np.bincount(keys.ravel(), minlength=16 ** 3).reshape(16, 256)
    return (blocks @ _SCORES).reshape(16, 4, 2)


def split_holdout(count: int, holdout_fraction: float) -> int:
    """Number of trailing samples reserved for evaluation."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie strictly in (0, 1)")
    n_test = int(round(count * holdout_fraction))
    if n_test < 1 or n_test >= count:
        raise ValueError(f"holdout fraction {holdout_fraction} leaves no "
                         f"usable split of {count} samples")
    return n_test


def fit(net: Network, keys, n_train: int, n_test: int, config: TrainConfig,
        rng: np.random.Generator) -> TrainHistory:
    """Minibatch BCE training of `net` in place; returns per-epoch history.

    `net` must split by models.block_form, else ValueError is raised before
    any step.  `keys(indices, table)` returns the (count, blocks) block keys
    of those sample indices in the network's partition (see block_keys),
    given the network's current (16, 4) probability table.  Each minibatch
    takes one step: one forward of the core on the 16 block codes (see
    models.code_forward), whose table keys reads; counted_bce_loss of that
    table on the keys' counts (see key_counts); one backward of the core
    (see models.code_backward) and one optimizer step.  A non-finite logit
    raises TrainingDiverged before keys reads the table.  Indices below
    `n_train` are trained on, in an order `rng` shuffles each epoch; the
    next `n_test` are held out and scored by evaluate_tensors of one
    tabulate after each epoch's last optimizer step.
    """
    _, core = block_form(net)
    history = TrainHistory()
    optimizer = NetworkOptimizer(config.optimizer, net)
    held_out = np.arange(n_train, n_train + n_test)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            logits, probs, caches = code_forward(core)
            if not np.isfinite(logits).all():
                raise TrainingDiverged(f"non-finite prediction at epoch "
                                       f"{epoch}")
            counts = key_counts(keys(idx, probs))
            loss, grad = counted_bce_loss(probs, counts[..., 1],
                                          counts[..., 0], counts.sum())
            code_backward(core, grad, caches)
            optimizer.step()
            loss_sum += loss * idx.size
        mapped = tabulate(net)
        # A module-global call: bench/workloads.py's Gate replaces
        # evaluate_tensors here to end training at a held-out gate.
        test = evaluate_tensors(mapped, keys(held_out, mapped.table))
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

    The dataset's block keys are packed once, before the first step, so a
    network that does not split by models.block_form or a dataset that is
    not binary raises ValueError with the network unchanged.  The trailing
    `holdout_fraction` of the dataset is never trained on and supplies the
    per-epoch test metrics.  Identical seeds and configs give bit-identical
    histories.
    """
    if len(dataset) < 10:
        raise ValueError("dataset must hold at least 10 pairs")
    n_test = split_holdout(len(dataset), holdout_fraction)
    keys = block_keys(block_form(model)[0], dataset.inputs, dataset.targets)
    history = fit(model, lambda idx, _: keys[idx], len(dataset) - n_test,
                  n_test, config, np.random.default_rng(config.seed))
    return history, model
