"""Searching for maps that commute with the evolution rule.

A candidate network N is trained so that N applied after the fixed
evolution B matches B applied after N.  Labels come from the frozen branch
B(N(x)) with N's output thresholded to a grid before B, so gradients flow
only through the N(B(x)) branch.

The minimizer of this objective is wildly non-unique: the identity, B
itself, every power of B, and every constant map onto a fixed point of B
commute exactly.  verify_commuting_solutions certifies the non-uniqueness
directly; training from random init never identifies the rule and instead
drifts, seed-dependently, toward one of the degenerate minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ca import EdgeMode, Phase, phase_at, random_grid, random_grids, step
from ..nn.loss import bce_loss
from ..nn.optim import NetworkOptimizer
from .models import build_model
from .rollout import apply_model_binary, predict_grids
from .train import EpochRecord, TrainConfig, TrainHistory, TrainingDiverged, split_holdout


def exact_phase_step(phase: Phase, edge: EdgeMode = EdgeMode.TORUS_WRAP):
    """Grid map applying one exact half-step to (count, n, n) grids."""
    def fn(grids: np.ndarray) -> np.ndarray:
        return step(grids, phase, edge)
    return fn


def exact_full_step(grids: np.ndarray) -> np.ndarray:
    """One exact full step per grid: aligned then offset on the torus."""
    return step(step(grids, phase_at(0)), phase_at(1))


def commute_loss(candidate, evolution, grids: np.ndarray) -> float:
    """BCE between N(B(x)) and the frozen label B(threshold(N(x)))."""
    n_of_b = predict_grids(candidate, evolution(grids))
    b_of_n = evolution(apply_model_binary(candidate, grids))
    loss, _ = bce_loss(n_of_b[:, None], b_of_n[:, None].astype(np.float64))
    return loss


def commute_experiment(evolution, init_seed: int, config: TrainConfig,
                       n: int = 16, count: int = 5000,
                       holdout_fraction: float = 0.1,
                       density: float = 0.5):
    """Train a fresh network toward commutativity with a frozen evolution.

    Returns (history, network).  The per-epoch metrics measure how well the
    thresholded N(B(x)) matches the moving label B(threshold(N(x))) on a
    held-out pool of grids.
    """
    rng = np.random.default_rng(config.seed)
    grids = np.stack([random_grid(n, density, rng) for _ in range(count)])
    n_test = split_holdout(count, holdout_fraction)
    train_grids, test_grids = grids[:-n_test], grids[-n_test:]

    net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                      bypass_endpoints=config.bypass_endpoints, seed=init_seed)
    optimizer = NetworkOptimizer(config.optimizer, net)
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_grids.shape[0])
        loss_sum = 0.0
        for lo in range(0, train_grids.shape[0], config.batch_size):
            x = train_grids[order[lo:lo + config.batch_size]]
            b_x = evolution(x)
            n_x = apply_model_binary(net, x)
            label = evolution(n_x)[:, None].astype(np.float64)
            pred, caches = net.forward(b_x[:, None].astype(np.float64))
            loss, dpred = bce_loss(pred, label)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite commute loss at epoch {epoch}")
            net.backward(dpred, caches)
            optimizer.step()
            loss_sum += loss * x.shape[0]

        b_t = evolution(test_grids)
        pred_t = net.predict(b_t[:, None].astype(np.float64))
        label_t = evolution(apply_model_binary(net, test_grids))
        label_f = label_t[:, None].astype(np.float64)
        test_loss, _ = bce_loss(pred_t, label_f)
        hard = (pred_t >= 0.5).astype(np.float64)
        match = hard == label_f
        history.records.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / train_grids.shape[0],
            test_loss=test_loss,
            cell_accuracy=float(match.mean()),
            exact_grid_rate=float(match.all(axis=(1, 2, 3)).mean()),
        ))
    return history, net


@dataclass(frozen=True)
class CandidateResult:
    name: str
    trials: int
    passes: int

    @property
    def commutes(self) -> bool:
        return self.passes == self.trials


@dataclass
class CommuteReport:
    results: list[CandidateResult] = field(default_factory=list)
    distinct_commuters: list[str] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """True when at least two extensionally distinct maps commute."""
        return len(self.distinct_commuters) >= 2

    def summary(self) -> str:
        lines = []
        for r in self.results:
            verdict = "commutes" if r.commutes else "fails"
            lines.append(f"{r.name}: {r.passes}/{r.trials} {verdict}")
        lines.append("distinct exact commuters: "
                     f"{len(self.distinct_commuters)} "
                     f"({', '.join(self.distinct_commuters) or 'none'})")
        lines.append("non-uniqueness certified: "
                     + ("yes" if self.certified else "no"))
        return "\n".join(lines) + "\n"


def verify_commuting_solutions(candidates, trials: int, seed: int,
                               evolution=None, n: int = 16,
                               density: float = 0.5) -> CommuteReport:
    """Check N(B(x)) == B(N(x)) exactly on random grids for each candidate.

    `candidates` is a list of (name, map) pairs where a map is a Network or
    a callable grid map on (count, n, n) stacks (see predict_grids).
    `evolution` defaults to the exact aligned half-step.  Distinctness
    between commuting candidates is decided extensionally from their
    outputs on the sampled grids.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if evolution is None:
        evolution = exact_phase_step(Phase.ALIGNED)
    grids = random_grids(trials, n, density, seed)

    report = CommuteReport()
    outputs = {}
    for name, candidate in candidates:
        out = apply_model_binary(candidate, grids)
        lhs = apply_model_binary(candidate, evolution(grids))
        rhs = evolution(out)
        passes = int((lhs == rhs).all(axis=(1, 2)).sum())
        report.results.append(CandidateResult(name, trials, passes))
        outputs[name] = out

    for result in report.results:
        if not result.commutes:
            continue
        if any(np.array_equal(outputs[result.name], outputs[other])
               for other in report.distinct_commuters):
            continue
        report.distinct_commuters.append(result.name)
    return report
