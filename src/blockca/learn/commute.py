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

from ..ca import EdgeMode, Phase, phase_at, random_grids, step
from ..nn.loss import bce_loss
from .models import build_model
from .rollout import apply_model_binary, predict_grids
from .train import TrainConfig, fit, split_holdout


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
    grids = random_grids(count, n, density, rng)
    n_test = split_holdout(count, holdout_fraction)
    net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                      bypass_endpoints=config.bypass_endpoints, seed=init_seed)

    def pairs(indices):
        x = grids[indices]
        return evolution(x), evolution(apply_model_binary(net, x))

    return fit(net, pairs, count - n_test, n_test, config, rng), net


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
