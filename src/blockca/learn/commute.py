"""Searching for maps that commute with the evolution rule.

A candidate network N is trained so that N applied after the fixed
evolution B matches B applied after N.  Labels come from the frozen branch
B(N(x)) with N's output thresholded to a grid before B, so gradients flow
only through the N(B(x)) branch.  N(x) is read from the 16-code table that
the training step takes its loss on (see train.fit), so each step runs N's
core once.

The minimizer of this objective is wildly non-unique: the identity, B
itself, every power of B, and every constant map onto a fixed point of B
commute exactly.  verify_commuting_solutions certifies the non-uniqueness
directly; training from random init never identifies the rule and instead
drifts, seed-dependently, toward one of the degenerate minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ca import (Direction, EdgeMode, Phase, apply_rule, phase_at,
                  random_grids, step)
from .data import rule_map
from .models import block_form, build_model
from .rollout import rule_of, tabulate
from .train import TrainConfig, block_keys, fit, split_holdout


def exact_phase_step(phase: Phase):
    """Grid map applying one exact half-step on the torus to (count, n, n)
    grids: data.rule_map of the forward step."""
    return rule_map(Direction.FORWARD, phase, EdgeMode.TORUS_WRAP)


def exact_full_step(grids: np.ndarray) -> np.ndarray:
    """One exact full step per grid: aligned then offset on the torus."""
    return step(step(grids, phase_at(0)), phase_at(1))


def commute_experiment(evolution, init_seed: int, config: TrainConfig,
                       n: int = 16, count: int = 5000,
                       holdout_fraction: float = 0.1):
    """Train a fresh network toward commutativity with a frozen evolution.

    Returns (history, network).  The per-epoch metrics measure how well the
    thresholded N(B(x)) matches the moving label B(threshold(N(x))) on a
    held-out pool of grids.  The labels move as the network trains, so
    the block keys of each minibatch and of the pool are packed on every
    read: N(x) is the rule of the table fit hands to keys (see
    rollout.rule_of) applied to the blocks of x.
    """
    rng = np.random.default_rng(config.seed)
    grids = random_grids(count, n, 0.5, rng)
    n_test = split_holdout(count, holdout_fraction)
    net = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                      bypass_endpoints=config.bypass_endpoints, seed=init_seed)

    partition = block_form(net)[0]

    def keys(indices, table):
        x = grids[indices]
        return block_keys(partition, evolution(x), evolution(
            apply_rule(x, *partition, rule_of(table))))

    return fit(net, keys, count - n_test, n_test, config, rng), net


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
                               evolution, n: int = 16) -> CommuteReport:
    """Check N(B(x)) == B(N(x)) exactly on random grids for each candidate.

    `candidates` is a list of (name, map) pairs where a map is a Network or
    a callable grid map on (count, n, n) stacks (see tabulate); `evolution`
    is a callable grid map.  Distinctness between commuting candidates is
    decided extensionally from their outputs on the sampled grids.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grids = random_grids(trials, n, 0.5, seed)

    report = CommuteReport()
    outputs = {}
    for name, candidate in candidates:
        table = tabulate(candidate)
        out = table.binary(grids)
        lhs = table.binary(evolution(grids))
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
