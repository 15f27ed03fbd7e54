"""Plain SGD and bias-corrected Adam updates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str = "adam"
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        if self.algorithm not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.algorithm!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (math.isfinite(self.adam_epsilon) and self.adam_epsilon > 0):
            raise ValueError("adam_epsilon must be positive and finite")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in (0, 1)")


def init_optimizer_state(config: OptimizerConfig, params) -> dict:
    if config.algorithm == "sgd":
        return {}
    return {
        "step": 0,
        "m": [np.zeros_like(p) for p in params],
        "v": [np.zeros_like(p) for p in params],
    }


def optimizer_step(config: OptimizerConfig, params, grads, state: dict) -> dict:
    """Update parameter arrays in place; returns the (mutated) state."""
    if len(params) != len(grads):
        raise ValueError("params and grads differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != param {p.shape}")
    if config.algorithm == "sgd":
        for p, g in zip(params, grads):
            p -= config.learning_rate * g
        return state
    state["step"] += 1
    t = state["step"]
    b1, b2 = config.adam_beta1, config.adam_beta2
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return state


class NetworkOptimizer:
    """Binds an optimizer config to a network's parameter arrays.

    The parameters are updated as one flat vector: each step gathers the
    gradients into one vector, runs optimizer_step once on a zero vector of
    the parameters' total size, which leaves the update in it, and adds
    each parameter's slice of that update.  p + (-u) equals p - u bit for bit, so the parameters stay those
    of optimizer_step run on each array in place.
    """

    def __init__(self, config: OptimizerConfig, network):
        self.config = config
        self.network = network
        pairs = network.parameters()
        self._params = [p for p, _ in pairs]
        self._grads = [g for _, g in pairs]
        bounds = np.cumsum([0] + [p.size for p in self._params])
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self._grad = np.zeros(bounds[-1])
        self._delta = np.zeros(bounds[-1])
        self.state = init_optimizer_state(config, [self._delta])

    def step(self):
        for g, part in zip(self._grads, self._slices):
            self._grad[part] = g().ravel()
        self._delta[:] = 0.0
        self.state = optimizer_step(self.config, [self._delta], [self._grad],
                                    self.state)
        for p, part in zip(self._params, self._slices):
            p += self._delta[part].reshape(p.shape)
