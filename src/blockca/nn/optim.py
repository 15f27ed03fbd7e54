"""The network optimizer: plain SGD or bias-corrected Adam on a network's
flat parameter vector (see Network.theta)."""

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


class NetworkOptimizer:
    """Binds an optimizer config to a network's flat vectors.

    Each step subtracts the update u from the network's theta in place,
    computed from its grad g (SGD: lr * g; Adam: lr * m_hat / (sqrt(v_hat)
    + eps) from moments m and v).  Every operation is elementwise, so this
    is the per-array update of each parameter, bit for bit.
    """

    def __init__(self, config: OptimizerConfig, network):
        self.config = config
        self._theta, self._grad = network.theta, network.grad
        self._m = np.zeros_like(self._theta)
        self._v = np.zeros_like(self._theta)
        self._t = 0

    def step(self):
        c, g, m, v = self.config, self._grad, self._m, self._v
        if c.algorithm == "sgd":
            self._theta -= c.learning_rate * g
            return
        self._t += 1
        b1, b2 = c.adam_beta1, c.adam_beta2
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** self._t)
        v_hat = v / (1.0 - b2 ** self._t)
        self._theta -= c.learning_rate * m_hat / (np.sqrt(v_hat)
                                                  + c.adam_epsilon)
