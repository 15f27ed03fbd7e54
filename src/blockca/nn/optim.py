"""The network optimizer: plain SGD or bias-corrected Adam over one flat
parameter vector."""

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
    """Binds an optimizer config to a network's parameter arrays.

    Each step gathers the gradients into one flat vector g, computes the
    flat update u (SGD: lr * g; Adam: lr * m_hat / (sqrt(v_hat) + eps) from
    flat moments m and v), and subtracts each parameter's slice of u from
    that parameter in place.  Every operation is elementwise, so this is
    the per-array update of each parameter, bit for bit.
    """

    def __init__(self, config: OptimizerConfig, network):
        self.config = config
        pairs = network.parameters()
        self._params = [p for p, _ in pairs]
        self._grads = [g for _, g in pairs]
        bounds = np.cumsum([0] + [p.size for p in self._params])
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self._grad = np.zeros(bounds[-1])
        self._m = np.zeros(bounds[-1])
        self._v = np.zeros(bounds[-1])
        self._t = 0

    def step(self):
        c, g = self.config, self._grad
        for grad, part in zip(self._grads, self._slices):
            g[part] = grad().ravel()
        if c.algorithm == "sgd":
            update = c.learning_rate * g
        else:
            self._t += 1
            b1, b2 = c.adam_beta1, c.adam_beta2
            self._m *= b1
            self._m += (1.0 - b1) * g
            self._v *= b2
            self._v += (1.0 - b2) * g * g
            m_hat = self._m / (1.0 - b1 ** self._t)
            v_hat = self._v / (1.0 - b2 ** self._t)
            update = c.learning_rate * m_hat / (np.sqrt(v_hat) + c.adam_epsilon)
        for p, part in zip(self._params, self._slices):
            p -= update[part].reshape(p.shape)
