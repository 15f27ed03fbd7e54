"""Finite-difference validation of the analytic gradients."""

from __future__ import annotations

import numpy as np

from .layers import Network, ReLULayer
from .loss import bce_loss

FD_STEP = 1e-5


class MarginNotFound(RuntimeError):
    """Raised when no sampled input keeps every ReLU clear of its kink."""


def network_loss(net: Network, x: np.ndarray, target: np.ndarray) -> float:
    pred, _ = net.forward(x)
    loss, _ = bce_loss(pred, target)
    return loss


def relu_margin(net: Network, x: np.ndarray) -> float:
    """Smallest |pre-activation| seen by any ReLU layer (inf if none).

    Finite differences are only trustworthy away from the kinks, so inputs
    with a small margin should be resampled before checking.
    """
    margin = np.inf
    for layer in net.layers:
        y, cache = layer.forward(x)
        if isinstance(layer, ReLULayer):
            margin = min(margin, float(np.abs(cache).min()))
        x = y
    return margin


def draw_input_with_margin(net: Network, shape, rng: np.random.Generator,
                           margin: float = 1e-3,
                           tries: int = 200) -> np.ndarray:
    """Sample uniform [0,1) inputs until every ReLU clears the kink margin."""
    for _ in range(tries):
        x = rng.random(shape)
        if relu_margin(net, x) > margin:
            return x
    raise MarginNotFound(f"no input cleared the ReLU margin {margin} "
                         f"in {tries} tries")


def grad_check(net: Network, x: np.ndarray, target: np.ndarray,
               step: float = FD_STEP) -> float:
    """Max relative error of backprop gradients vs central differences."""
    pred, caches = net.forward(x)
    _, dpred = bce_loss(pred, target)
    net.backward(dpred, caches)
    analytic = [g().copy() for _, g in net.parameters()]

    worst = 0.0
    for (param, _), ana in zip(net.parameters(), analytic):
        flat = param.reshape(-1)
        ana_flat = ana.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            loss_plus = network_loss(net, x, target)
            flat[idx] = orig - step
            loss_minus = network_loss(net, x, target)
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            denom = max(abs(ana_flat[idx]), abs(numeric))
            # Below the floor both sides are finite-difference noise.
            if denom > 1e-8:
                worst = max(worst, abs(ana_flat[idx] - numeric) / denom)
    return worst
