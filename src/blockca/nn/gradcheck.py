"""Finite-difference validation of the analytic gradients."""

from __future__ import annotations

import numpy as np

from .layers import Network, ReLULayer
from .loss import bce_loss

FD_STEP = 1e-5
# draw_input_with_margin keeps an input once every ReLU pre-activation is
# at least RELU_MARGIN from the kink, and gives up after MARGIN_TRIES draws.
RELU_MARGIN = 1e-3
MARGIN_TRIES = 200


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
    _, caches = net.forward(x)
    return min((float(np.abs(cache).min())
                for layer, cache in zip(net.layers, caches)
                if isinstance(layer, ReLULayer)), default=np.inf)


def draw_input_with_margin(net: Network, shape,
                           rng: np.random.Generator) -> np.ndarray:
    """Sample uniform [0,1) inputs until every ReLU clears the kink margin."""
    for _ in range(MARGIN_TRIES):
        x = rng.random(shape)
        if relu_margin(net, x) > RELU_MARGIN:
            return x
    raise MarginNotFound(f"no input cleared the ReLU margin {RELU_MARGIN} "
                         f"in {MARGIN_TRIES} tries")


def gradient_error(net: Network, loss) -> float:
    """Max relative error of net.grad, left by a backward pass of the
    scalar `loss()`, vs central differences of loss() in each entry of
    net.theta."""
    analytic = net.grad.copy()
    theta = net.theta
    worst = 0.0
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + FD_STEP
        loss_plus = loss()
        theta[idx] = orig - FD_STEP
        loss_minus = loss()
        theta[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * FD_STEP)
        denom = max(abs(analytic[idx]), abs(numeric))
        # Below the floor both sides are finite-difference noise.
        if denom > 1e-8:
            worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst


def grad_check(net: Network, x: np.ndarray, target: np.ndarray) -> float:
    """Max relative error of backprop gradients vs central differences."""
    pred, caches = net.forward(x)
    _, dpred = bce_loss(pred, target)
    net.backward(dpred, caches)
    return gradient_error(net, lambda: network_loss(net, x, target))
