"""Binary cross-entropy over post-sigmoid predictions."""

from __future__ import annotations

import numpy as np

CLAMP_EPS = 1e-12


def bce_loss(prediction: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE and its gradient with respect to the prediction.

    Predictions are clamped into [eps, 1-eps] before the logs, which keeps
    the loss finite for saturated or exactly binary predictions.
    """
    if prediction.shape != target.shape:
        raise ValueError(f"prediction shape {prediction.shape} != "
                         f"target shape {target.shape}")
    p = np.clip(prediction, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = float(-np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p)))
    grad = (p - target) / (p * (1.0 - p)) / p.size
    return loss, grad


def counted_bce_loss(prediction: np.ndarray, ones: np.ndarray,
                     zeros: np.ndarray, size: int) -> tuple[float, np.ndarray]:
    """bce_loss of `size` cells, of which `ones[i]` have target 1 and
    `zeros[i]` target 0 at prediction[i]; cells not counted add nothing.

    Returns the loss and its gradient with respect to `prediction`, which
    is the sum of bce_loss's gradient over the cells that share each entry.
    """
    if not prediction.shape == ones.shape == zeros.shape:
        raise ValueError(f"prediction shape {prediction.shape} != count "
                         f"shapes {ones.shape}, {zeros.shape}")
    p = np.clip(prediction, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = float(-np.sum(ones * np.log(p) + zeros * np.log1p(-p)) / size)
    grad = ((ones + zeros) * p - ones) / (p * (1.0 - p)) / size
    return loss, grad
