"""Independent reference computations the tests check the package against.

Not a test module (pytest collects only test_*.py): test files import these.
finite_diff_gradient is the oracle for the analytic backprop path;
categorical_entropy and action_log_prob are the per-sample forms of the
entropy and log-probability that the loss computes batched.
"""

from typing import Callable

import numpy as np

from axppo.loss import log_softmax


def categorical_entropy(logits: np.ndarray) -> float | np.ndarray:
    """Entropy -sum p ln p of softmax(logits), over the last axis."""
    log_p = log_softmax(logits)
    p = np.exp(log_p)
    h = -np.sum(p * log_p, axis=-1)
    return float(h) if h.ndim == 0 else h


def action_log_prob(logits: np.ndarray, action: int) -> float:
    """log softmax(logits)[action] for a single sample."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= action < logits.shape[-1]:
        raise ValueError(f"action {action} out of range for {logits.shape[-1]} actions")
    return float(log_softmax(logits)[action])


def finite_diff_gradient(
    loss_fn: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2h) per coordinate.

    loss_fn must be pure and deterministic; this is the independent oracle the
    analytic backprop path is checked against.
    """
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    work = np.array(params, dtype=np.float64, copy=True)
    grad = np.empty_like(work)
    for i in range(work.shape[0]):
        orig = work[i]
        work[i] = orig + h
        f_plus = loss_fn(work)
        work[i] = orig - h
        f_minus = loss_fn(work)
        work[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise RuntimeError(f"non-finite loss evaluation at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
