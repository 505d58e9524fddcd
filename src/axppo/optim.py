"""Adam on flat parameter vectors.

TrainingDiverged, the one exception for non-finite numbers met in training,
is defined here, in the lowest module that raises it; it is a ValueError.
adam_step raises it for a non-finite gradient, which is the only check of the
gradient in training. Its lr and shape errors are plain ValueErrors.

The bias correction c1 = 1 - ADAM_BETA1**t rounds to exactly 1.0 from t = 356
on (0.9**356 is below 2**-54, half the gap from 1.0 down to the next double),
and m / 1.0 is m for every double.
So from then on adam_step computes m * lr where it computed (m / c1) * lr,
with the same bits and one pass over the array fewer; a default run makes
9360 steps, 9005 of them past that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TrainingDiverged", "AdamState", "init_adam_state", "adam_step"]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(ValueError):
    """Raised when a rollout or update produces non-finite numbers."""


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int


def init_adam_state(param_count: int) -> AdamState:
    return AdamState(
        first_moment=np.zeros(param_count),
        second_moment=np.zeros(param_count),
        step_count=0,
    )


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update.

    Inputs are left unmodified, and no returned array shares memory with them.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape or state.first_moment.shape != params.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"adam state {state.first_moment.shape}"
        )
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be > 0 and finite, got {lr}")
    if not np.isfinite(grads).all():
        raise TrainingDiverged("non-finite gradient entries; update rejected")

    # the float operations of m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
    # params - lr * m_hat / (sqrt(v_hat) + eps), in that order, computed in place on
    # arrays allocated here
    t = state.step_count + 1
    m = np.multiply(state.first_moment, ADAM_BETA1)
    scratch = np.multiply(grads, 1.0 - ADAM_BETA1)
    m += scratch
    v = np.multiply(state.second_moment, ADAM_BETA2)
    np.multiply(grads, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grads
    v += scratch
    c1 = 1.0 - ADAM_BETA1**t
    if c1 == 1.0:  # from t = 356 on; m / 1.0 is m, so m * lr gives the same bits
        new_params = np.multiply(m, lr)
    else:
        new_params = np.divide(m, c1)
        new_params *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    new_params /= scratch
    np.subtract(params, new_params, out=new_params)
    return new_params, AdamState(first_moment=m, second_moment=v, step_count=t)

