"""Adam on flat parameter vectors.

adam_step rejects a non-finite gradient with a ValueError. It is the only
check of the gradient in training: ppo_update turns that error (a private
subclass, told apart from adam_step's lr and shape errors) into
TrainingDiverged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "init_adam_state", "adam_step"]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _NonFiniteGradient(ValueError):
    """adam_step's error for a NaN or infinite gradient; ppo_update turns it into
    TrainingDiverged."""


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
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not np.isfinite(grads).all():
        raise _NonFiniteGradient("non-finite gradient entries; update rejected")

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
    new_params = np.divide(m, 1.0 - ADAM_BETA1**t)
    new_params *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    new_params /= scratch
    np.subtract(params, new_params, out=new_params)
    return new_params, AdamState(first_moment=m, second_moment=v, step_count=t)

