"""Self-contained CartPole-v1 physics: explicit Euler, 500-step limit, unit reward.

Constants and semantics follow the public CartPole-v1 specification so returns
are comparable with agents trained on the reference environment: the position
is updated with the pre-update velocity, termination is checked after the
state update, and the reward is 1.0 on every step including the last.

`step` runs once per environment step, so its records are named tuples
(cheaper to build than frozen dataclasses) and `reset` draws Python floats
(cheaper arithmetic than NumPy scalars). Both give bitwise the same values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "CartPoleState",
    "StepResult",
    "reset",
    "step",
    "MAX_RETURN",
]

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
HALF_POLE_LENGTH = 0.5
FORCE_MAGNITUDE = 10.0
DT = 0.02
X_THRESHOLD = 2.4
THETA_THRESHOLD = 12.0 * math.pi / 180.0
MAX_EPISODE_STEPS = 500
REWARD_PER_STEP = 1.0

TOTAL_MASS = CART_MASS + POLE_MASS
POLE_MASS_LENGTH = POLE_MASS * HALF_POLE_LENGTH

# largest return a single episode can collect
MAX_RETURN = MAX_EPISODE_STEPS * REWARD_PER_STEP


class CartPoleState(NamedTuple):
    x: float
    x_dot: float
    theta: float
    theta_dot: float
    elapsed_steps: int = 0

    def as_obs(self) -> np.ndarray:
        return np.array(self[:4])


class StepResult(NamedTuple):
    next_state: CartPoleState
    reward: float
    terminated: bool
    truncated: bool


def reset(rng: np.random.Generator) -> CartPoleState:
    """Fresh episode start: all four components uniform in [-0.05, 0.05]."""
    x, x_dot, theta, theta_dot = rng.uniform(-0.05, 0.05, size=4).tolist()
    return CartPoleState(x, x_dot, theta, theta_dot, 0)


def step(state: CartPoleState, action: int) -> StepResult:
    """Advance one time step. action 0 pushes left, 1 pushes right."""
    if action not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {action!r}")
    x, x_dot, theta, theta_dot, elapsed_steps = state
    force = FORCE_MAGNITUDE if action == 1 else -FORCE_MAGNITUDE
    cos_theta = math.cos(theta)
    sin_theta = math.sin(theta)

    temp = (force + POLE_MASS_LENGTH * theta_dot**2 * sin_theta) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_theta - cos_theta * temp) / (
        HALF_POLE_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_theta**2 / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_theta / TOTAL_MASS

    x = x + DT * x_dot
    theta = theta + DT * theta_dot
    elapsed_steps += 1
    terminated = abs(x) > X_THRESHOLD or abs(theta) > THETA_THRESHOLD
    truncated = not terminated and elapsed_steps >= MAX_EPISODE_STEPS
    next_state = CartPoleState(
        x, x_dot + DT * x_acc, theta, theta_dot + DT * theta_acc, elapsed_steps
    )
    return StepResult(next_state, REWARD_PER_STEP, terminated, truncated)
