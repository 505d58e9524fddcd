"""Self-contained CartPole-v1 physics: explicit Euler, 500-step limit, unit reward.

Constants and semantics follow the public CartPole-v1 specification so returns
are comparable with agents trained on the reference environment: the position
is updated with the pre-update velocity, termination is checked after the
state update, and the reward is 1.0 on every step including the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# largest return a single episode can collect
MAX_RETURN = MAX_EPISODE_STEPS * REWARD_PER_STEP


@dataclass(frozen=True)
class CartPoleState:
    x: float
    x_dot: float
    theta: float
    theta_dot: float
    elapsed_steps: int = 0

    def as_obs(self) -> np.ndarray:
        return np.array([self.x, self.x_dot, self.theta, self.theta_dot])


@dataclass(frozen=True)
class StepResult:
    next_state: CartPoleState
    reward: float
    terminated: bool
    truncated: bool


def reset(rng: np.random.Generator) -> CartPoleState:
    """Fresh episode start: all four components uniform in [-0.05, 0.05]."""
    x, x_dot, theta, theta_dot = rng.uniform(-0.05, 0.05, size=4)
    return CartPoleState(x=x, x_dot=x_dot, theta=theta, theta_dot=theta_dot, elapsed_steps=0)


def step(state: CartPoleState, action: int) -> StepResult:
    """Advance one time step. action 0 pushes left, 1 pushes right."""
    if action not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {action!r}")
    force = FORCE_MAGNITUDE if action == 1 else -FORCE_MAGNITUDE
    cos_theta = math.cos(state.theta)
    sin_theta = math.sin(state.theta)
    total_mass = CART_MASS + POLE_MASS
    pole_mass_length = POLE_MASS * HALF_POLE_LENGTH

    temp = (force + pole_mass_length * state.theta_dot**2 * sin_theta) / total_mass
    theta_acc = (GRAVITY * sin_theta - cos_theta * temp) / (
        HALF_POLE_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_theta**2 / total_mass)
    )
    x_acc = temp - pole_mass_length * theta_acc * cos_theta / total_mass

    next_state = CartPoleState(
        x=state.x + DT * state.x_dot,
        x_dot=state.x_dot + DT * x_acc,
        theta=state.theta + DT * state.theta_dot,
        theta_dot=state.theta_dot + DT * theta_acc,
        elapsed_steps=state.elapsed_steps + 1,
    )
    terminated = abs(next_state.x) > X_THRESHOLD or abs(next_state.theta) > THETA_THRESHOLD
    truncated = not terminated and next_state.elapsed_steps >= MAX_EPISODE_STEPS
    return StepResult(
        next_state=next_state,
        reward=REWARD_PER_STEP,
        terminated=terminated,
        truncated=truncated,
    )
