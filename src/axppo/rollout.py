"""Fixed-horizon on-policy rollouts and generalized advantage estimation.

A rollout always spans exactly `horizon` environment steps; episodes are
concatenated and the environment resets inline at episode boundaries. The
cursor returned by collect_rollout carries the in-progress episode (state and
accumulated return) into the next rollout.

Bootstrapping distinguishes the two episode endings: termination (pole fell,
cart out of bounds) masks the successor value to zero, while truncation (the
500-step limit) bootstraps with the value of the state the environment
actually reached, since the time limit is not a property of the task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartpole import CartPoleState, reset, step
from .loss import TrainingDiverged, log_softmax
from .net import NetworkConfig, forward_single, unpack_params

__all__ = [
    "EnvCursor",
    "RolloutBuffer",
    "EpisodeStats",
    "sample_categorical",
    "collect_rollout",
    "compute_gae",
    "batch_mean_return",
]


class EnvCursor(NamedTuple):
    """Where collection left off: current state and the in-progress episode return."""

    state: CartPoleState
    running_return: float


@dataclass(frozen=True)
class RolloutBuffer:
    """One update's worth of transitions, stored as parallel arrays of length horizon.

    next_values[t] holds V(s_{t+1}) under the bootstrap rules above: the next
    row's value inside an episode, the post-truncation state's value on
    truncation, 0.0 on termination, and the bootstrap value at the buffer end.
    """

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    terminated: np.ndarray
    truncated: np.ndarray
    next_values: np.ndarray
    bootstrap_value: float
    horizon: int


@dataclass(frozen=True)
class EpisodeStats:
    """Undiscounted returns of the episodes that finished during one rollout."""

    completed_returns: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.completed_returns)


def sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Draw an index from a probability vector using one uniform variate."""
    u = rng.random()
    # clamp guards the one-ulp case where the cumulative sum lands below u
    return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)


def collect_rollout(
    params: np.ndarray,
    config: NetworkConfig,
    cursor: EnvCursor,
    horizon: int,
    *,
    action_rng: np.random.Generator,
    env_rng: np.random.Generator,
) -> tuple[RolloutBuffer, EpisodeStats, EnvCursor]:
    """Run the current policy for exactly `horizon` steps, resetting inline.

    Action sampling draws from `action_rng`; episode resets draw from
    `env_rng`, so the two randomness streams stay independent.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    unpacked = unpack_params(params, config)

    obs = np.empty((horizon, config.obs_dim))
    actions = np.empty(horizon, dtype=np.intp)
    log_probs = np.empty(horizon)
    values = np.empty(horizon)
    rewards = np.empty(horizon)
    terminated = np.zeros(horizon, dtype=bool)
    truncated = np.zeros(horizon, dtype=bool)
    next_values = np.zeros(horizon)

    def state_value(s: CartPoleState) -> float:
        _, v = forward_single(unpacked, s.as_obs())
        return v

    state, running_return = cursor
    completed: list[float] = []
    for t in range(horizon):
        o = state.as_obs()
        logits, value = forward_single(unpacked, o)
        if not (np.all(np.isfinite(logits)) and np.isfinite(value)):
            raise TrainingDiverged(f"non-finite network output at rollout step {t}")
        log_p = log_softmax(logits)
        action = sample_categorical(action_rng, np.exp(log_p))

        result = step(state, action)
        obs[t] = o
        actions[t] = action
        log_probs[t] = log_p[action]
        values[t] = value
        rewards[t] = result.reward
        terminated[t] = result.terminated
        truncated[t] = result.truncated
        running_return += result.reward

        if result.terminated or result.truncated:
            completed.append(running_return)
            running_return = 0.0
            if result.truncated:
                next_values[t] = state_value(result.next_state)
            state = reset(env_rng)
        else:
            state = result.next_state

    # successor values inside an episode are just the next row's value
    inside = ~(terminated[:-1] | truncated[:-1])
    next_values[:-1][inside] = values[1:][inside]

    if terminated[-1]:
        bootstrap_value = 0.0
    elif truncated[-1]:
        bootstrap_value = next_values[-1]
    else:
        bootstrap_value = state_value(state)
        next_values[-1] = bootstrap_value

    buffer = RolloutBuffer(
        obs=obs,
        actions=actions,
        log_probs=log_probs,
        values=values,
        rewards=rewards,
        terminated=terminated,
        truncated=truncated,
        next_values=next_values,
        bootstrap_value=bootstrap_value,
        horizon=horizon,
    )
    return buffer, EpisodeStats(completed_returns=tuple(completed)), EnvCursor(state, running_return)


def compute_gae(
    buffer: RolloutBuffer, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(gamma, lam) advantages and value targets for one buffer.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - terminated_t) - V(s_t), then
    A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1} backward, where
    done = terminated or truncated stops accumulation across episode
    boundaries. Targets are A_t + V(s_t).
    """
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError(f"gamma and lambda must lie in [0, 1], got {gamma}, {lam}")
    not_terminated = 1.0 - buffer.terminated.astype(np.float64)
    deltas = buffer.rewards + gamma * buffer.next_values * not_terminated - buffer.values
    done = buffer.terminated | buffer.truncated

    advantages = np.empty(buffer.horizon)
    acc = 0.0
    for t in range(buffer.horizon - 1, -1, -1):
        acc = deltas[t] + (0.0 if done[t] else gamma * lam * acc)
        advantages[t] = acc
    return advantages, advantages + buffer.values


def batch_mean_return(stats: EpisodeStats, fallback: float) -> float:
    """Mean completed-episode return of this rollout, or the carry-forward fallback."""
    if stats.count >= 1:
        return float(np.mean(stats.completed_returns))
    return float(fallback)
