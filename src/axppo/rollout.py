"""Fixed-horizon on-policy rollouts and generalized advantage estimation.

A rollout always spans exactly `horizon` environment steps; episodes are
concatenated and the environment resets inline at episode boundaries. The
cursor returned by collect_rollout carries the in-progress episode (state and
accumulated return) into the next rollout.

Bootstrapping distinguishes the two episode endings: termination (pole fell,
cart out of bounds) masks the successor value to zero, while truncation (the
500-step limit) bootstraps with the value of the state the environment
actually reached, since the time limit is not a property of the task.

Every policy-driven step, here and in train.evaluate, goes through one
private helper, _policy_step: observation, forward_single, a two-action
log-softmax (_log_softmax2, loss.log_softmax bit for bit up to the sign of
a NaN), sample_categorical, cartpole.step. forward_single,
sample_categorical, step and reset are looked up in this module's globals at
call time so that tests can substitute them. collect_rollout keeps each step
as a tuple, stacks the columns into arrays once, and checks the stacked
network outputs for non-finite values once per rollout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartpole import CartPoleState, reset, step
from .loss import TrainingDiverged
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
    """Draw action 0 or 1 from a two-entry probability vector using one uniform variate.

    Equal, NaN included, to the inverse-CDF rule
    min(searchsorted(cumsum(probs), u, "right"), 1).
    """
    return int(probs[0] <= rng.random())


def _log_softmax2(logits: np.ndarray) -> np.ndarray:
    """loss.log_softmax of a two-entry logit vector with less dispatch.

    Bit for bit the same, except that a NaN may carry the other sign bit
    (numpy's maximum-reduce sets it by position). Why the rest matches:
    without a NaN logit the comparison picks the maximum (for 0.0 against
    -0.0 either one, which changes no result); with one, every entry is NaN
    on both paths; the add-reduce of two entries is e0 + e1 (exp never
    returns -0.0); and a ufunc gives the same result on a scalar as on a
    one-entry array. No output reads a NaN's sign: sample_categorical picks
    action 1 for any NaN, and collect_rollout rejects non-finite logits.
    """
    z0, z1 = logits
    shifted = logits - (z0 if z0 >= z1 else z1)
    e0, e1 = np.exp(shifted)
    return shifted - np.log(e0 + e1)


def _policy_step(unpacked, state: CartPoleState, rng: np.random.Generator):
    """One environment step under the policy, shared by collect_rollout and evaluate.

    Returns (step result, observation, action, log-probability of the action,
    logits, value). Nothing here checks the outputs for finiteness;
    collect_rollout does so once per rollout.
    """
    obs = state.as_obs()
    logits, value = forward_single(unpacked, obs)
    log_p = _log_softmax2(logits)
    action = sample_categorical(rng, np.exp(log_p))
    return step(state, action), obs, action, log_p[action], logits, value


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
    if config.action_count != 2:
        raise ValueError(f"CartPole has two actions, got action_count={config.action_count}")
    unpacked = unpack_params(params, config)

    state, running_return = cursor
    completed: list[float] = []
    rows = []  # (obs, action, log-prob, value, logits, reward, terminated, truncated)
    truncation_values = {}  # row -> value of the state the time limit cut off
    for t in range(horizon):
        result, o, action, log_prob, logits, value = _policy_step(unpacked, state, action_rng)
        next_state, reward, term, trunc = result
        rows.append((o, action, log_prob, value, logits, reward, term, trunc))
        running_return += reward

        if term or trunc:
            completed.append(running_return)
            running_return = 0.0
            if trunc:
                truncation_values[t] = forward_single(unpacked, next_state.as_obs())[1]
            state = reset(env_rng)
        else:
            state = next_state

    obs, actions, log_probs, values, logits, rewards, terminated, truncated = zip(*rows)
    values = np.array(values)
    finite = np.isfinite(np.array(logits)).all(axis=1) & np.isfinite(values)
    if not finite.all():
        t = int(np.argmin(finite))
        raise TrainingDiverged(f"non-finite network output at rollout step {t}")
    terminated = np.array(terminated)
    truncated = np.array(truncated)

    # successor values: the next row's value inside an episode, 0.0 on termination
    next_values = np.zeros(horizon)
    inside = ~(terminated[:-1] | truncated[:-1])
    next_values[:-1][inside] = values[1:][inside]
    for t, v in truncation_values.items():
        next_values[t] = v

    if terminated[-1]:
        bootstrap_value = 0.0
    elif truncated[-1]:
        bootstrap_value = next_values[-1]
    else:
        bootstrap_value = forward_single(unpacked, state.as_obs())[1]
        next_values[-1] = bootstrap_value

    buffer = RolloutBuffer(
        obs=np.array(obs),
        actions=np.array(actions, dtype=np.intp),
        log_probs=np.array(log_probs),
        values=values,
        rewards=np.array(rewards),
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
