"""Fixed-horizon on-policy rollouts and generalized advantage estimation.

A rollout always spans exactly `horizon` environment steps; episodes are
concatenated and the environment resets inline at episode boundaries. The
cursor, a (state, running_return) tuple that collect_rollout takes and
returns, carries the in-progress episode into the next rollout.

Bootstrapping distinguishes the two episode endings: termination (pole fell,
cart out of bounds) masks the successor value to zero, while truncation (the
500-step limit) bootstraps with the value of the state the environment
actually reached, since the time limit is not a property of the task.

Every policy-driven step, here and in train.evaluate, samples and steps
through one private helper, _sample_and_step: a two-action log-softmax
(_log_softmax2, loss.log_softmax bit for bit up to the sign of a NaN),
sample_categorical on the probability of action 0, cartpole.step. The caller
computes the logits: collect_rollout with forward_single(unpacked, obs),
which also returns the value it stores, and evaluate with
forward_single(..., with_value=False), which skips the value head nobody
reads there. The log-softmax does its comparison, shifts, sum and
subtractions on Python floats, which IEEE-754 rounds exactly as numpy does,
and leaves only exp and log to numpy, whose SIMD loops round differently
from the math module; a Python float op costs less per step than the same op
on numpy scalars. The sampling probability is np.exp of the first Python
float, the same bits as the first entry of np.exp over both. forward_single,
sample_categorical, step and reset are looked up in this module's globals at
call time so that tests can substitute them. collect_rollout keeps each step
as a tuple, stacks the columns into arrays once, and checks the stacked
network outputs for non-finite values once per rollout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartpole import CartPoleState, reset, step
from .loss import TrainingDiverged
from .net import NetworkConfig, forward_single, unpack_params

__all__ = ["RolloutBuffer", "sample_categorical", "collect_rollout", "compute_gae"]


@dataclass(frozen=True)
class RolloutBuffer:
    """One update's worth of transitions, stored as parallel arrays of length horizon.

    next_values[t] holds V(s_{t+1}) under the bootstrap rules above: the next
    row's value inside an episode, the post-truncation state's value on
    truncation, 0.0 on termination, and at the buffer end of an unfinished
    episode the value of the state the next rollout starts from.
    """

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    terminated: np.ndarray
    truncated: np.ndarray
    next_values: np.ndarray


def sample_categorical(rng: np.random.Generator, p0: float) -> int:
    """Draw action 0 or 1, given the probability p0 of action 0, using one uniform variate.

    Action 1 when p0 <= u, else action 0; a NaN p0 gives action 0. Equal to
    the inverse-CDF rule min(searchsorted(cumsum([p0, p1]), u, "right"), 1)
    for every p1, NaN included: that rule reads p1 only through the clamped
    last bin. The branch, not int(), turns the comparison into an int: with
    the numpy float64 p0 the rollout passes, the comparison is a numpy bool,
    and int() of one costs more than testing it.
    """
    return 1 if p0 <= rng.random() else 0


def _log_softmax2(logits: np.ndarray) -> tuple[float, float]:
    """loss.log_softmax of a two-entry logit vector, as a tuple of two Python floats.

    Bit for bit the same, except that a NaN may carry the other sign bit
    (numpy's maximum-reduce sets it by position). The comparison, the two
    shifts, the sum of the exponentials and the two final subtractions run on
    Python floats: IEEE-754 defines comparison and correctly rounded `+` and
    `-`, so Python and numpy give the same bits for them. Only the exp and
    the log stay numpy ufuncs, because numpy's SIMD loops round differently
    from math.exp and math.log (see net.forward_single), and a ufunc gives
    the same result on a scalar as on an array entry. Why the rest matches:
    without a NaN logit the comparison picks the maximum (for 0.0 against
    -0.0 either one, which changes no result); with one, every entry is NaN
    on both paths; and the add-reduce of two entries is e0 + e1 (exp never
    returns -0.0). No output reads a NaN's sign: sample_categorical picks
    action 0 for any NaN, and collect_rollout rejects non-finite logits.
    """
    z0, z1 = logits.tolist()
    m = z0 if z0 >= z1 else z1
    s0 = z0 - m
    s1 = z1 - m
    lse = float(np.log(float(np.exp(s0)) + float(np.exp(s1))))
    return s0 - lse, s1 - lse


def _sample_and_step(state: CartPoleState, logits: np.ndarray, rng: np.random.Generator):
    """Sample an action from the policy's logits and step the environment with it.

    Shared by collect_rollout and evaluate. Returns (step result, action,
    log-probability of the action). Nothing here checks the logits for
    finiteness; collect_rollout does so once per rollout.
    """
    log_p = _log_softmax2(logits)
    action = sample_categorical(rng, np.exp(log_p[0]))
    return step(state, action), action, log_p[action]


def collect_rollout(
    params: np.ndarray,
    config: NetworkConfig,
    cursor: tuple[CartPoleState, float],
    horizon: int,
    *,
    action_rng: np.random.Generator,
    env_rng: np.random.Generator,
) -> tuple[RolloutBuffer, tuple[float, ...], tuple[CartPoleState, float]]:
    """Run the current policy for exactly `horizon` steps, resetting inline.

    Returns (buffer, the undiscounted returns of the episodes that finished,
    the cursor to continue from). Action sampling draws from `action_rng`;
    episode resets draw from `env_rng`, so the two randomness streams stay
    independent.
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
        obs = state.as_obs()
        logits, value = forward_single(unpacked, obs)
        (next_state, reward, term, trunc), action, log_prob = _sample_and_step(
            state, logits, action_rng
        )
        rows.append((obs, action, log_prob, value, logits, reward, term, trunc))
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

    if not (terminated[-1] or truncated[-1]):
        next_values[-1] = forward_single(unpacked, state.as_obs())[1]

    buffer = RolloutBuffer(
        obs=np.array(obs),
        actions=np.array(actions, dtype=np.intp),
        log_probs=np.array(log_probs),
        values=values,
        rewards=np.array(rewards),
        terminated=terminated,
        truncated=truncated,
        next_values=next_values,
    )
    return buffer, tuple(completed), (state, running_return)


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

    horizon = len(buffer.rewards)
    advantages = np.empty(horizon)
    acc = 0.0
    for t in range(horizon - 1, -1, -1):
        acc = deltas[t] + (0.0 if done[t] else gamma * lam * acc)
        advantages[t] = acc
    return advantages, advantages + buffer.values
