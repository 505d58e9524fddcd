"""Clipped-surrogate PPO loss with an entropy bonus, and its analytic partials.

Sign convention: the surrogate objective is maximized, so the scalar being
minimized is

    total = -clip_term + VALUE_COEF * value_term - c2_effective * entropy_term

where every term is a minibatch mean and the clip term clips the probability
ratio to [1 - CLIP_EPSILON, 1 + CLIP_EPSILON]. c2_effective is whatever
coefficient applies this update: the configured value in standard mode, or the
return-scaled value in adaptive mode. It is frozen for the whole update.

Finiteness checks. Every non-finite number is reported where it is found, as
TrainingDiverged (defined in axppo.optim, a ValueError, re-exported here).
loss_output_gradients checks its five inputs (logits, values, old_log_probs,
advantages, value_targets) through one isfinite over all of them joined
(exact, and silent on infinities), and names the first non-finite one.
ppo_update checks each minibatch's loss and the parameters it returns;
adam_step checks the gradient. Every epoch passes each sample through
loss_output_gradients, so the inputs that are fixed for the whole update are
checked in its first epoch. Argument errors (shapes, a horizon MINIBATCH_SIZE
does not divide) are plain ValueErrors.

loss_output_gradients runs once per minibatch on small arrays, so its cost
is mostly dispatch. It calls ufuncs directly and gives the same bits as the
plain forms: np.add.reduce for ndarray.sum (the method wraps it);
np.minimum(np.maximum(ratio, lo), hi) for np.clip, which computes the same
for every ratio but NaN, and the ratio is never NaN because the inputs are
checked finite; x * x for x**2, which numpy evaluates as that one product;
np.zeros for np.zeros_like of a float64 array. The loss stays generic over
the action count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import NetworkConfig, NetworkOutput, backprop, forward
from .optim import AdamState, TrainingDiverged, adam_step

__all__ = [
    "TrainingDiverged",
    "LossBreakdown",
    "log_softmax",
    "loss_breakdown",
    "loss_output_gradients",
    "ppo_update",
]

ADV_NORM_EPS = 1e-8

# Normalized advantage scale. The entropy term competes directly with the
# surrogate, so this constant fixes how hard a given entropy coefficient bites;
# 2.0 keeps small coefficients harmless while large ones still dominate.
ADV_TARGET_STD = 2.0

# The fixed PPO recipe: clip range, value-loss weight, and the update schedule.
CLIP_EPSILON = 0.2
VALUE_COEF = 0.25
EPOCHS = 10
MINIBATCH_SIZE = 64
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class LossBreakdown:
    clip_term: float
    value_term: float
    entropy_term: float
    total: float


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    # the ufunc reductions behind .max/.sum, called without the methods' Python wrappers
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def loss_output_gradients(
    outputs: NetworkOutput,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    c2_effective: float,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """One loss pass: the minibatch-mean loss terms and their output partials.

    Returns (breakdown, d_logits, d_values), where the partials are the exact
    derivatives of breakdown.total w.r.t. each sample's logits and value,
    scaled by 1/batch so a summing backprop reproduces the minibatch mean.

    Policy part: d(-surrogate)/d(new_log_prob) is -ratio * A where the
    unclipped branch attains the min, and zero where the clipped branch is
    active and binding (the clipped ratio is a constant there); the chain rule
    through log softmax then gives d_logp * (one_hot(action) - p). Inside the
    clip band the branches coincide, and the tie goes to the unclipped branch,
    so the gradient flows there.

    Entropy part, always present: dH/dz_j = -p_j (ln p_j + H), so the
    -c2_effective * H term contributes c2_effective * p_j (ln p_j + H).

    Value part: VALUE_COEF * (V - target).
    """
    logits = np.asarray(outputs.logits, dtype=np.float64)
    values = np.asarray(outputs.values, dtype=np.float64)
    actions = np.asarray(actions)
    old_log_probs = np.asarray(old_log_probs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    value_targets = np.asarray(value_targets, dtype=np.float64)

    n = logits.shape[0]
    if not (
        values.shape == (n,)
        and actions.shape == (n,)
        and old_log_probs.shape == (n,)
        and advantages.shape == (n,)
        and value_targets.shape == (n,)
    ):
        raise ValueError("minibatch arrays are not aligned")
    if n < 1:
        raise ValueError("minibatch must hold at least one sample")
    if not np.isfinite(np.concatenate(
            (logits.ravel(), values, old_log_probs, advantages, value_targets))).all():
        for name, arr in (("logits", logits), ("values", values), ("old_log_probs", old_log_probs),
                          ("advantages", advantages), ("value_targets", value_targets)):
            if not np.isfinite(arr).all():
                raise TrainingDiverged(f"non-finite entries in {name}")

    rows = np.arange(n)
    log_p = log_softmax(logits)
    p = np.exp(log_p)
    ratio = np.exp(log_p[rows, actions] - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.minimum(np.maximum(ratio, 1.0 - CLIP_EPSILON), 1.0 + CLIP_EPSILON)
    clipped *= advantages
    value_err = values - value_targets
    entropy = -np.add.reduce(p * log_p, axis=-1)

    # add-reduce / n is the float division x.mean() makes, without its Python-level wrapper
    clip_term = float(np.add.reduce(np.minimum(unclipped, clipped)) / n)
    value_term = float(0.5 * (np.add.reduce(value_err * value_err) / n))
    entropy_term = float(np.add.reduce(entropy) / n)
    total = -clip_term + VALUE_COEF * value_term - c2_effective * entropy_term

    d_logp = np.where(unclipped <= clipped, -unclipped, 0.0)  # -unclipped == -ratio * A
    one_hot = np.zeros(p.shape)
    one_hot[rows, actions] = 1.0
    d_logits = d_logp[:, None] * (one_hot - p)
    d_logits += c2_effective * p * (log_p + entropy[:, None])
    d_logits /= n
    d_values = VALUE_COEF * value_err / n

    breakdown = LossBreakdown(
        clip_term=clip_term, value_term=value_term, entropy_term=entropy_term, total=total
    )
    return breakdown, d_logits, d_values


def loss_breakdown(
    outputs: NetworkOutput,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    c2_effective: float,
) -> LossBreakdown:
    """Minibatch-mean loss terms and the assembled scalar being minimized (no partials)."""
    return loss_output_gradients(
        outputs, actions, old_log_probs, advantages, value_targets, c2_effective
    )[0]


def ppo_update(
    params: np.ndarray,
    config: NetworkConfig,
    adam_state: AdamState,
    buffer,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    c2_effective: float,
    *,
    rng: np.random.Generator,
) -> tuple[np.ndarray, AdamState, LossBreakdown]:
    """EPOCHS epochs of shuffled MINIBATCH_SIZE gradient steps over one rollout buffer.

    Advantages are normalized once (mean 0, std ADV_TARGET_STD) before the
    epoch loop, so every epoch sees the same values. Returns the updated
    parameters, optimizer state, and the mean loss breakdown over the last
    epoch's minibatches.

    Raises TrainingDiverged on non-finite numbers: the network output and the
    minibatch's slices of buffer.log_probs, the normalized advantages and
    value_targets, by loss_output_gradients; the loss of every minibatch here;
    its gradient by adam_step; the parameters it returns here, after the last
    minibatch.
    """
    horizon = len(buffer.rewards)
    if horizon % MINIBATCH_SIZE != 0:
        raise ValueError(f"minibatch size {MINIBATCH_SIZE} must divide horizon {horizon}")
    advantages = np.asarray(advantages, dtype=np.float64)
    value_targets = np.asarray(value_targets, dtype=np.float64)
    old_log_probs = np.asarray(buffer.log_probs, dtype=np.float64)
    if advantages.shape != (horizon,) or value_targets.shape != (horizon,):
        raise ValueError("advantages/value_targets are not aligned with the buffer")

    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which loss_output_gradients refuses
        adv = ADV_TARGET_STD * (advantages - advantages.mean()) / (advantages.std() + ADV_NORM_EPS)

    last_epoch: list[LossBreakdown] = []
    for epoch in range(EPOCHS):
        order = rng.permutation(horizon)
        is_last = epoch == EPOCHS - 1
        # one gather per epoch; each minibatch is then a contiguous slice of it
        obs_e, actions_e = buffer.obs[order], buffer.actions[order]
        log_probs_e, adv_e, targets_e = old_log_probs[order], adv[order], value_targets[order]
        for start in range(0, horizon, MINIBATCH_SIZE):
            mb = slice(start, start + MINIBATCH_SIZE)
            outputs, trace = forward(params, config, obs_e[mb])
            breakdown, d_logits, d_values = loss_output_gradients(
                outputs, actions_e[mb], log_probs_e[mb], adv_e[mb], targets_e[mb], c2_effective
            )
            if not math.isfinite(breakdown.total):
                raise TrainingDiverged("non-finite loss during ppo update")
            grads = backprop(config, trace, d_logits, d_values)
            params, adam_state = adam_step(params, grads, adam_state, LEARNING_RATE)
            if is_last:
                last_epoch.append(breakdown)
    if not np.isfinite(params).all():
        raise TrainingDiverged("non-finite parameters after ppo update")

    # one mean per field, in field order, over the last epoch's minibatches
    columns = zip(*(vars(b).values() for b in last_epoch))
    return params, adam_state, LossBreakdown(*(float(np.mean(c)) for c in columns))
