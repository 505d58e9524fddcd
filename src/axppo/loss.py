"""Clipped-surrogate PPO loss with an entropy bonus, and its analytic partials.

Sign convention: the surrogate objective is maximized, so the scalar being
minimized is

    total = -clip_term + VALUE_COEF * value_term - c2_effective * entropy_term

where every term is a minibatch mean and the clip term clips the probability
ratio to [1 - CLIP_EPSILON, 1 + CLIP_EPSILON]. c2_effective is whatever
coefficient applies this update: the configured value in standard mode, or the
return-scaled value in adaptive mode. It is frozen for the whole update.

Finiteness checks. loss_output_gradients rejects a NaN or infinite input with
a ValueError that names it, through one isfinite over all five inputs joined
(exact, and silent on infinities). ppo_update checks the inputs that are fixed
for the whole update (buffer.log_probs, the normalized advantages,
value_targets) once, before its first minibatch; per minibatch it relies on
loss_output_gradients for the network output, checks the loss itself, and
relies on adam_step for the gradient. Every non-finite value found inside
ppo_update raises TrainingDiverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import NetworkConfig, NetworkOutput, _require_int, backprop, forward
from .optim import AdamState, _NonFiniteGradient, adam_step

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

# The fixed PPO recipe's clip range and value-loss weight.
CLIP_EPSILON = 0.2
VALUE_COEF = 0.25


class TrainingDiverged(RuntimeError):
    """Raised when a rollout or update produces non-finite numbers."""


class _NonFiniteInput(ValueError):
    """loss_output_gradients' error for a NaN or infinite input; ppo_update turns it into
    TrainingDiverged."""


@dataclass(frozen=True)
class LossBreakdown:
    clip_term: float
    value_term: float
    entropy_term: float
    total: float


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log softmax along the given axis."""
    logits = np.asarray(logits, dtype=np.float64)
    # the ufunc reductions behind .max/.sum, called without the methods' Python wrappers
    shifted = logits - np.maximum.reduce(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


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
                raise _NonFiniteInput(f"non-finite entries in {name}")

    rows = np.arange(n)
    log_p = log_softmax(logits)
    p = np.exp(log_p)
    ratio = np.exp(log_p[rows, actions] - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON) * advantages
    value_err = values - value_targets
    entropy = -(p * log_p).sum(axis=-1)

    # sum / n is the float division x.mean() makes, without its Python-level wrapper
    clip_term = float(np.minimum(unclipped, clipped).sum() / n)
    value_term = float(0.5 * ((value_err**2).sum() / n))
    entropy_term = float(entropy.sum() / n)
    total = -clip_term + VALUE_COEF * value_term - c2_effective * entropy_term

    d_logp = np.where(unclipped <= clipped, -unclipped, 0.0)  # -unclipped == -ratio * A
    one_hot = np.zeros_like(p)
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
    epochs: int,
    minibatch_size: int,
    lr: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, AdamState, LossBreakdown]:
    """Epochs of shuffled minibatch gradient steps over one rollout buffer.

    Advantages are normalized once (mean 0, std ADV_TARGET_STD) before the
    epoch loop, so every epoch sees the same values. Returns the updated
    parameters, optimizer state, and the mean loss breakdown over the last
    epoch's minibatches.

    Raises TrainingDiverged on non-finite numbers: the inputs that are fixed
    for the whole update (buffer.log_probs, the normalized advantages,
    value_targets) are checked once before the first minibatch; the network
    output through loss_output_gradients' own check; the loss of every
    minibatch here; its gradient through adam_step's own check.
    """
    _require_int("epochs", epochs)
    _require_int("minibatch_size", minibatch_size)
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if minibatch_size < 1:
        raise ValueError(f"minibatch_size must be >= 1, got {minibatch_size}")
    horizon = len(buffer.rewards)
    if horizon % minibatch_size != 0:
        raise ValueError(f"minibatch_size {minibatch_size} must divide horizon {horizon}")
    advantages = np.asarray(advantages, dtype=np.float64)
    value_targets = np.asarray(value_targets, dtype=np.float64)
    old_log_probs = np.asarray(buffer.log_probs, dtype=np.float64)
    if advantages.shape != (horizon,) or value_targets.shape != (horizon,):
        raise ValueError("advantages/value_targets are not aligned with the buffer")

    adv = ADV_TARGET_STD * (advantages - advantages.mean()) / (advantages.std() + ADV_NORM_EPS)

    def _diverged(what: str) -> TrainingDiverged:
        return TrainingDiverged(f"non-finite {what} during ppo update")

    for name, arr in (("buffer.log_probs", old_log_probs), ("advantages", adv),
                      ("value_targets", value_targets)):
        if not np.isfinite(arr).all():
            raise _diverged(name)

    last_epoch: list[LossBreakdown] = []
    for epoch in range(epochs):
        order = rng.permutation(horizon)
        is_last = epoch == epochs - 1
        # one gather per epoch; each minibatch is then a contiguous slice of it
        obs_e, actions_e = buffer.obs[order], buffer.actions[order]
        log_probs_e, adv_e, targets_e = old_log_probs[order], adv[order], value_targets[order]
        for start in range(0, horizon, minibatch_size):
            mb = slice(start, start + minibatch_size)
            outputs, trace = forward(params, config, obs_e[mb])
            try:
                breakdown, d_logits, d_values = loss_output_gradients(
                    outputs, actions_e[mb], log_probs_e[mb], adv_e[mb], targets_e[mb],
                    c2_effective,
                )
            except _NonFiniteInput as exc:  # only the network output is left unchecked
                raise TrainingDiverged(f"{exc} during ppo update") from exc
            if not math.isfinite(breakdown.total):
                raise _diverged("loss")
            grads = backprop(config, trace, d_logits, d_values)
            try:
                params, adam_state = adam_step(params, grads, adam_state, lr)
            except _NonFiniteGradient as exc:
                raise _diverged("gradient") from exc
            if is_last:
                last_epoch.append(breakdown)

    summary = LossBreakdown(
        clip_term=float(np.mean([b.clip_term for b in last_epoch])),
        value_term=float(np.mean([b.value_term for b in last_epoch])),
        entropy_term=float(np.mean([b.entropy_term for b in last_epoch])),
        total=float(np.mean([b.total for b in last_epoch])),
    )
    return params, adam_state, summary
