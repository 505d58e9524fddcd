"""Clipped-surrogate PPO loss with an entropy bonus, and its analytic partials.

Sign convention: the surrogate objective is maximized, so the scalar being
minimized is

    total = -clip_term + c1 * value_term - c2_effective * entropy_term

where every term is a minibatch mean. c2_effective is whatever coefficient
applies this update: the configured value in standard mode, or the
return-scaled value in adaptive mode. It is frozen for the whole update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import NetworkConfig, NetworkOutput, backprop, forward
from .optim import AdamState, adam_step

__all__ = [
    "TrainingDiverged",
    "LossCoefficients",
    "LossBreakdown",
    "log_softmax",
    "categorical_entropy",
    "action_log_prob",
    "loss_breakdown",
    "loss_output_gradients",
    "ppo_update",
]

ADV_NORM_EPS = 1e-8

# Normalized advantage scale. The entropy term competes directly with the
# surrogate, so this constant fixes how hard a given entropy coefficient bites;
# 2.0 keeps small coefficients harmless while large ones still dominate.
ADV_TARGET_STD = 2.0


class TrainingDiverged(RuntimeError):
    """Raised when a rollout or update produces non-finite numbers."""


@dataclass(frozen=True)
class LossCoefficients:
    """Weights applied this update; c2_effective is what actually multiplies the entropy."""

    c1: float
    clip_epsilon: float
    c2_effective: float

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2_effective < 0.0:
            raise ValueError("loss coefficients must be >= 0")
        if self.clip_epsilon <= 0.0:
            raise ValueError(f"clip_epsilon must be > 0, got {self.clip_epsilon}")


@dataclass(frozen=True)
class LossBreakdown:
    clip_term: float
    value_term: float
    entropy_term: float
    total: float


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log softmax along the given axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


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


def _per_sample_terms(
    outputs: NetworkOutput,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    coeffs: LossCoefficients,
):
    """Shared intermediates for the loss value and its output partials."""
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
    for name, arr in (("logits", logits), ("values", values), ("old_log_probs", old_log_probs),
                      ("advantages", advantages), ("value_targets", value_targets)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite entries in {name}")

    log_p = log_softmax(logits)
    p = np.exp(log_p)
    new_log_probs = log_p[np.arange(n), actions]
    ratio = np.exp(new_log_probs - old_log_probs)

    low, high = 1.0 - coeffs.clip_epsilon, 1.0 + coeffs.clip_epsilon
    unclipped = ratio * advantages
    clipped = np.clip(ratio, low, high) * advantages
    surrogate = np.minimum(unclipped, clipped)
    # policy gradient flows only where the unclipped branch attains the min;
    # inside the clip band the branches coincide, so <= keeps the gradient there
    unclipped_active = unclipped <= clipped

    value_err = values - value_targets
    entropy = -np.sum(p * log_p, axis=-1)
    return p, log_p, ratio, advantages, surrogate, unclipped_active, value_err, entropy


def loss_breakdown(
    outputs: NetworkOutput,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    coeffs: LossCoefficients,
) -> LossBreakdown:
    """Minibatch-mean loss terms and the assembled scalar being minimized."""
    _, _, _, _, surrogate, _, value_err, entropy = _per_sample_terms(
        outputs, actions, old_log_probs, advantages, value_targets, coeffs
    )
    clip_term = float(surrogate.mean())
    value_term = float(0.5 * np.mean(value_err**2))
    entropy_term = float(entropy.mean())
    total = -clip_term + coeffs.c1 * value_term - coeffs.c2_effective * entropy_term
    return LossBreakdown(
        clip_term=clip_term, value_term=value_term, entropy_term=entropy_term, total=total
    )


def loss_output_gradients(
    outputs: NetworkOutput,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    coeffs: LossCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact partials of the total loss w.r.t. each sample's logits and value.

    Scaled by 1/batch so a summing backprop reproduces the minibatch mean.
    Where the clipped branch of the surrogate is active and binding, the policy
    part of the logits gradient is zero; the entropy part always contributes via
    dH/dz_j = -p_j (ln p_j + H).
    """
    p, log_p, ratio, adv, _, unclipped_active, value_err, entropy = _per_sample_terms(
        outputs, actions, old_log_probs, advantages, value_targets, coeffs
    )
    n = p.shape[0]
    actions = np.asarray(actions)

    # d(-surrogate)/d(new_log_prob): -ratio * A where the unclipped branch is taken
    d_logp = np.where(unclipped_active, -ratio * adv, 0.0)
    one_hot = np.zeros_like(p)
    one_hot[np.arange(n), actions] = 1.0
    d_logits = d_logp[:, None] * (one_hot - p)
    # d(-c2 * H)/dz_j = c2 * p_j (ln p_j + H)
    d_logits += coeffs.c2_effective * p * (log_p + entropy[:, None])
    d_logits /= n

    d_values = coeffs.c1 * value_err / n
    return d_logits, d_values


def ppo_update(
    params: np.ndarray,
    config: NetworkConfig,
    adam_state: AdamState,
    buffer,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    coeffs: LossCoefficients,
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
    epoch's minibatches (or a single evaluation of the full buffer when
    epochs == 0).
    """
    horizon = buffer.horizon
    if horizon % minibatch_size != 0:
        raise ValueError(f"minibatch_size {minibatch_size} must divide horizon {horizon}")
    advantages = np.asarray(advantages, dtype=np.float64)
    value_targets = np.asarray(value_targets, dtype=np.float64)
    if advantages.shape != (horizon,) or value_targets.shape != (horizon,):
        raise ValueError("advantages/value_targets are not aligned with the buffer")

    adv = ADV_TARGET_STD * (advantages - advantages.mean()) / (advantages.std() + ADV_NORM_EPS)

    def _diverged(what: str) -> TrainingDiverged:
        return TrainingDiverged(f"non-finite {what} during ppo update")

    if epochs == 0:
        outputs, _ = forward(params, config, buffer.obs)
        summary = loss_breakdown(
            outputs, buffer.actions, buffer.log_probs, adv, value_targets, coeffs
        )
        return params, adam_state, summary

    last_epoch: list[LossBreakdown] = []
    for epoch in range(epochs):
        order = rng.permutation(horizon)
        is_last = epoch == epochs - 1
        for start in range(0, horizon, minibatch_size):
            idx = order[start : start + minibatch_size]
            outputs, trace = forward(params, config, buffer.obs[idx])
            if not (np.all(np.isfinite(outputs.logits)) and np.all(np.isfinite(outputs.values))):
                raise _diverged("network output")
            breakdown = loss_breakdown(
                outputs, buffer.actions[idx], buffer.log_probs[idx], adv[idx],
                value_targets[idx], coeffs,
            )
            if not np.isfinite(breakdown.total):
                raise _diverged("loss")
            d_logits, d_values = loss_output_gradients(
                outputs, buffer.actions[idx], buffer.log_probs[idx], adv[idx],
                value_targets[idx], coeffs,
            )
            grads = backprop(params, config, trace, d_logits, d_values)
            if not np.all(np.isfinite(grads)):
                raise _diverged("gradient")
            params, adam_state = adam_step(params, grads, adam_state, lr)
            if is_last:
                last_epoch.append(breakdown)

    summary = LossBreakdown(
        clip_term=float(np.mean([b.clip_term for b in last_epoch])),
        value_term=float(np.mean([b.value_term for b in last_epoch])),
        entropy_term=float(np.mean([b.entropy_term for b in last_epoch])),
        total=float(np.mean([b.total for b in last_epoch])),
    )
    return params, adam_state, summary
