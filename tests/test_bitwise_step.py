"""The minibatch step against its plain numpy form (tests/oracles.py), byte for byte.

forward, loss_output_gradients, backprop and adam_step call ufuncs and BLAS
directly; every float they return must have the bytes the operator and
method forms give.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from axppo.loss import log_softmax, loss_output_gradients
from axppo.net import NetworkConfig, backprop, forward, init_params
from axppo.optim import ADAM_BETA1, AdamState, adam_step

from oracles import (
    reference_adam_step,
    reference_backprop,
    reference_forward,
    reference_loss_output_gradients,
)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    action_count=st.sampled_from([2, 3]),
    weight_scale=st.sampled_from([0.1, 1.0, 30.0]),  # 30 saturates the tanh trunk
    log_ratio_scale=st.sampled_from([0.0, 0.05, 1.0]),  # 0: every ratio is 1, a tie
    c2=st.just(0.0) | st.floats(0.0, 2.0),
)
@example(seed=0, n=1, action_count=2, weight_scale=1.0, log_ratio_scale=0.05, c2=0.1)
@example(seed=1, n=64, action_count=2, weight_scale=30.0, log_ratio_scale=1.0, c2=0.8)
@example(seed=2, n=64, action_count=2, weight_scale=1.0, log_ratio_scale=0.0, c2=0.0)
@example(seed=3, n=1, action_count=3, weight_scale=30.0, log_ratio_scale=0.0, c2=0.0)
def test_minibatch_step_matches_plain_numpy_bytes(
    seed, n, action_count, weight_scale, log_ratio_scale, c2
):
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=action_count)
    rng = np.random.default_rng(seed)
    params = weight_scale * init_params(cfg, rng) + 0.01 * rng.standard_normal(cfg.param_count)
    obs = rng.standard_normal((n, 4)) * np.array([1.0, 2.0, 0.2, 2.0])
    actions = rng.integers(0, action_count, n)
    advantages = rng.standard_normal(n)
    advantages[rng.random(n) < 0.2] = 0.0  # unclipped == clipped at any ratio
    value_targets = rng.standard_normal(n)

    out, trace = forward(params, cfg, obs)
    ref_out, ref_trace = reference_forward(params, cfg, obs)
    assert same_bytes(out.logits, ref_out.logits) and same_bytes(out.values, ref_out.values)
    assert all(map(same_bytes, trace.activations, ref_trace.activations))

    # old log-probs a small or large log-ratio away from the current ones: ratios inside
    # the clip band tie the two branches, ratios outside it clip
    log_probs = log_softmax(out.logits)[np.arange(n), actions]
    old_log_probs = np.minimum(log_probs - log_ratio_scale * rng.standard_normal(n), 0.0)
    args = (out, actions, old_log_probs, advantages, value_targets, c2)
    breakdown, d_logits, d_values = loss_output_gradients(*args)
    ref_breakdown, ref_d_logits, ref_d_values = reference_loss_output_gradients(*args)
    assert same_bytes(astuple(breakdown), astuple(ref_breakdown))
    assert same_bytes(d_logits, ref_d_logits) and same_bytes(d_values, ref_d_values)

    grads = backprop(cfg, trace, d_logits, d_values)
    assert same_bytes(grads, reference_backprop(cfg, ref_trace, d_logits, d_values))


def test_bias_correction_reaches_one_at_step_356():
    """The steps the Adam test pins straddle the switch from divide to multiply."""
    assert 1.0 - ADAM_BETA1**355 != 1.0
    assert all(1.0 - ADAM_BETA1**t == 1.0 for t in (356, 357, 9360))


@pytest.mark.parametrize("t", [1, 355, 356, 357, 9360])
@given(seed=st.integers(0, 2**32 - 1), lr=st.floats(1e-6, 1.0))
def test_adam_step_matches_plain_numpy_bytes(t, seed, lr):
    rng = np.random.default_rng(seed)
    size = 4675
    scale = 10.0 ** rng.uniform(-8, 3, size)
    params = rng.standard_normal(size)
    grads = rng.standard_normal(size) * scale
    state = AdamState(
        first_moment=rng.standard_normal(size) * scale,
        second_moment=np.abs(rng.standard_normal(size)) * scale * scale,
        step_count=t - 1,
    )
    new_params, new_state = adam_step(params, grads, state, lr)
    ref_params, ref_state = reference_adam_step(params, grads, state, lr)
    assert new_state.step_count == ref_state.step_count == t
    assert same_bytes(new_params, ref_params)
    assert same_bytes(new_state.first_moment, ref_state.first_moment)
    assert same_bytes(new_state.second_moment, ref_state.second_moment)
