import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axppo.loss
from axppo.loss import (
    CLIP_EPSILON,
    LossBreakdown,
    TrainingDiverged,
    log_softmax,
    loss_breakdown,
    loss_output_gradients,
    ppo_update,
)
from axppo.net import NetworkConfig, NetworkOutput, backprop, forward, init_params
from axppo.optim import init_adam_state
from axppo.rollout import RolloutBuffer

from oracles import action_log_prob, categorical_entropy, finite_diff_gradient

# |logit| <= 100 keeps z + shift exactly representable at the 1e-12 tolerance
finite_logits = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=6
)


def test_entropy_uniform_two_actions():
    assert categorical_entropy(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_near_deterministic():
    assert categorical_entropy(np.array([50.0, -50.0])) <= 1e-20


def test_entropy_hand_value():
    h = categorical_entropy(np.array([math.log(3), 0.0]))
    # p = (0.75, 0.25)
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert h == pytest.approx(expected, abs=1e-12)
    assert h == pytest.approx(0.5623351, abs=1e-7)


@given(finite_logits)
@settings(max_examples=200)
def test_entropy_bounds(logits):
    h = categorical_entropy(np.array(logits))
    assert -1e-12 <= h <= math.log(len(logits)) + 1e-12


@given(finite_logits, st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=200)
def test_shift_invariance(logits, shift):
    z = np.array(logits)
    assert categorical_entropy(z + shift) == pytest.approx(categorical_entropy(z), abs=1e-12)
    for a in range(len(logits)):
        assert action_log_prob(z + shift, a) == pytest.approx(action_log_prob(z, a), abs=1e-12)


@given(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                min_size=2, max_size=8))
@settings(max_examples=300)
def test_softmax_sums_to_one(logits):
    p = np.exp(log_softmax(np.array(logits)))
    assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


def test_action_log_prob_hand_values():
    assert action_log_prob(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(0.5), abs=1e-12)
    assert action_log_prob(np.array([math.log(3), 0.0]), 0) == pytest.approx(
        math.log(0.75), abs=1e-12
    )
    assert action_log_prob(np.array([math.log(3), 0.0]), 0) == pytest.approx(-0.2876821, abs=1e-7)


def test_action_log_prob_rejects_out_of_range():
    with pytest.raises(ValueError):
        action_log_prob(np.array([0.0, 0.0]), 2)


def surrogate_of_one_sample(ratio, adv):
    """loss_breakdown's clip_term on a one-sample batch whose probability ratio is `ratio`."""
    # uniform logits give new log-prob ln 0.5, so this old log-prob sets the ratio
    outputs = NetworkOutput(logits=np.array([[0.0, 0.0]]), values=np.array([0.0]))
    old_log_prob = math.log(0.5) - math.log(ratio)
    return loss_breakdown(outputs, np.array([0]), np.array([old_log_prob]), np.array([adv]),
                          np.array([0.0]), 0.0).clip_term


@pytest.mark.parametrize("ratio,adv,eps,expected", [
    (1.0, 2.0, 0.2, 2.0),
    (1.5, 1.0, 0.2, 1.2),
    (0.5, -1.0, 0.2, -0.8),
])
def test_clipped_surrogate_hand_values(ratio, adv, eps, expected):
    assert eps == CLIP_EPSILON  # the clip range the expected values were worked out for
    assert surrogate_of_one_sample(ratio, adv) == pytest.approx(expected, abs=1e-12)


@given(st.floats(min_value=0.801, max_value=1.199),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=200)
def test_clip_identity_inside_band(ratio, adv):
    assert surrogate_of_one_sample(ratio, adv) == pytest.approx(ratio * adv, abs=1e-12)


def test_loss_breakdown_single_sample_assembly():
    # ratio 1, A=1, V=0, target=1, uniform logits, value coefficient 0.25, c2_eff=0
    outputs = NetworkOutput(logits=np.array([[0.0, 0.0]]), values=np.array([0.0]))
    bd = loss_breakdown(
        outputs,
        actions=np.array([0]),
        old_log_probs=np.array([math.log(0.5)]),
        advantages=np.array([1.0]),
        value_targets=np.array([1.0]),
        c2_effective=0.0,
    )
    assert bd.clip_term == pytest.approx(1.0, abs=1e-12)
    assert bd.value_term == pytest.approx(0.5, abs=1e-12)
    assert bd.entropy_term == pytest.approx(math.log(2), abs=1e-12)
    assert bd.total == pytest.approx(-0.875, abs=1e-12)


def test_total_independent_of_entropy_when_coefficient_zero():
    rng = np.random.default_rng(0)
    outputs = NetworkOutput(logits=rng.standard_normal((5, 2)), values=rng.standard_normal(5))
    args = dict(
        actions=rng.integers(0, 2, 5),
        old_log_probs=np.log(rng.uniform(0.2, 0.8, 5)),
        advantages=rng.standard_normal(5),
        value_targets=rng.standard_normal(5),
    )
    bd0 = loss_breakdown(outputs, c2_effective=0.0, **args)
    assert bd0.total == pytest.approx(-bd0.clip_term + 0.25 * bd0.value_term, abs=1e-12)
    # doubling c2_eff shifts total by exactly -c2_eff * entropy_term
    bd1 = loss_breakdown(outputs, c2_effective=0.4, **args)
    bd2 = loss_breakdown(outputs, c2_effective=0.8, **args)
    assert bd2.total - bd1.total == pytest.approx(-0.4 * bd1.entropy_term, abs=1e-12)


@pytest.mark.parametrize("name", ["logits", "values", "old_log_probs", "advantages",
                                  "value_targets"])
def test_loss_rejects_non_finite(name):
    inputs = dict(logits=np.array([[0.3, 0.0]]), values=np.array([0.0]),
                  old_log_probs=np.array([-0.7]), advantages=np.array([1.0]),
                  value_targets=np.array([0.0]))
    inputs[name] = np.full_like(inputs[name], np.nan)
    outputs = NetworkOutput(logits=inputs["logits"], values=inputs["values"])
    with pytest.raises(ValueError, match=f"non-finite entries in {name}$"):
        loss_output_gradients(outputs, np.array([0]), inputs["old_log_probs"],
                              inputs["advantages"], inputs["value_targets"], 0.0)


def _two_sample_inputs(**override):
    inputs = dict(logits=np.array([[0.3, 0.0], [0.1, 0.2]]), values=np.array([0.0, 0.5]),
                  old_log_probs=np.array([-0.7, -0.6]), advantages=np.array([1.0, -1.0]),
                  value_targets=np.array([0.0, 0.2]))
    inputs.update(override)
    outputs = NetworkOutput(logits=inputs.pop("logits"), values=inputs.pop("values"))
    return outputs, inputs


def test_loss_rejects_opposite_infinities_without_warning():
    outputs, inputs = _two_sample_inputs(advantages=np.array([np.inf, -np.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entries in advantages$"):
            loss_output_gradients(outputs, np.array([0, 1]), c2_effective=0.0, **inputs)


def test_loss_accepts_finite_inputs_whose_sum_overflows_without_warning():
    outputs, inputs = _two_sample_inputs(logits=np.full((2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        breakdown, d_logits, d_values = loss_output_gradients(
            outputs, np.array([0, 1]), c2_effective=0.0, **inputs
        )
    assert math.isfinite(breakdown.total)
    assert np.isfinite(d_logits).all() and np.isfinite(d_values).all()


def test_value_partial_matches_hand_derivative():
    rng = np.random.default_rng(3)
    n = 6
    outputs = NetworkOutput(logits=rng.standard_normal((n, 2)), values=rng.standard_normal(n))
    targets = rng.standard_normal(n)
    _, _, d_values = loss_output_gradients(
        outputs, rng.integers(0, 2, n), np.log(rng.uniform(0.2, 0.8, n)),
        rng.standard_normal(n), targets, 0.0,
    )
    np.testing.assert_allclose(d_values, 0.25 * (outputs.values - targets) / n, rtol=1e-12)


def test_clipped_and_binding_sample_has_zero_policy_gradient():
    # one sample with ratio ~1.5 and positive advantage: min picks the clipped
    # branch, so only the entropy part can reach the logits; with c2_eff=0 the
    # logits gradient must vanish entirely
    logits = np.array([[math.log(3.0), 0.0]])  # p(a=0) = 0.75
    old_log_prob = math.log(0.5)  # ratio 1.5
    outputs = NetworkOutput(logits=logits, values=np.array([0.0]))
    _, d_logits, _ = loss_output_gradients(
        outputs, np.array([0]), np.array([old_log_prob]), np.array([2.0]),
        np.array([0.0]), 0.0,
    )
    np.testing.assert_allclose(d_logits, np.zeros((1, 2)), atol=1e-15)


def _random_loss_instance(rng):
    obs_dim = int(rng.integers(2, 5))
    hidden = tuple(int(h) for h in rng.integers(3, 9, size=int(rng.integers(1, 3))))
    actions = int(rng.integers(2, 4))
    cfg = NetworkConfig(obs_dim=obs_dim, hidden_sizes=hidden, action_count=actions)
    params = init_params(cfg, rng) + 0.1 * rng.standard_normal(cfg.param_count)
    n = int(rng.integers(3, 9))
    data = dict(
        obs=rng.standard_normal((n, obs_dim)),
        actions=rng.integers(0, actions, n),
        old_log_probs=np.log(rng.uniform(0.2, 0.9, n)),
        advantages=rng.standard_normal(n),
        value_targets=rng.standard_normal(n),
    )
    return cfg, params, data, float(rng.uniform(0.05, 0.3))


def gradcheck_max_rel_error(rng, instances, h=1e-5):
    """Worst relative disagreement between backprop and central differences."""
    worst = 0.0
    for _ in range(instances):
        cfg, params, data, c2 = _random_loss_instance(rng)

        def loss_fn(p):
            out, _ = forward(p, cfg, data["obs"])
            return loss_breakdown(out, data["actions"], data["old_log_probs"],
                                  data["advantages"], data["value_targets"], c2).total

        out, trace = forward(params, cfg, data["obs"])
        _, d_logits, d_values = loss_output_gradients(
            out, data["actions"], data["old_log_probs"], data["advantages"],
            data["value_targets"], c2,
        )
        analytic = backprop(cfg, trace, d_logits, d_values)
        numeric = finite_diff_gradient(loss_fn, params, h)
        denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


def test_gradient_matches_finite_differences():
    assert gradcheck_max_rel_error(np.random.default_rng(20240601), instances=6) <= 1e-4


def _synthetic_buffer(rng, horizon=64, obs_dim=4):
    cfg = NetworkConfig(obs_dim=obs_dim, hidden_sizes=(8, 8), action_count=2)
    params = init_params(cfg, rng)
    obs = rng.standard_normal((horizon, obs_dim))
    out, _ = forward(params, cfg, obs)
    actions = rng.integers(0, 2, horizon)
    log_p = log_softmax(out.logits)
    return cfg, params, RolloutBuffer(
        obs=obs,
        actions=actions,
        log_probs=log_p[np.arange(horizon), actions],
        values=out.values,
        rewards=np.ones(horizon),
        terminated=np.zeros(horizon, dtype=bool),
        truncated=np.zeros(horizon, dtype=bool),
        next_values=np.zeros(horizon),
    )


@pytest.mark.parametrize("epochs", [0, -1])
def test_ppo_update_rejects_epochs_below_one(epochs):
    rng = np.random.default_rng(5)
    cfg, params, buffer = _synthetic_buffer(rng)
    adv, targets = rng.standard_normal(64), rng.standard_normal(64)
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        ppo_update(
            params, cfg, init_adam_state(cfg.param_count), buffer, adv, targets,
            0.1, epochs=epochs, minibatch_size=32, lr=1e-3,
            rng=np.random.default_rng(0),
        )


@pytest.mark.parametrize("schedule", [
    dict(epochs=1.5), dict(epochs=True),
    dict(minibatch_size=32.0), dict(minibatch_size=np.float64(32)),
])
def test_ppo_update_rejects_non_integer_schedule(schedule):
    # floats used to raise TypeError from range(); True ran as one epoch
    rng = np.random.default_rng(5)
    cfg, params, buffer = _synthetic_buffer(rng)
    adv, targets = rng.standard_normal(64), rng.standard_normal(64)
    (name, value), = schedule.items()
    message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        ppo_update(
            params, cfg, init_adam_state(cfg.param_count), buffer, adv, targets,
            0.1, **{"epochs": 1, "minibatch_size": 32, **schedule}, lr=1e-3,
            rng=np.random.default_rng(0),
        )


@pytest.mark.parametrize("minibatch_size", [0, -64])
def test_ppo_update_rejects_minibatch_size_below_one(minibatch_size):
    # 0 used to raise ZeroDivisionError; -64 ran no minibatch and returned a NaN breakdown
    rng = np.random.default_rng(5)
    cfg, params, buffer = _synthetic_buffer(rng)
    adv, targets = rng.standard_normal(64), rng.standard_normal(64)
    with pytest.raises(ValueError, match="minibatch_size must be >= 1"):
        ppo_update(
            params, cfg, init_adam_state(cfg.param_count), buffer, adv, targets,
            0.1, epochs=1, minibatch_size=minibatch_size, lr=1e-3,
            rng=np.random.default_rng(0),
        )


def test_ppo_update_makes_one_loss_pass_per_minibatch(monkeypatch):
    calls = {"loss_output_gradients": 0, "loss_breakdown": 0}

    def counted(name):
        fn = getattr(axppo.loss, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(axppo.loss, name, counted(name))
    rng = np.random.default_rng(5)
    cfg, params, buffer = _synthetic_buffer(rng)
    epochs, minibatch_size = 3, 16
    _, _, summary = ppo_update(
        params, cfg, init_adam_state(cfg.param_count), buffer, rng.standard_normal(64),
        rng.standard_normal(64), 0.1, epochs=epochs,
        minibatch_size=minibatch_size, lr=1e-3, rng=np.random.default_rng(0),
    )
    assert calls == {"loss_output_gradients": epochs * 64 // minibatch_size,
                     "loss_breakdown": 0}
    assert isinstance(summary, LossBreakdown)


def test_ppo_update_decreases_loss_on_fixed_buffer():
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        cfg, params, buffer = _synthetic_buffer(rng)
        raw_adv = rng.standard_normal(64)
        targets = rng.standard_normal(64)
        c2 = 0.05
        # same normalization ppo_update applies internally
        from axppo.loss import ADV_TARGET_STD
        adv_n = ADV_TARGET_STD * (raw_adv - raw_adv.mean()) / (raw_adv.std() + 1e-8)

        def total_loss(p):
            out, _ = forward(p, cfg, buffer.obs)
            return loss_breakdown(out, buffer.actions, buffer.log_probs, adv_n,
                                  targets, c2).total

        before = total_loss(params)
        new_params, _, _ = ppo_update(
            params, cfg, init_adam_state(cfg.param_count), buffer, raw_adv, targets,
            c2, epochs=1, minibatch_size=32, lr=1e-3, rng=np.random.default_rng(seed),
        )
        if total_loss(new_params) < before:
            wins += 1
    assert wins >= 4


def test_ppo_update_diverges_on_nan_buffer():
    rng = np.random.default_rng(9)
    cfg, params, buffer = _synthetic_buffer(rng)
    bad_params = params.copy()
    bad_params[-1] = np.inf  # value-head bias: reaches the output unsquashed
    with pytest.raises(TrainingDiverged):
        ppo_update(bad_params, cfg, init_adam_state(cfg.param_count), buffer,
                   rng.standard_normal(64), rng.standard_normal(64),
                   0.0, epochs=1, minibatch_size=32, lr=1e-3,
                   rng=np.random.default_rng(0))


def test_ppo_update_diverges_on_non_finite_gradient(monkeypatch):
    rng = np.random.default_rng(9)
    cfg, params, buffer = _synthetic_buffer(rng)

    def nan_backprop(*args, **kwargs):
        grads = backprop(*args, **kwargs)
        grads[3] = np.nan
        return grads

    monkeypatch.setattr(axppo.loss, "backprop", nan_backprop)
    with pytest.raises(TrainingDiverged, match="^non-finite gradient during ppo update$"):
        ppo_update(params, cfg, init_adam_state(cfg.param_count), buffer,
                   rng.standard_normal(64), rng.standard_normal(64), 0.0, epochs=1,
                   minibatch_size=32, lr=1e-3, rng=np.random.default_rng(0))


@pytest.mark.parametrize("name", ["advantages", "value_targets", "buffer.log_probs"])
def test_ppo_update_checks_fixed_inputs_before_first_minibatch(monkeypatch, name):
    forward_calls = []

    def counted_forward(*args, **kwargs):
        forward_calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(axppo.loss, "forward", counted_forward)
    rng = np.random.default_rng(9)
    cfg, params, buffer = _synthetic_buffer(rng)
    inputs = dict(advantages=rng.standard_normal(64), value_targets=rng.standard_normal(64))
    if name == "buffer.log_probs":
        buffer.log_probs[5] = np.nan
    else:
        inputs[name][5] = np.nan
    with pytest.raises(TrainingDiverged, match=f"non-finite {name} "):
        ppo_update(params, cfg, init_adam_state(cfg.param_count), buffer,
                   inputs["advantages"], inputs["value_targets"], 0.0, epochs=1,
                   minibatch_size=32, lr=1e-3, rng=np.random.default_rng(0))
    assert forward_calls == []


@pytest.mark.parametrize("lr", [0.0, -1e-3])
def test_ppo_update_rejects_non_positive_lr_as_value_error(lr):
    rng = np.random.default_rng(9)
    cfg, params, buffer = _synthetic_buffer(rng)
    with pytest.raises(ValueError, match="lr must be > 0") as exc:
        ppo_update(params, cfg, init_adam_state(cfg.param_count), buffer,
                   rng.standard_normal(64), rng.standard_normal(64), 0.0, epochs=1,
                   minibatch_size=32, lr=lr, rng=np.random.default_rng(0))
    assert not isinstance(exc.value, TrainingDiverged)
