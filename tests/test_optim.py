import numpy as np
import pytest

from axppo.optim import AdamState, adam_step, init_adam_state

from oracles import finite_diff_gradient


def test_zero_gradient_is_identity():
    params = np.array([0.3, -1.2, 4.0])
    state = init_adam_state(3)
    p = params
    for _ in range(25):
        p, state = adam_step(p, np.zeros(3), state, lr=0.01)
    assert np.array_equal(p, params)
    assert state.step_count == 25


def test_first_step_bias_correction():
    # fresh state, scalar grad 0.5: update = -lr * g / (sqrt(g^2) + eps) ~ -lr * sign(g)
    params = np.array([1.0])
    new_params, state = adam_step(params, np.array([0.5]), init_adam_state(1), lr=1e-3)
    delta = new_params[0] - 1.0
    assert delta == pytest.approx(-1e-3 * 0.5 / (0.5 + 1e-8), abs=1e-15)
    assert delta == pytest.approx(-1e-3, rel=1e-6)
    assert state.step_count == 1
    assert np.all(state.second_moment >= 0.0)


def test_adam_step_is_pure():
    rng = np.random.default_rng(0)
    params = rng.standard_normal(10)
    grads = rng.standard_normal(10)
    state = AdamState(rng.standard_normal(10) * 0.01, np.abs(rng.standard_normal(10)) * 0.01, 5)
    params_copy, grads_copy = params.copy(), grads.copy()
    m_copy, v_copy = state.first_moment.copy(), state.second_moment.copy()
    out1 = adam_step(params, grads, state, lr=3e-4)
    out2 = adam_step(params, grads, state, lr=3e-4)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1].first_moment, out2[1].first_moment)
    assert np.array_equal(out1[1].second_moment, out2[1].second_moment)
    assert np.array_equal(params, params_copy)
    assert np.array_equal(grads, grads_copy)
    assert np.array_equal(state.first_moment, m_copy)
    assert np.array_equal(state.second_moment, v_copy)
    new_params, new_state = out1
    outputs = [new_params, new_state.first_moment, new_state.second_moment]
    inputs = [params, grads, state.first_moment, state.second_moment]
    assert not any(np.shares_memory(o, i) for o in outputs for i in inputs)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(outputs) for b in outputs[i + 1:])


def test_adam_step_matches_reference_formula_bitwise():
    # the textbook expression, evaluated with fresh temporaries, is the reference
    rng = np.random.default_rng(1)
    params = rng.standard_normal(50)
    m, v, p = np.zeros(50), np.zeros(50), params
    state = init_adam_state(50)
    for t in range(1, 51):
        g = rng.standard_normal(50) * 10.0 ** rng.uniform(-6, 2)
        params, state = adam_step(params, g, state, lr=1e-3)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        p = p - 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        assert np.array_equal(params, p)
        assert np.array_equal(state.first_moment, m) and np.array_equal(state.second_moment, v)


def test_rejects_non_finite_gradients():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.array([1.0, np.nan]), init_adam_state(2), lr=1e-3)


def test_rejects_bad_lr_and_shapes():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(2), init_adam_state(2), lr=0.0)
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), init_adam_state(2), lr=1e-3)


def test_finite_diff_quadratic():
    theta = np.array([0.5, -2.0, 3.0])
    grad = finite_diff_gradient(lambda p: float(p @ p), theta, h=1e-5)
    np.testing.assert_allclose(grad, 2 * theta, rtol=1e-8, atol=1e-9)


def test_finite_diff_constant_loss():
    grad = finite_diff_gradient(lambda p: 7.25, np.array([1.0, 2.0]), h=1e-5)
    assert np.all(grad == 0.0)


def test_finite_diff_non_finite_loss():
    with pytest.raises(RuntimeError):
        finite_diff_gradient(lambda p: float("nan"), np.array([1.0]), h=1e-5)
