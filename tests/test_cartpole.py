import math

import numpy as np
import pytest

from axppo.cartpole import MAX_RETURN, CartPoleState, reset, step


def hand_step(state, action):
    """Independent application of the published dynamics equations and constants."""
    gravity, cart_mass, pole_mass, half_length, dt = 9.8, 1.0, 0.1, 0.5, 0.02
    force = 10.0 if action == 1 else -10.0
    total_mass = cart_mass + pole_mass
    pml = pole_mass * half_length
    sin_t, cos_t = math.sin(state.theta), math.cos(state.theta)
    temp = (force + pml * state.theta_dot**2 * sin_t) / total_mass
    theta_acc = (gravity * sin_t - cos_t * temp) / (
        half_length * (4.0 / 3.0 - pole_mass * cos_t**2 / total_mass)
    )
    x_acc = temp - pml * theta_acc * cos_t / total_mass
    return (
        state.x + dt * state.x_dot,
        state.x_dot + dt * x_acc,
        state.theta + dt * state.theta_dot,
        state.theta_dot + dt * theta_acc,
    )


def test_step_from_rest_push_right():
    result = step(CartPoleState(0.0, 0.0, 0.0, 0.0), 1)
    s = result.next_state
    assert s.x == pytest.approx(0.0, abs=1e-12)
    assert s.theta == pytest.approx(0.0, abs=1e-12)
    assert s.x_dot == pytest.approx(0.1951220, abs=1e-6)
    assert s.theta_dot == pytest.approx(-0.2926829, abs=1e-6)
    assert result.reward == 1.0
    assert not result.terminated and not result.truncated


@pytest.mark.parametrize("seed", [0, 1, 99])
@pytest.mark.parametrize("action", [0, 1])
def test_step_matches_hand_derived_dynamics(seed, action):
    rng = np.random.default_rng(seed)
    state = CartPoleState(*rng.uniform(-0.2, 0.2, size=4), elapsed_steps=3)
    got = step(state, action).next_state
    want = hand_step(state, action)
    np.testing.assert_allclose([got.x, got.x_dot, got.theta, got.theta_dot], want, rtol=1e-12)
    assert got.elapsed_steps == 4


def test_position_boundary_terminates():
    result = step(CartPoleState(2.39, 1.0, 0.0, 0.0), 0)
    assert result.next_state.x == pytest.approx(2.41, abs=1e-12)
    assert result.terminated
    assert result.reward == 1.0


def test_angle_boundary_terminates():
    result = step(CartPoleState(0.0, 0.0, 0.205, 0.5), 1)
    assert abs(result.next_state.theta) > 12.0 * math.pi / 180.0
    assert result.terminated


def test_truncation_at_step_limit():
    result = step(CartPoleState(0.0, 0.0, 0.0, 0.0, elapsed_steps=499), 1)
    assert result.next_state.elapsed_steps == 500
    assert result.truncated
    assert not result.terminated
    assert result.reward == 1.0


def test_termination_wins_over_truncation():
    result = step(CartPoleState(2.39, 1.0, 0.0, 0.0, elapsed_steps=499), 1)
    assert result.terminated
    assert not result.truncated


def test_invalid_action_rejected():
    with pytest.raises(ValueError):
        step(CartPoleState(0.0, 0.0, 0.0, 0.0), 2)


def test_reset_within_bounds_and_deterministic():
    s1 = reset(np.random.default_rng(5))
    s2 = reset(np.random.default_rng(5))
    assert s1 == s2
    for v in (s1.x, s1.x_dot, s1.theta, s1.theta_dot):
        assert -0.05 <= v <= 0.05
    assert s1.elapsed_steps == 0


def test_reset_sample_mean_near_zero():
    rng = np.random.default_rng(1234)
    samples = np.array([reset(rng).as_obs() for _ in range(10_000)])
    assert np.all(np.abs(samples.mean(axis=0)) < 0.005)


def test_step_is_deterministic():
    state = CartPoleState(0.01, -0.02, 0.03, -0.04, elapsed_steps=7)
    r1, r2 = step(state, 1), step(state, 1)
    assert r1 == r2


def test_every_action_sequence_ends_within_limit():
    rng = np.random.default_rng(8)
    state = reset(rng)
    for i in range(600):
        result = step(state, int(rng.integers(0, 2)))
        if result.terminated or result.truncated:
            break
        state = result.next_state
    assert result.terminated or result.truncated
    assert result.next_state.elapsed_steps <= 500


@pytest.mark.parametrize("first_action", [0, 1])
def test_alternating_actions_keep_cart_in_bounds(first_action):
    # raw dynamics rollout: the pole tips past its threshold around step 33,
    # but the cart itself stays far inside the track for 50+ steps
    state = CartPoleState(0.0, 0.0, 0.0, 0.0)
    for i in range(50):
        result = step(state, (first_action + i) % 2)
        assert abs(result.next_state.x) < 2.4
        state = result.next_state


def test_max_return():
    assert MAX_RETURN == 500.0
