import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import axppo.rollout
from axppo.cartpole import CartPoleState, StepResult, reset
from axppo.loss import TrainingDiverged, log_softmax
from axppo.net import NetworkConfig, init_params
from axppo.rollout import RolloutBuffer, collect_rollout, compute_gae, sample_categorical

NET = NetworkConfig(obs_dim=4, hidden_sizes=(8,), action_count=2)


def fresh_cursor(seed=0):
    return (reset(np.random.default_rng(seed)), 0.0)


def collect(params, horizon, seed=0):
    return collect_rollout(
        params, NET, fresh_cursor(seed), horizon,
        action_rng=np.random.default_rng(seed + 100),
        env_rng=np.random.default_rng(seed + 200),
    )


def stub_step(state, action):
    """Terminates every 5th step with reward 1; physics ignored."""
    next_state = CartPoleState(0.0, 0.0, 0.0, 0.0, elapsed_steps=state.elapsed_steps + 1)
    terminated = next_state.elapsed_steps % 5 == 0
    return StepResult(next_state=next_state, reward=1.0, terminated=terminated, truncated=False)


def stub_reset(rng):
    return CartPoleState(0.0, 0.0, 0.0, 0.0)


def use_stub_env(monkeypatch, step_fn=stub_step):
    """Make collect_rollout drive a stub environment for the rest of the test."""
    monkeypatch.setattr(axppo.rollout, "step", step_fn)
    monkeypatch.setattr(axppo.rollout, "reset", stub_reset)


def test_buffer_length_is_exactly_horizon():
    params = init_params(NET, np.random.default_rng(1))
    buffer, completed, cursor = collect(params, 256)
    for arr in (buffer.obs, buffer.actions, buffer.log_probs, buffer.values,
                buffer.rewards, buffer.terminated, buffer.truncated, buffer.next_values):
        assert arr.shape[0] == 256
    # a random policy finishes plenty of episodes in 256 steps
    assert len(completed) >= 1
    assert all(1.0 <= r <= 500.0 for r in completed)
    assert np.all(buffer.log_probs <= 0.0)
    assert np.all(buffer.rewards == 1.0)


def test_collect_rejects_more_than_two_actions():
    net = NetworkConfig(obs_dim=4, hidden_sizes=(8,), action_count=3)
    params = init_params(net, np.random.default_rng(1))
    with pytest.raises(ValueError, match="two actions"):
        collect_rollout(params, net, fresh_cursor(), 8,
                        action_rng=np.random.default_rng(0), env_rng=np.random.default_rng(1))


def test_collect_is_deterministic():
    params = init_params(NET, np.random.default_rng(1))
    b1, s1, c1 = collect(params, 64, seed=3)
    b2, s2, c2 = collect(params, 64, seed=3)
    assert np.array_equal(b1.obs, b2.obs)
    assert np.array_equal(b1.actions, b2.actions)
    assert np.array_equal(b1.log_probs, b2.log_probs)
    assert np.array_equal(b1.next_values, b2.next_values)
    assert s1 == s2
    assert c1 == c2


def test_stub_environment_returns(monkeypatch):
    use_stub_env(monkeypatch)
    params = init_params(NET, np.random.default_rng(1))
    buffer, completed, _ = collect(params, 15)
    assert completed == (5.0, 5.0, 5.0)
    assert buffer.terminated.sum() == 3
    # termination masks the stored next value
    assert np.all(buffer.next_values[buffer.terminated] == 0.0)


def test_cursor_carries_running_return_across_rollouts(monkeypatch):
    use_stub_env(monkeypatch)
    params = init_params(NET, np.random.default_rng(1))
    cursor = (stub_reset(None), 0.0)
    all_returns = []
    for _ in range(4):
        _, completed, cursor = collect_rollout(
            params, NET, cursor, 7,
            action_rng=np.random.default_rng(0), env_rng=np.random.default_rng(1),
        )
        all_returns.extend(completed)
    # 28 steps of 5-step episodes: 5 completed, partial episode in the cursor
    assert all_returns == [5.0] * 5
    assert cursor[1] == 3.0


def test_episode_returns_bounded_by_env_steps():
    params = init_params(NET, np.random.default_rng(2))
    cursor = fresh_cursor(9)
    action_rng, env_rng = np.random.default_rng(10), np.random.default_rng(11)
    total = 0.0
    n_rollouts, horizon = 10, 128
    for _ in range(n_rollouts):
        _, completed, cursor = collect_rollout(
            params, NET, cursor, horizon, action_rng=action_rng, env_rng=env_rng
        )
        total += sum(completed)
    assert total <= n_rollouts * horizon


def test_truncation_bootstraps_with_post_truncation_value(monkeypatch):
    def trunc_step(state, action):
        next_state = CartPoleState(0.5, 0.0, 0.0, 0.0, elapsed_steps=state.elapsed_steps + 1)
        return StepResult(next_state, 1.0, terminated=False,
                          truncated=next_state.elapsed_steps % 4 == 0)

    use_stub_env(monkeypatch, trunc_step)
    params = init_params(NET, np.random.default_rng(1))
    buffer, completed, _ = collect(params, 6)
    assert list(buffer.truncated) == [False, False, False, True, False, False]
    from axppo.net import forward_single, unpack_params
    post_trunc_value = forward_single(unpack_params(params, NET),
                                      np.array([0.5, 0.0, 0.0, 0.0]))[1]
    assert buffer.next_values[3] == pytest.approx(post_trunc_value, abs=1e-15)
    assert completed == (4.0,)


def make_buffer(rewards, values, next_values, terminated, truncated):
    h = len(rewards)
    return RolloutBuffer(
        obs=np.zeros((h, 4)),
        actions=np.zeros(h, dtype=np.intp),
        log_probs=np.zeros(h),
        values=np.asarray(values, dtype=float),
        rewards=np.asarray(rewards, dtype=float),
        terminated=np.asarray(terminated, dtype=bool),
        truncated=np.asarray(truncated, dtype=bool),
        next_values=np.asarray(next_values, dtype=float),
    )


def test_gae_single_terminal_transition():
    buffer = make_buffer([1.0], [0.0], [0.0], [True], [False])
    adv, targets = compute_gae(buffer, gamma=0.99, lam=0.95)
    assert adv[0] == pytest.approx(1.0, abs=1e-12)
    assert targets[0] == pytest.approx(1.0, abs=1e-12)


def test_gae_lambda_zero_equals_td_errors():
    rng = np.random.default_rng(4)
    h = 32
    values = rng.standard_normal(h)
    next_values = rng.standard_normal(h)
    terminated = rng.random(h) < 0.2
    next_values[terminated] = 0.0
    buffer = make_buffer(np.ones(h), values, next_values, terminated, np.zeros(h, bool))
    adv, _ = compute_gae(buffer, gamma=0.97, lam=0.0)
    deltas = 1.0 + 0.97 * next_values * (~terminated) - values
    np.testing.assert_allclose(adv, deltas, rtol=1e-12)


def test_gae_two_step_monte_carlo_identity():
    # rewards [1,1], values [0.5,0.5], gamma=lambda=1, terminal at the end:
    # advantages equal Monte-Carlo return minus value: [1.5, 0.5]
    buffer = make_buffer([1.0, 1.0], [0.5, 0.5], [0.5, 0.0], [False, True], [False, False])
    adv, targets = compute_gae(buffer, gamma=1.0, lam=1.0)
    np.testing.assert_allclose(adv, [1.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(targets, [2.0, 1.0], atol=1e-12)


def test_gae_monte_carlo_identity_on_full_episodes():
    # gamma = lambda = 1 on fully-terminal data: A_t = remaining episode reward - V(s_t)
    rng = np.random.default_rng(7)
    rewards, values, next_values, terminated = [], [], [], []
    for ep_len in (3, 5, 2, 6):
        v = rng.standard_normal(ep_len)
        rewards.extend([1.0] * ep_len)
        values.extend(v)
        next_values.extend(list(v[1:]) + [0.0])
        terminated.extend([False] * (ep_len - 1) + [True])
    buffer = make_buffer(rewards, values, next_values, terminated,
                         np.zeros(len(rewards), bool))
    adv, _ = compute_gae(buffer, gamma=1.0, lam=1.0)
    pos = 0
    for ep_len in (3, 5, 2, 6):
        for t in range(ep_len):
            remaining = ep_len - t
            assert adv[pos + t] == pytest.approx(remaining - values[pos + t], abs=1e-12)
        pos += ep_len


def test_gae_validates_ranges():
    buffer = make_buffer([1.0], [0.0], [0.0], [True], [False])
    with pytest.raises(ValueError):
        compute_gae(buffer, gamma=1.5, lam=0.5)


def test_collect_rejects_bad_horizon():
    params = init_params(NET, np.random.default_rng(1))
    with pytest.raises(ValueError):
        collect(params, 0)


def nan_output_from_step(monkeypatch, k, bad):
    """Make forward_single return a NaN `bad` output ("logits" or "value") from call k on."""
    real = axppo.rollout.forward_single
    calls = []

    def forward_single(unpacked, obs):
        logits, value = real(unpacked, obs)
        calls.append(None)
        if len(calls) > k:
            if bad == "logits":
                logits = np.array([np.nan, 0.0])
            else:
                value = float("nan")
        return logits, value

    monkeypatch.setattr(axppo.rollout, "forward_single", forward_single)


@pytest.mark.parametrize("bad", ["logits", "value"])
def test_non_finite_network_output_names_first_bad_step(monkeypatch, bad):
    # 16 steps from a fresh episode never truncate, so call k is step k
    nan_output_from_step(monkeypatch, 5, bad)
    params = init_params(NET, np.random.default_rng(1))
    with pytest.raises(TrainingDiverged, match=r"^non-finite network output at rollout step 5$"):
        collect(params, 16)


class FixedUniform:
    """Stands in for a Generator whose random() always returns u; counts the draws."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


def searchsorted_rule(probs, u):
    return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)


ONE_ULP_BELOW_HALF = np.nextafter(0.5, 0.0)
U_MAX = np.nextafter(1.0, 0.0)


@given(
    p0=st.floats(0.0, 1.0) | st.just(np.nan),
    p1=st.floats(0.0, 1.0) | st.just(np.nan),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
@example(p0=0.3, p1=0.7, u=0.3)  # u == p[0]
@example(p0=0.0, p1=1.0, u=0.0)
@example(p0=1.0, p1=0.0, u=U_MAX)
@example(p0=0.5, p1=ONE_ULP_BELOW_HALF, u=U_MAX)  # sum one ulp below 1, u above it
@example(p0=0.5, p1=ONE_ULP_BELOW_HALF, u=0.5)
@example(p0=np.nan, p1=np.nan, u=0.5)
@example(p0=0.2, p1=np.nan, u=0.5)
@example(p0=np.nan, p1=0.2, u=0.0)
def test_two_action_sampler_matches_clamped_searchsorted(p0, p1, u):
    probs = np.array([p0, p1])
    rng = FixedUniform(u)
    assert sample_categorical(rng, probs) == searchsorted_rule(probs, u)
    assert rng.draws == 1


def assert_log_softmax2_matches(logits):
    """Bitwise equal wherever log_softmax is not NaN; NaN (of either sign) in the same entries."""
    with np.errstate(all="ignore"):  # inf - inf and the like are inputs here
        expected = log_softmax(logits)
        got = np.array(axppo.rollout._log_softmax2(logits))
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan), logits
    assert got[~nan].tobytes() == expected[~nan].tobytes(), logits


EXTREME = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, 1.0)


@pytest.mark.parametrize("z0", EXTREME)
def test_two_action_log_softmax_matches_on_extreme_logits(z0):
    for z1 in EXTREME:
        assert_log_softmax2_matches(np.array([z0, z1]))


@given(z0=st.floats(width=64), z1=st.floats(width=64))
@example(z0=0.3, z1=0.3)
@example(z0=0.0, z1=-800.0)  # the smaller probability underflows to 0
@example(z0=-1.0, z1=-1.0 + 2**-52)
def test_two_action_log_softmax_matches_log_softmax(z0, z1):
    assert_log_softmax2_matches(np.array([z0, z1]))


@given(z0=st.floats(width=64), z1=st.floats(width=64))
@example(z0=0.0, z1=-800.0)
@example(z0=np.inf, z1=1.0)
def test_two_action_probabilities_match_exp_of_log_softmax(z0, z1):
    """The array sample_categorical reads: Python floats in, the same bytes out as before."""
    logits = np.array([z0, z1])
    with np.errstate(all="ignore"):
        log_p = axppo.rollout._log_softmax2(logits)
        expected = np.exp(log_softmax(logits))
        got = np.exp(log_p)
    assert type(log_p) is tuple and len(log_p) == 2
    assert all(type(x) is float for x in log_p), log_p
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan), logits
    assert got[~nan].tobytes() == expected[~nan].tobytes(), logits
