import importlib
from dataclasses import replace

import numpy as np
import pytest

import axppo.loss
import axppo.rollout
from axppo.cli import main
from axppo.net import init_params, load_checkpoint, unpack_params
from axppo.train import (
    LOG_HEADER,
    TrainConfig,
    evaluate,
    train,
    write_update_log,
)
from oracles import reference_evaluate

FAST = dict(total_env_steps=512, eval_episodes=3)


def test_config_defaults_and_validation():
    cfg = TrainConfig()
    assert cfg.num_updates == 60_000 // 256 == 234
    assert TrainConfig(**FAST).num_updates == 2
    with pytest.raises(ValueError):
        TrainConfig(mode="greedy")
    with pytest.raises(ValueError):
        TrainConfig(tau=0)
    with pytest.raises(ValueError):
        TrainConfig(total_env_steps=100)  # less than one horizon
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    for mode in ("standard", "adaptive"):
        for c2 in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ValueError, match="c2_base must be finite and >= 0"):
                TrainConfig(mode=mode, c2_base=c2)
    # non-integers used to fail later, in range(), a slice, SeedSequence or evaluate
    for name, value in (("tau", 2.5), ("total_env_steps", 1000.5), ("seed", 1.5),
                        ("eval_episodes", 2.5), ("total_env_steps", 60_000.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})
    assert TrainConfig(tau=np.int64(5), seed=np.int64(2)).tau == 5


def test_two_updates_two_records():
    result = train(TrainConfig(**FAST))
    assert not result.diverged
    assert len(result.records) == 2
    for t, rec in enumerate(result.records):
        assert rec.update_index == t
        assert rec.env_steps_so_far == (t + 1) * 256
        assert 0.0 <= rec.g_recent <= 1.0
        assert np.isfinite(rec.loss.total)
    assert result.params.shape == (TrainConfig().net_config().param_count,)
    assert np.all(np.isfinite(result.params))


def test_training_is_deterministic():
    cfg = TrainConfig(mode="adaptive", c2_base=0.3, tau=2, total_env_steps=768, seed=11)
    r1, r2 = train(cfg), train(cfg)
    assert np.array_equal(r1.params, r2.params)
    assert r1.records == r2.records


def test_standard_mode_logs_constant_coefficient():
    cfg = TrainConfig(mode="standard", c2_base=0.25, total_env_steps=768)
    result = train(cfg)
    for rec in result.records:
        assert rec.c2_effective == 0.25


def test_adaptive_mode_logs_exact_product():
    cfg = TrainConfig(mode="adaptive", c2_base=0.5, tau=3, total_env_steps=1024)
    result = train(cfg)
    for rec in result.records:
        assert rec.c2_effective == rec.g_recent * 0.5
        assert 0.0 <= rec.c2_effective <= 0.5


def check_g_recent_window(tau):
    cfg = TrainConfig(mode="adaptive", c2_base=0.1, tau=tau, total_env_steps=1024)
    result = train(cfg)
    returns = [rec.batch_mean_return for rec in result.records]
    for t, rec in enumerate(result.records):
        window = returns[max(0, t + 1 - tau) : t + 1]
        assert rec.g_recent == pytest.approx(np.mean(window) / 500.0, abs=1e-12)


# 1024 steps are 4 updates, so at tau=2 the window evicts its oldest return
def test_g_recent_tracks_window_of_batch_returns():
    check_g_recent_window(2)


# tau=1 tracks the latest return; tau=5 never fills, so it reads the mean of every return so far
@pytest.mark.parametrize("tau", [1, 5])
def test_g_recent_tracks_latest_or_unfilled_window(tau):
    check_g_recent_window(tau)


def test_batch_mean_return_carries_forward_when_no_episode_finishes(monkeypatch):
    # no real 256-step rollout finishes zero episodes, so the reported returns are chosen
    real_collect = axppo.rollout.collect_rollout
    reported = iter([(100.0, 200.0, 300.0), (), (500.0,)])

    def collect_rollout(*args, **kwargs):
        buffer, _, cursor = real_collect(*args, **kwargs)
        return buffer, next(reported), cursor

    train_mod = importlib.import_module("axppo.train")
    monkeypatch.setattr(train_mod, "collect_rollout", collect_rollout)
    result = train(TrainConfig(total_env_steps=768))
    assert [r.batch_mean_return for r in result.records] == [200.0, 200.0, 500.0]


def test_zero_coefficient_modes_identical_bitwise():
    base = dict(c2_base=0.0, tau=5, total_env_steps=1024, seed=31)
    r_std = train(TrainConfig(mode="standard", **base))
    r_ad = train(TrainConfig(mode="adaptive", **base))
    assert np.array_equal(r_std.params, r_ad.params)
    assert [r.loss for r in r_std.records] == [r.loss for r in r_ad.records]


def test_standard_mode_ignores_tau():
    # the sweep trains every standard cell once and shows it as one table row
    base = dict(mode="standard", c2_base=0.1, total_env_steps=1024, seed=8, eval_episodes=3)
    r1, r50 = train(TrainConfig(tau=1, **base)), train(TrainConfig(tau=50, **base))
    assert np.array_equal(r1.params, r50.params)
    assert [replace(r, g_recent=0.0) for r in r1.records] \
        == [replace(r, g_recent=0.0) for r in r50.records]
    assert [r.g_recent for r in r1.records] != [r.g_recent for r in r50.records]
    cfg = TrainConfig(**base)
    assert evaluate(r1.params, cfg, np.random.default_rng(12)).per_episode_returns \
        == evaluate(r50.params, cfg, np.random.default_rng(12)).per_episode_returns


@pytest.mark.parametrize("a, b", [(1, 5), (5, 12), (12, 200)])
def test_a_shorter_window_is_a_prefix_of_a_longer_one(a, b):
    # windows of a and b > a returns hold the same entries until update a, when the shorter
    # one first evicts, so every update before it is shared bit for bit
    short, long = (train(TrainConfig(mode="adaptive", c2_base=0.8, tau=tau, seed=2,
                                     total_env_steps=(a + 1) * 256)).records
                   for tau in (a, b))
    assert short[:a] == long[:a]
    assert short[a].g_recent != long[a].g_recent


def test_divergence_aborts_with_marker(monkeypatch):
    calls = {"n": 0}
    real_update = axppo.loss.ppo_update

    def flaky_update(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise axppo.loss.TrainingDiverged("synthetic blow-up")
        return real_update(*args, **kwargs)

    train_mod = importlib.import_module("axppo.train")
    monkeypatch.setattr(train_mod, "ppo_update", flaky_update)
    result = train(TrainConfig(total_env_steps=1024))
    assert result.diverged
    assert "synthetic blow-up" in result.error
    assert len(result.records) == 1  # records collected before the abort survive


def test_non_finite_rollout_output_stops_training(monkeypatch):
    # NaN logits from step 40 of the second rollout on
    real_collect, real_forward = axppo.rollout.collect_rollout, axppo.rollout.forward_single
    rollouts, steps = [], []

    def collect_rollout(*args, **kwargs):
        rollouts.append(None)
        steps.clear()
        return real_collect(*args, **kwargs)

    def forward_single(unpacked, obs):
        logits, value = real_forward(unpacked, obs)
        steps.append(None)
        if len(rollouts) == 2 and len(steps) > 40:
            logits = np.full_like(logits, np.nan)
        return logits, value

    train_mod = importlib.import_module("axppo.train")
    monkeypatch.setattr(train_mod, "collect_rollout", collect_rollout)
    monkeypatch.setattr(axppo.rollout, "forward_single", forward_single)
    result = train(TrainConfig(total_env_steps=768))
    assert result.diverged
    assert result.error == "non-finite network output at rollout step 40"
    monkeypatch.undo()
    one_update = train(TrainConfig(total_env_steps=256))
    assert result.records == one_update.records
    assert np.array_equal(result.params, one_update.params)


def test_non_finite_parameters_stop_training_at_the_last_finite_ones(monkeypatch, tmp_path):
    # the 80th Adam step is the last minibatch of update 2: no later forward pass would see
    # its infinite weight, so only ppo_update's check of the parameters it returns can
    real_step, steps = axppo.loss.adam_step, []

    def adam_step(*args, **kwargs):
        params, state = real_step(*args, **kwargs)
        steps.append(None)
        if len(steps) == 80:
            params = params.copy()
            params[0] = np.inf
        return params, state

    monkeypatch.setattr(axppo.loss, "adam_step", adam_step)
    result = train(TrainConfig(total_env_steps=768))
    steps.clear()
    assert main(["train", "--total-steps", "768", "--out", str(tmp_path)]) == 1
    monkeypatch.undo()
    assert len(result.records) == 1
    assert result.error.startswith("non-finite parameters")
    assert np.array_equal(result.params, train(TrainConfig(total_env_steps=256)).params)
    # the checkpoint written for the diverged run holds those finite parameters
    _, params = load_checkpoint(tmp_path / "checkpoint.txt")
    assert np.array_equal(params, result.params)


def test_evaluate_reports_per_episode_returns():
    cfg = TrainConfig(**FAST)
    result = train(cfg)
    report = evaluate(result.params, cfg, np.random.default_rng(0))
    assert len(report.per_episode_returns) == 3
    assert report.mean_return == pytest.approx(np.mean(report.per_episode_returns))
    assert all(1.0 <= r <= 500.0 for r in report.per_episode_returns)


def test_evaluate_single_episode():
    cfg = TrainConfig(total_env_steps=512, eval_episodes=1)
    result = train(cfg)
    report = evaluate(result.params, cfg, np.random.default_rng(5))
    assert len(report.per_episode_returns) == 1
    assert report.mean_return == report.per_episode_returns[0]
    assert report.std == 0.0


def test_evaluate_hand_built_always_right_policy():
    cfg = TrainConfig(total_env_steps=512, eval_episodes=5)
    report = evaluate(_policy("always_right"), cfg, np.random.default_rng(2))
    assert all(1.0 <= r < 500.0 for r in report.per_episode_returns)
    assert report.mean_return < 50.0  # the pole falls quickly


def _policy(kind: str) -> np.ndarray:
    """Evaluation policies whose episodes end early, at random, and at the time limit."""
    net = TrainConfig().net_config()
    if kind == "untrained":
        return init_params(net, np.random.default_rng(9))
    params = np.zeros(net.param_count)
    layers = unpack_params(params, net)
    if kind == "always_right":
        layers[-2][1][:] = [-20.0, 20.0]  # policy head bias: the pole falls in about ten steps
    else:  # "balancing": push towards the lean, theta + theta_dot / 2; lasts 500 steps
        layers[0][0][:, 0] = [0.0, 0.0, 50.0, 25.0]
        layers[1][0][0, 0] = 3.0
        layers[-2][0][0] = [-20.0, 20.0]
    return params


def _same_state(a, b) -> bool:
    """bit_generator.state equality; MT19937 keeps its key as an array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("policy", ["always_right", "untrained", "balancing"])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_evaluate_matches_one_draw_per_step(policy, bit_generator):
    # evaluate draws an episode's uniforms at once and rewinds its generator to the draws
    # the episode used: the returns and the generator it hands back are those of one draw
    # per step, so reset and the caller's next draw see the same numbers
    params = _policy(policy)
    lengths = set()
    for episodes in range(1, 6):
        cfg = TrainConfig(eval_episodes=episodes)
        rng, ref_rng = (np.random.Generator(bit_generator(40 + episodes)) for _ in range(2))
        report = evaluate(params, cfg, rng)
        assert report == reference_evaluate(params, cfg, ref_rng)
        assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        lengths.update(report.per_episode_returns)
    if policy == "always_right":
        assert max(lengths) < 20
    elif policy == "balancing":
        assert lengths == {500.0}
    else:
        assert 20 < max(lengths) < 500


def test_evaluate_calls_each_public_function_once_per_step(monkeypatch):
    # the counts the eval_checkpoint benchmark fixes, looked up where evaluate and
    # _sample_and_step find them: a faster evaluation must not route around one of them
    train_mod = importlib.import_module("axppo.train")
    sites = {"forward_single": train_mod, "reset": train_mod,
             "sample_categorical": axppo.rollout, "step": axppo.rollout}
    calls = dict.fromkeys(sites, 0)

    def counted(name):
        fn = getattr(sites[name], name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, module in sites.items():
        monkeypatch.setattr(module, name, counted(name))
    cfg = TrainConfig(eval_episodes=4)
    report = evaluate(_policy("untrained"), cfg, np.random.default_rng(3))
    steps = int(sum(report.per_episode_returns))  # one unit of reward per step
    assert calls == {"forward_single": steps, "reset": 4, "sample_categorical": steps,
                     "step": steps}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_rejects_non_finite_params(bad):
    cfg = TrainConfig(**FAST)
    params = np.zeros(cfg.net_config().param_count)
    params[0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        evaluate(params, cfg, np.random.default_rng(0))


def test_update_log_format(tmp_path):
    result = train(TrainConfig(**FAST))
    path = tmp_path / "log.csv"
    write_update_log(result.records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == LOG_HEADER
    assert lines[0] == (
        "update,env_steps,batch_mean_return,g_recent,c2_effective,"
        "loss_clip,loss_value,loss_entropy,loss_total"
    )
    assert len(lines) == 1 + len(result.records)
    # a column added to LOG_HEADER or to the rows must be added to both
    assert all(len(line.split(",")) == len(LOG_HEADER.split(",")) for line in lines[1:])
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "256"
    assert len(first) == 9
    float(first[2])  # parseable numbers throughout
    assert float(first[3]) == pytest.approx(result.records[0].g_recent, rel=1e-9)
    # every float is written at full precision: it parses back to the record's value
    for line, r in zip(lines[1:], result.records):
        expected = (r.batch_mean_return, r.g_recent, r.c2_effective, r.loss.clip_term,
                    r.loss.value_term, r.loss.entropy_term, r.loss.total)
        assert tuple(float(x) for x in line.split(",")[2:]) == expected
