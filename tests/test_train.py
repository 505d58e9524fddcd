import importlib
from dataclasses import replace

import numpy as np
import pytest

import axppo.loss
import axppo.rollout
from axppo.net import unpack_params
from axppo.train import (
    LOG_HEADER,
    TrainConfig,
    evaluate,
    train,
    write_update_log,
)

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


def test_g_recent_tracks_window_of_batch_returns():
    cfg = TrainConfig(mode="adaptive", c2_base=0.1, tau=2, total_env_steps=1024)
    result = train(cfg)
    returns = [rec.batch_mean_return for rec in result.records]
    for t, rec in enumerate(result.records):
        window = returns[max(0, t - 1) : t + 1]
        assert rec.g_recent == pytest.approx(np.mean(window) / 500.0, abs=1e-12)


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
    net = cfg.net_config()
    params = np.zeros(net.param_count)
    layers = unpack_params(params, net)
    layers[-2][1][:] = [-20.0, 20.0]  # policy head bias: always push right
    report = evaluate(params, cfg, np.random.default_rng(2))
    assert all(1.0 <= r < 500.0 for r in report.per_episode_returns)
    assert report.mean_return < 50.0  # the pole falls quickly


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
