import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axppo.rollout
from axppo.adaptive import effective_entropy_coef, g_recent
from axppo.train import TrainConfig, train

returns_lists = st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=0, max_size=30)


def trained_g_recent(monkeypatch, tau, batch_returns):
    """g_recent of each update of an adaptive run whose rollouts report batch_returns in turn."""
    real_collect = axppo.rollout.collect_rollout
    reported = iter(batch_returns)

    def collect_rollout(*args, **kwargs):
        buffer, _, cursor = real_collect(*args, **kwargs)
        return buffer, (next(reported),), cursor

    monkeypatch.setattr(importlib.import_module("axppo.train"), "collect_rollout", collect_rollout)
    cfg = TrainConfig(mode="adaptive", tau=tau, total_env_steps=256 * len(batch_returns))
    return [r.g_recent for r in train(cfg).records]


def test_eviction_order(monkeypatch):
    # the third return evicts the first: the window is (20, 30)
    assert trained_g_recent(monkeypatch, 2, [10.0, 20.0, 30.0]) \
        == pytest.approx([10.0 / 500.0, 15.0 / 500.0, 25.0 / 500.0], abs=1e-12)


def test_capacity_one(monkeypatch):
    assert trained_g_recent(monkeypatch, 1, [250.0, 100.0]) == pytest.approx([0.5, 0.2], abs=1e-12)


def test_tau_one_tracks_latest(monkeypatch):
    values = [50.0, 400.0, 123.0]
    assert trained_g_recent(monkeypatch, 1, values) \
        == pytest.approx([v / 500.0 for v in values], abs=1e-12)


def test_constant_pushes_converge_after_tau(monkeypatch):
    g = trained_g_recent(monkeypatch, 4, [10.0, 20.0, 30.0, 40.0] + [250.0] * 4)
    assert g[-1] == pytest.approx(0.5, abs=1e-12)


def test_g_recent_rejects_out_of_range():
    # a NaN past the first entry escapes min and max; the check still names it
    for window, bad in (([501.0], "501.0"), ([-0.1], "-0.1"), ([10.0, 501.0], "501.0"),
                        ([10.0, float("nan")], "nan")):
        with pytest.raises(ValueError, match=rf"^returns must lie in \[0, 500.0\], got {bad}$"):
            g_recent(window)


def test_g_recent_hand_values():
    assert g_recent([100.0, 200.0, 300.0]) == pytest.approx(0.4, abs=1e-12)
    assert g_recent([500.0]) == 1.0
    assert g_recent([]) == 0.0


@given(returns_lists)
@settings(max_examples=200)
def test_g_recent_always_in_unit_interval(values):
    assert 0.0 <= g_recent(values[-7:]) <= 1.0


@given(returns_lists, st.integers(min_value=0, max_value=29),
       st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=200)
def test_g_recent_monotone_in_entries(values, index, bumped):
    if not values:
        return
    index %= len(values)
    if bumped < values[index]:
        return
    high = values[:index] + [bumped] + values[index + 1:]
    assert g_recent(high[-10:]) >= g_recent(values[-10:]) - 1e-12


def test_effective_coefficient_modes():
    g = g_recent([250.0, 250.0])  # 0.5
    assert effective_entropy_coef("standard", g, 0.8) == 0.8
    assert effective_entropy_coef("adaptive", g, 0.3) == pytest.approx(0.15, abs=1e-12)
    assert effective_entropy_coef("adaptive", g_recent([]), 0.9) == 0.0


@given(returns_lists, st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=200)
def test_adaptive_coefficient_bounded_by_base(values, c2):
    eff = effective_entropy_coef("adaptive", g_recent(values[-5:]), c2)
    assert 0.0 <= eff <= c2 + 1e-15


def test_mode_validation():
    with pytest.raises(ValueError) as coef_exc:
        effective_entropy_coef("greedy", 0.0, 0.1)
    with pytest.raises(ValueError) as config_exc:
        TrainConfig(mode="greedy")
    # one rule, written once in axppo.adaptive, so one message
    assert (str(coef_exc.value) == str(config_exc.value)
            == "mode must be one of ('standard', 'adaptive'), got 'greedy'")
    with pytest.raises(ValueError):
        effective_entropy_coef("adaptive", 0.0, -0.1)


@pytest.mark.parametrize("mode", ["standard", "adaptive"])
@pytest.mark.parametrize("c2_base", [float("nan"), float("inf")])
def test_non_finite_base_coefficient_rejected(mode, c2_base):
    # used to return NaN or inf, surfacing later as a non-finite loss
    with pytest.raises(ValueError, match="c2_base must be finite and >= 0"):
        effective_entropy_coef(mode, g_recent([250.0]), c2_base)
