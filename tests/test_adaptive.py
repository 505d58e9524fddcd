import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axppo.adaptive import ReturnWindow, effective_entropy_coef, g_recent, push_batch_return

returns_lists = st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=0, max_size=30)


def fill(window, values):
    for v in values:
        window = push_batch_return(window, v)
    return window


def test_eviction_order():
    w = fill(ReturnWindow(capacity=2), [10.0, 20.0, 30.0])
    assert w.entries == (20.0, 30.0)


def test_capacity_one():
    w = fill(ReturnWindow(capacity=1), [250.0])
    assert w.entries == (250.0,)
    w = push_batch_return(w, 100.0)
    assert w.entries == (100.0,)


def test_push_rejects_out_of_range():
    w = ReturnWindow(capacity=3)
    with pytest.raises(ValueError):
        push_batch_return(w, 501.0)
    with pytest.raises(ValueError):
        push_batch_return(w, -0.1)


def test_push_is_value_semantic():
    w = ReturnWindow(capacity=2)
    w2 = push_batch_return(w, 100.0)
    assert w.entries == ()
    assert w2.entries == (100.0,)


def test_g_recent_hand_values():
    w = fill(ReturnWindow(capacity=3), [100.0, 200.0, 300.0])
    assert g_recent(w) == pytest.approx(0.4, abs=1e-12)
    assert g_recent(fill(ReturnWindow(capacity=5), [500.0])) == 1.0
    assert g_recent(ReturnWindow(capacity=10)) == 0.0


def test_tau_one_tracks_latest():
    w = ReturnWindow(capacity=1)
    for v in (50.0, 400.0, 123.0):
        w = push_batch_return(w, v)
        assert g_recent(w) == pytest.approx(v / 500.0, abs=1e-12)


def test_constant_pushes_converge_after_tau():
    w = ReturnWindow(capacity=4)
    w = fill(w, [10.0, 20.0, 30.0, 40.0])
    w = fill(w, [250.0] * 4)
    assert g_recent(w) == pytest.approx(0.5, abs=1e-12)


@given(returns_lists)
@settings(max_examples=200)
def test_g_recent_always_in_unit_interval(values):
    w = fill(ReturnWindow(capacity=7), values)
    assert 0.0 <= g_recent(w) <= 1.0
    assert len(w.entries) <= 7


@given(returns_lists, st.integers(min_value=0, max_value=29),
       st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=200)
def test_g_recent_monotone_in_entries(values, index, bumped):
    if not values:
        return
    index %= len(values)
    if bumped < values[index]:
        return
    w_low = fill(ReturnWindow(capacity=10), values)
    w_high = fill(ReturnWindow(capacity=10), values[:index] + [bumped] + values[index + 1:])
    assert g_recent(w_high) >= g_recent(w_low) - 1e-12


def test_effective_coefficient_modes():
    w = fill(ReturnWindow(capacity=2), [250.0, 250.0])  # g_recent = 0.5
    assert effective_entropy_coef("standard", w, 0.8) == 0.8
    assert effective_entropy_coef("adaptive", w, 0.3) == pytest.approx(0.15, abs=1e-12)
    assert effective_entropy_coef("adaptive", ReturnWindow(capacity=3), 0.9) == 0.0


@given(returns_lists, st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=200)
def test_adaptive_coefficient_bounded_by_base(values, c2):
    w = fill(ReturnWindow(capacity=5), values)
    eff = effective_entropy_coef("adaptive", w, c2)
    assert 0.0 <= eff <= c2 + 1e-15


def test_mode_validation():
    with pytest.raises(ValueError):
        effective_entropy_coef("greedy", ReturnWindow(capacity=1), 0.1)
    with pytest.raises(ValueError):
        effective_entropy_coef("adaptive", ReturnWindow(capacity=1), -0.1)


@pytest.mark.parametrize("mode", ["standard", "adaptive"])
@pytest.mark.parametrize("c2_base", [float("nan"), float("inf")])
def test_non_finite_base_coefficient_rejected(mode, c2_base):
    # used to return NaN or inf, surfacing later as a non-finite loss
    with pytest.raises(ValueError, match="c2_base must be finite and >= 0"):
        effective_entropy_coef(mode, fill(ReturnWindow(capacity=2), [250.0]), c2_base)


def test_window_validation():
    with pytest.raises(ValueError):
        ReturnWindow(capacity=0)
    with pytest.raises(ValueError):
        ReturnWindow(capacity=1, entries=(1.0, 2.0))
