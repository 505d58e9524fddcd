"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-6 and 8 read one run of the entire default sweep (87 full-length
runs), which the module-scoped `default_sweep` fixture trains once: criteria
4-6 read the final eval returns of 15 of its runs, and criterion 8 checks the
sweep itself. So running any one of those four alone trains the whole sweep.
This module dominates the suite's runtime; the four carry the `slow` marker,
and `-m "not slow"` runs the rest. Run with -s to see the per-criterion lines
as they complete.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from axppo.adaptive import ReturnWindow, g_recent, push_batch_return
from axppo.cartpole import CartPoleState, step
from axppo.net import NetworkConfig, init_params
from axppo.rollout import collect_rollout, compute_gae
from axppo.sweep import RunResult, SweepSpec, render_results, run_sweep
from axppo.train import TrainConfig, train

from oracles import action_log_prob, categorical_entropy
from test_loss import gradcheck_max_rel_error
from test_rollout import make_buffer

SEEDS = (1, 2, 3)  # the default sweep's seeds per cell


@dataclass(frozen=True)
class DefaultSweep:
    results: list[RunResult]
    elapsed_s: float
    output_dir: Path


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    """The default 87-run sweep at parallelism 4, trained once and timed."""
    output_dir = tmp_path_factory.mktemp("default_sweep")
    start = time.perf_counter()
    results = run_sweep(SweepSpec(parallelism=4, output_dir=output_dir))
    return DefaultSweep(results, time.perf_counter() - start, output_dir)


def cell_evals(sweep, mode, c2, tau=50):
    """Final eval returns of one cell's seeds; a diverged run fails the criterion."""
    cell = (mode, c2, tau if mode == "adaptive" else None)
    runs = {r.seed: r for r in sweep.results if (r.mode, r.c2_base, r.tau) == cell}
    for r in runs.values():
        assert not r.diverged, f"run {mode} c2={c2} tau={tau} seed={r.seed} diverged"
    return [runs[seed].final_mean_return for seed in SEEDS]


def report(number, name, ok, detail):
    print(f"[ACCEPTANCE] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    worst = gradcheck_max_rel_error(np.random.default_rng(20240601), instances=20, h=1e-5)
    elapsed = time.perf_counter() - start
    report(1, "gradient oracle", worst <= 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.3e} over 20 instances in {elapsed:.1f}s")


def test_criterion_2_physics_oracle():
    result = step(CartPoleState(0.0, 0.0, 0.0, 0.0), 1)
    s = result.next_state
    ok = (
        abs(s.x_dot - 0.1951220) < 1e-6
        and abs(s.theta_dot - (-0.2926829)) < 1e-6
        and step(CartPoleState(2.39, 1.0, 0.0, 0.0), 1).terminated
    )
    report(2, "physics oracle", ok,
           f"x_dot={s.x_dot:.7f}, theta_dot={s.theta_dot:.7f}, boundary terminates")


def test_criterion_3_zero_coefficient_equivalence():
    start = time.perf_counter()
    base = dict(c2_base=0.0, tau=50, total_env_steps=10 * 256, seed=17)
    params_std = train(TrainConfig(mode="standard", **base)).params
    params_ad = train(TrainConfig(mode="adaptive", **base)).params
    identical = np.array_equal(params_std, params_ad)
    report(3, "zero-coefficient equivalence", identical,
           f"bitwise identical after 10 updates ({time.perf_counter() - start:.1f}s)")


@pytest.mark.slow
def test_criterion_4_baseline_learning(default_sweep):
    evals = cell_evals(default_sweep, "standard", 0.0)
    passing = sum(e >= 400.0 for e in evals)
    report(4, "baseline learning", passing >= 2,
           f"eval means {[round(e, 1) for e in evals]}, {passing}/3 seeds >= 400")


@pytest.mark.slow
def test_criterion_5_degradation_trend(default_sweep):
    mean_01 = np.mean(cell_evals(default_sweep, "standard", 0.1))
    mean_08 = np.mean(cell_evals(default_sweep, "standard", 0.8))
    report(5, "standard-PPO degradation", mean_08 <= 0.6 * mean_01,
           f"c2=0.8 mean {mean_08:.1f} vs 60% of c2=0.1 mean {0.6 * mean_01:.1f}")


@pytest.mark.slow
def test_criterion_6_robustness_trend(default_sweep):
    mean_a01 = np.mean(cell_evals(default_sweep, "adaptive", 0.1))
    mean_a08 = np.mean(cell_evals(default_sweep, "adaptive", 0.8))
    mean_s08 = np.mean(cell_evals(default_sweep, "standard", 0.8))
    ok = mean_a08 >= 0.75 * mean_a01 and mean_a08 >= 2.0 * mean_s08
    report(6, "adaptive robustness", ok,
           f"adaptive 0.8 mean {mean_a08:.1f} vs 75% of 0.1 mean {0.75 * mean_a01:.1f} "
           f"and 2x standard-0.8 {2.0 * mean_s08:.1f}")


def test_criterion_7_property_suite():
    # entropy bounds and shift invariance
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.uniform(-30, 30, size=int(rng.integers(2, 5)))
        h = categorical_entropy(z)
        assert -1e-12 <= h <= math.log(len(z)) + 1e-12
        shift = float(rng.uniform(-20, 20))
        assert abs(categorical_entropy(z + shift) - h) <= 1e-12
        assert abs(action_log_prob(z + shift, 0) - action_log_prob(z, 0)) <= 1e-12

    # GAE Monte-Carlo identity at gamma = lambda = 1 on fully-terminal data
    values = rng.standard_normal(4)
    buffer = make_buffer([1.0] * 4, values, list(values[1:]) + [0.0],
                         [False] * 3 + [True], [False] * 4)
    adv, _ = compute_gae(buffer, 1.0, 1.0)
    for t in range(4):
        assert abs(adv[t] - ((4 - t) - values[t])) <= 1e-12

    # window eviction, normalization, monotonicity
    w = ReturnWindow(capacity=2)
    for v in (10.0, 20.0, 30.0):
        w = push_batch_return(w, v)
    assert w.entries == (20.0, 30.0)
    assert g_recent(w) == pytest.approx(25.0 / 500.0, abs=1e-12)
    assert g_recent(push_batch_return(ReturnWindow(capacity=2, entries=(20.0,)), 400.0)) \
        >= g_recent(w)

    # buffer length contract
    net = NetworkConfig(obs_dim=4, hidden_sizes=(8,), action_count=2)
    params = init_params(net, np.random.default_rng(1))
    from axppo.cartpole import reset
    buffer, _, _ = collect_rollout(
        params, net, (reset(np.random.default_rng(2)), 0.0), 64,
        action_rng=np.random.default_rng(3), env_rng=np.random.default_rng(4),
    )
    assert len(buffer.rewards) == 64 and buffer.obs.shape[0] == 64

    # determinism of a run and of a sweep under fixed seeds
    cfg = TrainConfig(total_env_steps=512, seed=5)
    r1, r2 = train(cfg), train(cfg)
    assert np.array_equal(r1.params, r2.params) and r1.records == r2.records

    import tempfile
    with tempfile.TemporaryDirectory() as td:
        spec = dict(coefficient_grid=(0.0, 0.2), tau_grid=(1,), seeds_per_cell=1,
                    base_seed=5, total_env_steps=256, eval_episodes=2)
        s1 = run_sweep(SweepSpec(output_dir=Path(td) / "a", parallelism=1, **spec))
        s2 = run_sweep(SweepSpec(output_dir=Path(td) / "b", parallelism=2, **spec))
        assert [(r.mode, r.c2_base, r.tau, r.seed, r.final_mean_return) for r in s1] \
            == [(r.mode, r.c2_base, r.tau, r.seed, r.final_mean_return) for r in s2]

    # table shape: 7 data rows x 5 coefficient columns, dashes in the adaptive 0-column
    results = [RunResult("standard", c2, None, s, 400.0, 1.0, "x")
               for c2 in (0.0, 0.1, 0.3, 0.5, 0.8) for s in range(3)]
    results += [RunResult("adaptive", c2, tau, s, 450.0, 1.0, "x")
                for c2 in (0.1, 0.3, 0.5, 0.8) for tau in (1, 10, 20, 50, 100, 200)
                for s in range(3)]
    lines = render_results(results, "markdown").strip().splitlines()
    assert len(lines) == 2 + 7
    assert len(lines[0].split("|")) == 1 + 6 + 1
    assert all(line.split("|")[2].strip() == "-" for line in lines[3:])

    report(7, "property suite", True, "all module invariants hold")


@pytest.mark.slow
def test_criterion_8_full_default_sweep(default_sweep):
    results, elapsed = default_sweep.results, default_sweep.elapsed_s
    out = default_sweep.output_dir
    assert len(results) == 87
    diverged = [r for r in results if r.diverged]
    runs_csv = (out / "runs.csv").read_text().strip().splitlines()
    table = (out / "table.md").read_text().strip().splitlines()
    assert len(runs_csv) == 88
    assert len(table) == 2 + 7
    assert all(Path(r.log_path).exists() for r in results)
    assert all(line.split("|")[2].strip() == "-" for line in table[3:])

    ok = len(results) == 87 and not diverged and elapsed <= 2 * 3600
    report(8, "full default sweep", ok,
           f"87 runs in {elapsed / 60:.1f} min, {len(diverged)} diverged; "
           f"outputs in {out}")
    print((out / "table.md").read_text())
