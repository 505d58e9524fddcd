import csv
from pathlib import Path

import numpy as np
import pytest

import axppo.sweep
from axppo.sweep import (
    RUNS_CSV_HEADER,
    RunResult,
    SweepSpec,
    _execute_run,
    plan_runs,
    render_results,
    run_sweep,
)

TINY = dict(total_env_steps=256, eval_episodes=2)


def test_default_grid_run_count():
    plans = plan_runs(SweepSpec())
    # 5 standard cells + 4 nonzero coefficients x 6 taus, 3 seeds each
    assert len(plans) == (5 + 4 * 6) * 3 == 87
    standard = [p for p in plans if p.mode == "standard"]
    adaptive = [p for p in plans if p.mode == "adaptive"]
    assert len(standard) == 15 and len(adaptive) == 72
    assert all(p.tau is None for p in standard)
    assert not any(p.c2_base == 0.0 for p in adaptive)


def test_single_cell_spec():
    spec = SweepSpec(coefficient_grid=(0.1,), tau_grid=(1,), seeds_per_cell=1,
                     include_standard=False)
    plans = plan_runs(spec)
    assert len(plans) == 1
    assert plans[0].mode == "adaptive" and plans[0].tau == 1


def test_seed_assignment_per_cell():
    plans = plan_runs(SweepSpec(base_seed=10, seeds_per_cell=3))
    by_cell = {}
    for p in plans:
        by_cell.setdefault((p.mode, p.c2_base, p.tau), []).append(p.seed)
    for seeds in by_cell.values():
        assert seeds == [10, 11, 12]


def test_run_sweep_writes_outputs_and_logs(tmp_path):
    spec = SweepSpec(coefficient_grid=(0.0, 0.1), tau_grid=(1,), seeds_per_cell=1,
                     base_seed=3, output_dir=tmp_path, **TINY)
    results = run_sweep(spec)
    assert len(results) == 3  # standard x2 + adaptive x1
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "table.md").exists()
    for r in results:
        assert Path(r.log_path).exists()
        rows = Path(r.log_path).read_text().splitlines()
        assert rows[0].startswith("update,env_steps,")
        assert len(rows) == 2  # one update at 256 steps
        assert 1.0 <= r.final_mean_return <= 500.0
        assert not r.diverged
    # log filename embeds the grid cell
    assert any("run_standard_0.1_na_3.csv" in r.log_path for r in results)
    assert any("run_adaptive_0.1_1_3.csv" in r.log_path for r in results)


def test_sweep_deterministic_across_parallelism(tmp_path):
    base = dict(coefficient_grid=(0.0, 0.3), tau_grid=(2,), seeds_per_cell=2,
                base_seed=7, **TINY)
    r1 = run_sweep(SweepSpec(parallelism=1, output_dir=tmp_path / "serial", **base))
    r4 = run_sweep(SweepSpec(parallelism=4, output_dir=tmp_path / "parallel", **base))
    assert len(r1) == len(r4) == 6
    for a, b in zip(r1, r4):
        assert (a.mode, a.c2_base, a.tau, a.seed) == (b.mode, b.c2_base, b.tau, b.seed)
        assert a.final_mean_return == b.final_mean_return
        assert a.diverged == b.diverged


def _execute_run_failing_standard_0_3(plan):
    """_execute_run, except that the standard c2=0.3 run raises (module level: picklable)."""
    if plan.mode == "standard" and plan.c2_base == 0.3:
        raise RuntimeError("worker failed")
    return _execute_run(plan)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_failed_run_keeps_finished_runs(tmp_path, monkeypatch, parallelism):
    monkeypatch.setattr(axppo.sweep, "_execute_run", _execute_run_failing_standard_0_3)
    spec = SweepSpec(coefficient_grid=(0.0, 0.3), tau_grid=(2,), seeds_per_cell=1,
                     parallelism=parallelism, output_dir=tmp_path, **TINY)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_sweep(spec)
    rows = list(csv.DictReader((tmp_path / "runs.csv").read_text().splitlines()))
    assert [(r["mode"], float(r["c2"]), r["tau"]) for r in rows] == [
        ("standard", 0.0, ""), ("adaptive", 0.3, "2"),
    ]
    assert "axPPO tau=2" in (tmp_path / "table.md").read_text()


def make_results():
    results = []
    for c2, rets in [(0.0, (420, 430, 440)), (0.1, (400, 410, 420))]:
        for seed, ret in enumerate(rets):
            results.append(RunResult("standard", c2, None, seed, float(ret), 1.0,
                                     f"logs/run_standard_{c2:g}_na_{seed}.csv"))
    for tau in (1, 10):
        for seed, ret in enumerate((300, 310, 320)):
            results.append(RunResult("adaptive", 0.1, tau, seed, float(ret + tau), 1.0,
                                     f"logs/run_adaptive_0.1_{tau}_{seed}.csv"))
    return results


def test_render_csv_shape_and_header():
    results = make_results()
    text = render_results(results, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == RUNS_CSV_HEADER
    assert lines[0].startswith("mode,c2,tau,seed,final_return,wall_time_s")
    assert len(lines) == len(results) + 1
    parsed = list(csv.DictReader(text.splitlines()))
    assert parsed[0]["mode"] == "standard"
    assert parsed[0]["tau"] == ""
    assert float(parsed[0]["final_return"]) == 420.0


def test_render_markdown_layout():
    text = render_results(make_results(), "markdown")
    lines = text.strip().splitlines()
    # header + separator + standard row + one row per tau
    assert len(lines) == 2 + 1 + 2
    assert lines[2].startswith("| Standard PPO |")
    assert lines[3].startswith("| axPPO tau=1 |")
    # standard cell at c2=0 is the mean 430; adaptive column at 0 is a dash
    assert "| 430 |" in lines[2]
    assert lines[3].split("|")[2].strip() == "-"


def test_render_markdown_default_grid_shape():
    # synthetic full default grid: 7 data rows x 5 coefficient columns
    results = []
    for c2 in (0.0, 0.1, 0.3, 0.5, 0.8):
        for seed in range(3):
            results.append(RunResult("standard", c2, None, seed, 400.0, 1.0, "x"))
    for c2 in (0.1, 0.3, 0.5, 0.8):
        for tau in (1, 10, 20, 50, 100, 200):
            for seed in range(3):
                results.append(RunResult("adaptive", c2, tau, seed, 450.0, 1.0, "x"))
    lines = render_results(results, "markdown").strip().splitlines()
    assert len(lines) == 2 + 1 + 6
    header_cols = [c.strip() for c in lines[0].split("|")[1:-1]]
    assert header_cols == ["algorithm / entropy coef", "0", "0.1", "0.3", "0.5", "0.8"]
    for tau_line in lines[3:]:
        cells = [c.strip() for c in tau_line.split("|")[1:-1]]
        assert cells[1] == "-"  # adaptive at coefficient 0
        assert all(c == "450" for c in cells[2:])


def test_render_excludes_diverged_from_cell_means():
    results = [
        RunResult("standard", 0.1, None, 0, 400.0, 1.0, "x"),
        RunResult("standard", 0.1, None, 1, float("nan"), 1.0, "x", diverged=True),
    ]
    md = render_results(results, "markdown")
    assert "| 400 |" in md
    csv_text = render_results(results, "csv")
    assert "true" in csv_text.splitlines()[2]


def test_render_validates_inputs():
    with pytest.raises(ValueError):
        render_results([], "csv")
    with pytest.raises(ValueError):
        render_results(make_results(), "html")


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(coefficient_grid=())
    with pytest.raises(ValueError):
        SweepSpec(tau_grid=(0,))
    with pytest.raises(ValueError):
        SweepSpec(seeds_per_cell=0)
    with pytest.raises(ValueError):
        SweepSpec(parallelism=0)
    for grid in ((float("nan"), 0.1), (0.1, float("inf")), (0.1, -0.1)):
        with pytest.raises(ValueError, match="c2_base must be finite and >= 0"):
            SweepSpec(coefficient_grid=grid)


@pytest.mark.parametrize("bad, value", [
    (dict(tau_grid=(1.7, 10)), "1.7"),  # used to become (1, 10)
    (dict(tau_grid=(1.2, 1.7)), "1.2"),  # used to be reported as duplicates (1, 1)
    (dict(seeds_per_cell=1.5), "1.5"),
    (dict(parallelism=2.0), "2.0"),
])
def test_spec_rejects_non_integer_counts(bad, value):
    with pytest.raises(ValueError, match=f"must be an integer, got {value}"):
        SweepSpec(**bad)


def test_spec_rejects_grid_that_plans_no_runs():
    with pytest.raises(ValueError, match="plans no runs"):
        SweepSpec(coefficient_grid=(0.0,), include_standard=False)


@pytest.mark.parametrize("bad", [
    dict(total_env_steps=100), dict(eval_episodes=0), dict(base_seed=-1),
])
def test_spec_rejects_run_settings_every_run_would_reject(bad):
    with pytest.raises(ValueError):
        SweepSpec(**bad)


@pytest.mark.parametrize("grids", [
    dict(tau_grid=(1, 10, 1)),
    dict(coefficient_grid=(0.1, 0.1)),
    dict(coefficient_grid=(0.1, 0.1000001)),  # both print as 0.1 in log file names
    dict(coefficient_grid=(0.0, -0.0)),  # equal, but they print as 0 and -0
])
def test_spec_rejects_colliding_grid_values(grids):
    with pytest.raises(ValueError):
        SweepSpec(**grids)


def test_render_csv_keeps_full_coefficient_precision():
    results = [RunResult("standard", 0.123456789, None, 1, 400.0, 1.0, "x")]
    row = next(csv.DictReader(render_results(results, "csv").splitlines()))
    assert float(row["c2"]) == 0.123456789
