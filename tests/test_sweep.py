import concurrent.futures
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
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
from axppo.train import TrainConfig, train

TINY = dict(total_env_steps=256, eval_episodes=2)


def test_default_grid_run_count():
    plans = plan_runs(SweepSpec())
    # 5 standard cells + 4 nonzero coefficients x 6 taus, 3 seeds each
    assert len(plans) == (5 + 4 * 6) * 3 == 87
    standard = [p for p in plans if p.mode == "standard"]
    adaptive = [p for p in plans if p.mode == "adaptive"]
    assert len(standard) == 15 and len(adaptive) == 72
    assert all(p.tau == TrainConfig().tau for p in standard)
    assert not any(p.c2_base == 0.0 for p in adaptive)
    # each plan is the TrainConfig of its run, in grid order
    coefficients, taus, seeds = (0.0, 0.1, 0.3, 0.5, 0.8), (1, 10, 20, 50, 100, 200), (1, 2, 3)
    expected = [TrainConfig(mode="standard", c2_base=c2, seed=s)
                for c2 in coefficients for s in seeds]
    expected += [TrainConfig(mode="adaptive", c2_base=c2, tau=t, seed=s)
                 for c2 in coefficients[1:] for t in taus for s in seeds]
    assert plans == expected


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


def _execute_run_failing_standard_0_3(config, log_path):
    """_execute_run, except that the standard c2=0.3 run raises (module level: picklable)."""
    if config.mode == "standard" and config.c2_base == 0.3:
        raise RuntimeError("worker failed")
    return _execute_run(config, log_path)


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


def _train_ending_the_adaptive_seed_2_process(config):
    """train, except that the adaptive seed-2 run ends its process (forked workers inherit it)."""
    if config.mode == "adaptive" and config.seed == 2:
        os._exit(1)
    return train(config)


def test_a_dead_worker_fails_only_its_own_run(tmp_path, monkeypatch, capsys):
    grid = dict(coefficient_grid=(0.0, 0.3), tau_grid=(10,), seeds_per_cell=3, parallelism=2,
                **TINY)
    run_sweep(SweepSpec(output_dir=tmp_path / "clean", **grid))
    capsys.readouterr()
    monkeypatch.setattr(axppo.sweep, "train", _train_ending_the_adaptive_seed_2_process)
    culprit = "adaptive c2=0.3 tau=10 seed=2"
    with pytest.raises(BrokenProcessPool, match=f"running {culprit} ended"):
        run_sweep(SweepSpec(output_dir=tmp_path / "dead", **grid))

    def rows(name):
        text = (tmp_path / name / "runs.csv").read_text()
        return [{k: v for k, v in row.items() if k != "wall_time_s"}
                for row in csv.DictReader(text.splitlines())]

    clean = rows("clean")
    assert len(clean) == 9
    assert rows("dead") == [r for r in clean if (r["mode"], r["seed"]) != ("adaptive", "2")]
    err = capsys.readouterr().err.splitlines()
    assert [line.split("]")[0] for line in err[:9]] == [f"[{k}/9" for k in range(1, 10)]
    assert sum(f"] {culprit}: failed (BrokenProcessPool)" in line for line in err[:9]) == 1
    assert err[9:] == [f"error: run {culprit} raised BrokenProcessPool: "
                       f"the worker process running {culprit} ended abruptly"]


def test_interrupted_sweep_keeps_the_rows_it_finished(tmp_path, monkeypatch):
    # runs.csv is rewritten as each run lands, so a stopped sweep keeps its finished rows
    spec = SweepSpec(coefficient_grid=(0.0, 0.3), tau_grid=(2,), seeds_per_cell=1,
                     output_dir=tmp_path, **TINY)
    k, started = 2, []

    def interrupted_after_k(config, log_path):
        started.append(config)
        if len(started) == k + 1:
            raise KeyboardInterrupt
        return _execute_run(config, log_path)

    monkeypatch.setattr(axppo.sweep, "_execute_run", interrupted_after_k)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec)
    rows = list(csv.DictReader((tmp_path / "runs.csv").read_text().splitlines()))
    assert [(r["mode"], float(r["c2"]), int(r["seed"])) for r in rows] \
        == [(c.mode, c.c2_base, c.seed) for c in plan_runs(spec)[:k]]
    assert not (tmp_path / "table.md").exists()


def test_sweep_reports_progress_on_stderr(tmp_path, monkeypatch, capsys):
    # one line per finished run; the ETA is the median run time so far x runs left
    def timed_run(config, log_path):
        wall = {0.0: 2.0, 0.3: 4.0}[config.c2_base] * (2 if config.mode == "adaptive" else 1)
        return RunResult(config.mode, config.c2_base, None, config.seed, 100.0 + wall, wall,
                         str(log_path))

    monkeypatch.setattr(axppo.sweep, "_execute_run", timed_run)
    spec = SweepSpec(coefficient_grid=(0.0, 0.3), tau_grid=(2,), seeds_per_cell=1,
                     output_dir=tmp_path, **TINY)
    run_sweep(spec)
    assert capsys.readouterr().err.splitlines() == [
        "[1/3] standard c2=0 tau=None seed=1: eval return 102.0, 2.0 s, ETA 4 s",
        "[2/3] standard c2=0.3 tau=None seed=1: eval return 104.0, 4.0 s, ETA 3 s",
        "[3/3] adaptive c2=0.3 tau=2 seed=1: eval return 108.0, 8.0 s, ETA 0 s",
    ]

    # a failed run counts as ended; its line has no ETA while no run has finished
    def failing_standard_0(config, log_path):
        if config.mode == "standard" and config.c2_base == 0.0:
            raise RuntimeError("worker failed")
        return timed_run(config, log_path)

    monkeypatch.setattr(axppo.sweep, "_execute_run", failing_standard_0)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_sweep(dataclasses.replace(spec, output_dir=tmp_path / "failing"))
    assert capsys.readouterr().err.splitlines() == [
        "[1/3] standard c2=0 tau=None seed=1: failed (RuntimeError)",
        "[2/3] standard c2=0.3 tau=None seed=1: eval return 104.0, 4.0 s, ETA 4 s",
        "[3/3] adaptive c2=0.3 tau=2 seed=1: eval return 108.0, 8.0 s, ETA 0 s",
        "error: run standard c2=0 tau=None seed=1 raised RuntimeError: worker failed",
    ]


@pytest.mark.parametrize("seeds, workers, etas", [
    (1, 1, ["ETA 0 s"]),
    (3, 3, ["ETA 4 s", "ETA 2 s", "ETA 0 s"]),  # 6 s x runs left / 3 workers
])
def test_sweep_starts_no_more_workers_than_runs(tmp_path, monkeypatch, capsys,
                                                seeds, workers, etas):
    # a pool started with the fork method starts all its workers at the first submit
    started = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    def run(config, log_path):
        return RunResult(config.mode, config.c2_base, config.tau, config.seed, 100.0, 6.0,
                         str(log_path))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(axppo.sweep, "_execute_run", run)
    results = run_sweep(SweepSpec(coefficient_grid=(0.3,), tau_grid=(2,), seeds_per_cell=seeds,
                                  include_standard=False, parallelism=4, output_dir=tmp_path,
                                  **TINY))
    assert started == [workers] and len(results) == seeds
    err = capsys.readouterr().err.splitlines()
    assert [line.rsplit(", ", 1)[1] for line in err] == etas


@pytest.mark.parametrize("entry, make", [("runs.csv", Path.touch), ("logs", Path.mkdir)])
def test_sweep_refuses_before_writing_anything(tmp_path, entry, make):
    make(tmp_path / entry)
    with pytest.raises(FileExistsError, match=re.escape(str(tmp_path / entry))):
        run_sweep(SweepSpec(coefficient_grid=(0.1,), tau_grid=(1,), seeds_per_cell=1,
                            output_dir=tmp_path, **TINY))
    assert [p.name for p in tmp_path.iterdir()] == [entry]


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


def test_import_leaves_the_process_pool_unloaded():
    # only run_sweep with parallelism > 1 needs concurrent.futures.process (and multiprocessing);
    # a plain import loads neither the sweep layer nor the CLI, and the sweep names load
    # axppo.sweep on first use without rebinding axppo.train or being stored in the package
    code = textwrap.dedent("""
        import json, sys, types
        import axppo
        lazy = ("axppo.sweep", "axppo.cli", "concurrent.futures.process")
        facts = {"loaded by import": [m for m in lazy if m in sys.modules]}
        facts["run_sweep"] = axppo.run_sweep is axppo.sweep.run_sweep
        from axppo import SweepSpec
        facts["SweepSpec"] = SweepSpec is axppo.sweep.SweepSpec
        facts["train is a function"] = isinstance(axppo.train, types.FunctionType)
        facts["stored"] = [n for n in ("run_sweep", "SweepSpec") if n in vars(axppo)]
        try:
            axppo.no_such_name
        except AttributeError as exc:
            facts["missing"] = str(exc)
        facts["pool loaded"] = "concurrent.futures.process" in sys.modules
        print(json.dumps(facts))
    """)
    src = str(Path(axppo.sweep.__file__).parents[1])  # the directory holding the package
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout) == {
        "loaded by import": [], "run_sweep": True, "SweepSpec": True,
        "train is a function": True, "stored": [],
        "missing": "module 'axppo' has no attribute 'no_such_name'", "pool loaded": False,
    }
