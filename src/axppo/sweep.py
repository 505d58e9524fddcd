"""Entropy-coefficient x window-length sweep with CSV and markdown reports.

The default grid reproduces the full comparison: standard PPO at every
coefficient, plus the adaptive variant at every nonzero coefficient crossed
with every window length, three seeds per cell. Adaptive cells at coefficient
zero are skipped because a zero coefficient makes both modes identical.

Each run is a TrainConfig; plan_runs lists them in grid order. A standard run
keeps the default tau, which standard mode never reads, and reports none.

Every run is fully isolated (own seeds, own log file), so runs may execute in
worker processes; results always come back in grid order regardless of
completion order, and per-cell seeds depend only on base_seed, so any cell can
be re-run on its own. An output directory that already holds a sweep is
refused, so two sweeps never mix in one runs.csv and logs/.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .net import _require_int, _write_text_atomic
from .train import TrainConfig, evaluate, run_rng, train, write_update_log

__all__ = ["SweepSpec", "RunResult", "plan_runs", "run_sweep", "render_results", "RUNS_CSV_HEADER"]

RUNS_CSV_HEADER = "mode,c2,tau,seed,final_return,wall_time_s,diverged"


@dataclass(frozen=True)
class SweepSpec:
    coefficient_grid: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.8)
    tau_grid: tuple[int, ...] = (1, 10, 20, 50, 100, 200)
    seeds_per_cell: int = 3
    base_seed: int = TrainConfig.seed
    include_standard: bool = True
    parallelism: int = 1
    output_dir: str | Path = "sweep_out"
    total_env_steps: int = TrainConfig.total_env_steps
    eval_episodes: int = TrainConfig.eval_episodes

    def __post_init__(self):
        object.__setattr__(self, "coefficient_grid", tuple(float(c) for c in self.coefficient_grid))
        object.__setattr__(self, "tau_grid", tuple(self.tau_grid))
        for t in self.tau_grid:
            _require_int("tau", t)
        _require_int("seeds_per_cell", self.seeds_per_cell)
        _require_int("parallelism", self.parallelism)
        if not self.coefficient_grid or not self.tau_grid:
            raise ValueError("coefficient and tau grids must be non-empty")
        if any(t < 1 for t in self.tau_grid):
            raise ValueError("tau values must be >= 1")
        # set() also merges 0.0 and -0.0, which print differently
        for name, grid in (("coefficient", self.coefficient_grid), ("tau", self.tau_grid)):
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} grid holds duplicate values: {grid}")
        # log file names and table columns print coefficients with _fmt_num
        if len({_fmt_num(c) for c in self.coefficient_grid}) != len(self.coefficient_grid):
            raise ValueError(
                f"coefficient grid {self.coefficient_grid} holds values that print alike: "
                f"{[_fmt_num(c) for c in self.coefficient_grid]}"
            )
        if self.seeds_per_cell < 1:
            raise ValueError(f"seeds_per_cell must be >= 1, got {self.seeds_per_cell}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if not self.include_standard and not any(c > 0.0 for c in self.coefficient_grid):
            raise ValueError("the grid plans no runs: adaptive cells need a coefficient > 0")
        # every run builds a TrainConfig from these; reject bad values before any run starts
        for c2 in self.coefficient_grid:
            TrainConfig(
                c2_base=c2, total_env_steps=self.total_env_steps, seed=self.base_seed,
                eval_episodes=self.eval_episodes,
            )


@dataclass(frozen=True)
class RunResult:
    mode: str
    c2_base: float
    tau: int | None
    seed: int
    final_mean_return: float
    wall_time_s: float
    log_path: str
    diverged: bool = False


def _fmt_num(x: float) -> str:
    return f"{x:g}"


def plan_runs(spec: SweepSpec) -> list[TrainConfig]:
    """Expand the grid into one TrainConfig per run, in deterministic grid order."""
    cells: list[dict] = []
    if spec.include_standard:
        cells.extend(dict(mode="standard", c2_base=c2) for c2 in spec.coefficient_grid)
    cells.extend(
        dict(mode="adaptive", c2_base=c2, tau=tau)
        for c2 in spec.coefficient_grid
        if c2 > 0.0
        for tau in spec.tau_grid
    )
    return [
        TrainConfig(
            **cell, total_env_steps=spec.total_env_steps, seed=spec.base_seed + k,
            eval_episodes=spec.eval_episodes,
        )
        for cell in cells
        for k in range(spec.seeds_per_cell)
    ]


def _reported_tau(config: TrainConfig) -> int | None:
    """The window a run reports: None for a standard run, whose coefficient ignores tau."""
    return config.tau if config.mode == "adaptive" else None


def _describe(config: TrainConfig) -> str:
    c2, tau = _fmt_num(config.c2_base), _reported_tau(config)
    return f"{config.mode} c2={c2} tau={tau} seed={config.seed}"


def _log_path(out_dir: Path, config: TrainConfig) -> Path:
    tau = _reported_tau(config)
    name = f"run_{config.mode}_{_fmt_num(config.c2_base)}_{'na' if tau is None else tau}"
    return out_dir / "logs" / f"{name}_{config.seed}.csv"


def _execute_run(config: TrainConfig, log_path: Path) -> RunResult:
    """Train, evaluate and log one run. Must stay picklable (module level)."""
    start = time.perf_counter()
    result = train(config)
    if result.diverged:
        final = float("nan")
    else:
        final = evaluate(result.params, config, run_rng(config.seed, "eval")).mean_return
    wall = time.perf_counter() - start
    write_update_log(result.records, log_path)
    return RunResult(
        mode=config.mode,
        c2_base=config.c2_base,
        tau=_reported_tau(config),
        seed=config.seed,
        final_mean_return=final,
        wall_time_s=wall,
        log_path=str(log_path),
        diverged=result.diverged,
    )


def run_sweep(spec: SweepSpec) -> list[RunResult]:
    """Execute every run in the spec, then write runs.csv and table.md.

    As each run lands, runs.csv is rewritten with the runs finished so far, in
    the order they finished, and one progress line goes to stderr: the run,
    its eval return and wall time (or the type of its error), and an estimate
    of the time left (the median run time so far x runs left / workers, once
    a run has finished). A sweep that is stopped keeps the rows of its
    finished runs. It starts min(parallelism, runs) workers; parallelism 1
    runs every run in this process.

    A run that raises does not stop the others, and neither does a worker
    process that dies (see _run_in_pools). Once all have ended, the reports
    are written for the finished runs, in grid order, and the first failed
    run's exception (in grid order) is re-raised. An output_dir that is not a
    directory, lies under a file, or already holds runs.csv or logs/ raises
    FileExistsError before anything is written.
    """
    plans = plan_runs(spec)
    workers = min(spec.parallelism, len(plans))
    out_dir = Path(spec.output_dir)
    for path in (out_dir / "runs.csv", out_dir / "logs"):
        if path.exists():
            raise FileExistsError(f"{path} exists: {out_dir} already holds a sweep")
    try:
        (out_dir / "logs").mkdir(parents=True)
    except NotADirectoryError as exc:
        raise FileExistsError(f"{out_dir} is not a directory, or lies under a file") from exc

    finished: dict[int, RunResult] = {}  # in the order the runs finished
    failed: dict[int, Exception] = {}

    def land(i: int, run: Callable[[], RunResult]) -> None:
        try:
            r = finished[i] = run()
        except Exception as exc:
            failed[i] = exc
            outcome = f"failed ({type(exc).__name__})"
        else:
            _write_text_atomic(out_dir / "runs.csv", _render_csv(finished.values()))
            outcome = f"eval return {r.final_mean_return:.1f}, {r.wall_time_s:.1f} s"
        ended = len(finished) + len(failed)
        line = f"[{ended}/{len(plans)}] {_describe(plans[i])}: {outcome}"
        times = sorted(f.wall_time_s for f in finished.values())  # np.median would load numpy.ma
        if times:
            median_s = (times[(len(times) - 1) // 2] + times[len(times) // 2]) / 2
            line += f", ETA {median_s * (len(plans) - ended) / workers:.0f} s"
        print(line, file=sys.stderr)

    if spec.parallelism == 1:
        for i, config in enumerate(plans):
            land(i, lambda: _execute_run(config, _log_path(out_dir, config)))
    else:
        _run_in_pools(plans, out_dir, workers, land)
    results = [finished[i] for i in sorted(finished)]

    for i in sorted(finished):
        if finished[i].diverged:
            print(f"warning: run {_describe(plans[i])} diverged; excluded from cell means",
                  file=sys.stderr)
    for i, exc in sorted(failed.items()):
        print(f"error: run {_describe(plans[i])} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)

    if results:
        _write_text_atomic(out_dir / "runs.csv", render_results(results, "csv"))
        _write_text_atomic(out_dir / "table.md", render_results(results, "markdown"))
    if failed:
        raise failed[min(failed)]
    return results


def _run_in_pools(plans: list[TrainConfig], out_dir: Path, workers: int,
                  land: Callable[[int, Callable[[], RunResult]], None]) -> None:
    """Run every plan in a pool of worker processes, landing each run as it returns.

    A worker process that dies breaks its pool, which then fails every run it
    still held. Those runs did nothing wrong, so they go to a fresh pool. If
    that pool breaks too, the runs it lost go one at a time through a pool of
    one worker, which runs them in order: the first run lost there broke it,
    after an earlier pool lost it too, and only that run lands as failed. The
    rest go back to a shared pool.
    """
    # imported here: the pool pulls in multiprocessing, which serial runs never need
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    def broke_its_pool(i: int) -> RunResult:
        raise BrokenProcessPool(f"the worker process running {_describe(plans[i])} ended abruptly")

    pending, breaks = list(range(len(plans))), 0
    while pending:
        size = 1 if breaks >= 2 else min(workers, len(pending))
        lost = []
        with ProcessPoolExecutor(max_workers=size) as pool:
            futures = {pool.submit(_execute_run, plans[i], _log_path(out_dir, plans[i])): i
                       for i in pending}
            for future in as_completed(futures):
                if isinstance(future.exception(), BrokenProcessPool):
                    lost.append(futures[future])
                else:
                    land(futures[future], future.result)
        pending = sorted(lost)
        if lost and size == 1 and breaks:
            culprit = pending.pop(0)
            land(culprit, lambda: broke_its_pool(culprit))
            breaks = 0
        elif lost:
            breaks += 1


def _cell_key(r: RunResult) -> tuple[str, float, int | None]:
    return (r.mode, r.c2_base, r.tau)


def render_results(results: list[RunResult], format: str) -> str:
    """Render run results as a per-run CSV or a grid-shaped markdown table."""
    if not results:
        raise ValueError("no results to render")
    if format == "csv":
        return _render_csv(results)
    if format == "markdown":
        return _render_markdown(results)
    raise ValueError(f"format must be 'csv' or 'markdown', got {format!r}")


def _render_csv(results: Iterable[RunResult]) -> str:
    lines = [RUNS_CSV_HEADER]
    for r in results:
        tau = "" if r.tau is None else str(r.tau)
        lines.append(
            f"{r.mode},{float(r.c2_base)!r},{tau},{r.seed},"
            f"{r.final_mean_return:.17g},{r.wall_time_s:.17g},"
            f"{'true' if r.diverged else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _render_markdown(results: list[RunResult]) -> str:
    coefficients = sorted({r.c2_base for r in results})
    taus = sorted({r.tau for r in results if r.tau is not None})
    has_standard = any(r.mode == "standard" for r in results)

    by_cell: dict[tuple[str, float, int | None], list[RunResult]] = {}
    for r in results:
        by_cell.setdefault(_cell_key(r), []).append(r)

    def cell_text(mode: str, c2: float, tau: int | None) -> str:
        if mode == "adaptive" and c2 == 0.0:
            return "-"  # identical to standard PPO at coefficient 0
        runs = [r for r in by_cell.get((mode, c2, tau), []) if not r.diverged]
        if not runs:
            return "-"
        mean = float(np.mean([r.final_mean_return for r in runs]))
        return f"{mean:.0f}"

    header = "| algorithm / entropy coef | " + " | ".join(_fmt_num(c) for c in coefficients) + " |"
    separator = "| --- |" + " --- |" * len(coefficients)
    rows = [header, separator]
    if has_standard:
        cells = [cell_text("standard", c, None) for c in coefficients]
        rows.append("| Standard PPO | " + " | ".join(cells) + " |")
    for tau in taus:
        cells = [cell_text("adaptive", c, tau) for c in coefficients]
        rows.append(f"| axPPO tau={tau} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"
