"""Entropy-coefficient x window-length sweep with CSV and markdown reports.

The default grid reproduces the full comparison: standard PPO at every
coefficient, plus the adaptive variant at every nonzero coefficient crossed
with every window length, three seeds per cell. Adaptive cells at coefficient
zero are skipped because a zero coefficient makes both modes identical.

Every run is fully isolated (own seeds, own log file), so runs may execute in
worker processes; results always come back in grid order regardless of
completion order, and per-cell seeds depend only on base_seed, so any cell can
be re-run on its own.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .net import _require_int
from .train import SEED_OFFSET_EVAL, TrainConfig, evaluate, train, write_update_log

__all__ = ["SweepSpec", "RunResult", "plan_runs", "run_sweep", "render_results", "RUNS_CSV_HEADER"]

RUNS_CSV_HEADER = "mode,c2,tau,seed,final_return,wall_time_s,diverged"

DEFAULT_COEFFICIENTS = (0.0, 0.1, 0.3, 0.5, 0.8)
DEFAULT_TAUS = (1, 10, 20, 50, 100, 200)


@dataclass(frozen=True)
class SweepSpec:
    coefficient_grid: tuple[float, ...] = DEFAULT_COEFFICIENTS
    tau_grid: tuple[int, ...] = DEFAULT_TAUS
    seeds_per_cell: int = 3
    base_seed: int = 1
    include_standard: bool = True
    parallelism: int = 1
    output_dir: str | Path = "sweep_out"
    total_env_steps: int = 60_000
    eval_episodes: int = 20

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


@dataclass(frozen=True)
class _RunPlan:
    mode: str
    c2_base: float
    tau: int | None
    seed: int
    total_env_steps: int
    eval_episodes: int
    log_path: str


def _fmt_num(x: float) -> str:
    return f"{x:g}"


def plan_runs(spec: SweepSpec) -> list[_RunPlan]:
    """Expand the grid into concrete runs, in deterministic grid order."""
    cells: list[tuple[str, float, int | None]] = []
    if spec.include_standard:
        cells.extend(("standard", c2, None) for c2 in spec.coefficient_grid)
    cells.extend(
        ("adaptive", c2, tau)
        for c2 in spec.coefficient_grid
        if c2 > 0.0
        for tau in spec.tau_grid
    )

    logs_dir = Path(spec.output_dir) / "logs"
    plans = []
    for mode, c2, tau in cells:
        for k in range(spec.seeds_per_cell):
            seed = spec.base_seed + k
            tau_tag = "na" if tau is None else str(tau)
            log_path = logs_dir / f"run_{mode}_{_fmt_num(c2)}_{tau_tag}_{seed}.csv"
            plans.append(
                _RunPlan(
                    mode=mode, c2_base=c2, tau=tau, seed=seed,
                    total_env_steps=spec.total_env_steps,
                    eval_episodes=spec.eval_episodes,
                    log_path=str(log_path),
                )
            )
    return plans


def _execute_run(plan: _RunPlan) -> RunResult:
    """Train, evaluate and log one grid cell seed. Must stay picklable (module level)."""
    config = TrainConfig(
        mode=plan.mode,
        c2_base=plan.c2_base,
        tau=plan.tau if plan.tau is not None else 1,
        total_env_steps=plan.total_env_steps,
        seed=plan.seed,
        eval_episodes=plan.eval_episodes,
    )
    start = time.perf_counter()
    result = train(config)
    if result.diverged:
        final = float("nan")
    else:
        report = evaluate(
            result.params, config, np.random.default_rng(plan.seed + SEED_OFFSET_EVAL)
        )
        final = report.mean_return
    wall = time.perf_counter() - start
    write_update_log(result.records, plan.log_path)
    return RunResult(
        mode=plan.mode,
        c2_base=plan.c2_base,
        tau=plan.tau,
        seed=plan.seed,
        final_mean_return=final,
        wall_time_s=wall,
        log_path=plan.log_path,
        diverged=result.diverged,
    )


def run_sweep(spec: SweepSpec) -> list[RunResult]:
    """Execute every run in the spec, then write runs.csv and table.md.

    A run that raises does not stop the others. Once all have ended, the
    reports are written for the finished runs, in grid order, and the first
    failed run's exception (in grid order) is re-raised.
    """
    plans = plan_runs(spec)
    out_dir = Path(spec.output_dir)
    (out_dir / "logs").mkdir(parents=True, exist_ok=True)

    finished: dict[int, RunResult] = {}
    failed: dict[int, Exception] = {}
    if spec.parallelism == 1:
        for i, plan in enumerate(plans):
            try:
                finished[i] = _execute_run(plan)
            except Exception as exc:
                failed[i] = exc
    else:
        # imported here: the pool pulls in multiprocessing, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            futures = {pool.submit(_execute_run, p): i for i, p in enumerate(plans)}
            for future in as_completed(futures):
                try:
                    finished[futures[future]] = future.result()
                except Exception as exc:
                    failed[futures[future]] = exc
    results = [finished[i] for i in sorted(finished)]

    for r in results:
        if r.diverged:
            print(
                f"warning: run {r.mode} c2={_fmt_num(r.c2_base)} tau={r.tau} seed={r.seed} "
                "diverged; excluded from cell means",
                file=sys.stderr,
            )
    for i, exc in sorted(failed.items()):
        plan = plans[i]
        print(
            f"error: run {plan.mode} c2={_fmt_num(plan.c2_base)} tau={plan.tau} seed={plan.seed} "
            f"raised {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )

    if results:
        (out_dir / "runs.csv").write_text(render_results(results, "csv"))
        (out_dir / "table.md").write_text(render_results(results, "markdown"))
    if failed:
        raise failed[min(failed)]
    return results


def _cell_key(r: RunResult) -> tuple[str, float, int | None]:
    return (r.mode, r.c2_base, r.tau)


def render_results(results: list[RunResult], format: str) -> str:
    """Render run results as a per-run CSV or a grid-shaped markdown table."""
    if not results:
        raise ValueError("no results to render")
    if format == "csv":
        lines = [RUNS_CSV_HEADER]
        for r in results:
            tau = "" if r.tau is None else str(r.tau)
            lines.append(
                f"{r.mode},{float(r.c2_base)!r},{tau},{r.seed},"
                f"{r.final_mean_return:.17g},{r.wall_time_s:.17g},"
                f"{'true' if r.diverged else 'false'}"
            )
        return "\n".join(lines) + "\n"
    if format == "markdown":
        return _render_markdown(results)
    raise ValueError(f"format must be 'csv' or 'markdown', got {format!r}")


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
