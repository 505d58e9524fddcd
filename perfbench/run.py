"""Benchmark for axppo: end-to-end throughput, set-up time and memory, plus a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_run --seed 1 --seconds 30 --trace 0

Workloads (each makes its inputs from --seed and checks every output against
references recorded in references.json; see layers.json for why each exists
and which layer metric should move which end-to-end metric):

    train_run        one default 60k-step adaptive run (c2=0.8, tau=50) per operation
    eval_checkpoint  load_checkpoint in set-up, then evaluate() over 10 stochastic episodes
    sweep_grid       run_sweep over a 4-run mixed grid with parallelism 2

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced run (see tracer.py),
after checking the traced call counts against their exact expectations.
Every time is reported in normalized seconds (see speed.py).

The package is imported from ./src of the checkout only; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("train_run", "eval_checkpoint", "sweep_grid")

# --seed picks inputs from these recorded reference sets, so every input the
# benchmark can make has a reference to check against.
TRAIN_SEEDS = 16
EVAL_SEEDS = 64
SWEEP_SEEDS = 16

TRAIN_RUN = dict(mode="adaptive", c2_base=0.8, tau=50)  # the README demo run
EVAL_EPISODES = 10
POLICY_SEED = 1  # eval_checkpoint evaluates the final policy of train_run's seed-1 run
SEED_OFFSET_EVAL = 4  # evaluation stream of a run, as in axppo.sweep
SWEEP_GRID = dict(
    coefficient_grid=(0.0, 0.8),
    tau_grid=(1, 200),
    seeds_per_cell=1,
    parallelism=2,
    total_env_steps=15_360,
)
SWEEP_RUNS = 4  # standard c2=0, standard c2=0.8, adaptive c2=0.8 at tau 1 and 200
SETUP_PROBES = 6


def input_seed(seed: int, op: int, count: int) -> int:
    """Reference seed (1..count) used by operation `op` of a run started with --seed."""
    return 1 + (seed + op) % count


def params_sha256(params) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


@dataclass
class Op:
    """One timed operation and the outcome of its output check."""

    steps: int = 0
    wall_s: float = 0.0
    norm_s: float = 0.0
    attempted: int = 1
    failed: int = 0
    unchecked: int = 0
    extra: dict = field(default_factory=dict)


# workloads ------------------------------------------------------------------------------------


class TrainRun:
    attempts_per_op = 1
    kernel = "train"

    def __init__(self, axppo, seed: int, work: Path, references: dict):
        self.axppo = axppo
        self.seed = seed
        self.references = references.get("train_run", {})
        self.updates_per_train = self.config(1).num_updates

    def config(self, train_seed: int):
        return self.axppo.TrainConfig(seed=train_seed, **TRAIN_RUN)

    def op(self, j: int, sampler) -> Op:
        import numpy as np

        train_seed = input_seed(self.seed, j, TRAIN_SEEDS)
        config = self.config(train_seed)
        result, wall, norm = sampler.timed(lambda: self.axppo.train(config))
        rng = np.random.default_rng(train_seed + SEED_OFFSET_EVAL)
        report, _, eval_norm = sampler.timed(
            lambda: self.axppo.evaluate(result.params, config, rng)
        )
        op = Op(
            steps=config.num_updates * config.horizon, wall_s=wall, norm_s=norm,
            extra=dict(
                input_seed=train_seed,
                updates=len(result.records),
                eval_steps=int(sum(report.per_episode_returns)),
                eval_norm_s=eval_norm,
            ),
        )
        ref = self.references.get(str(train_seed))
        if ref is None:
            op.unchecked = 1
        elif (result.diverged or params_sha256(result.params) != ref["params_sha256"]
              or report.mean_return != ref["eval_mean_return"]):
            op.failed = 1
        return op

    def expected_calls(self, op: Op, episodes: int) -> dict:
        c = self.config(op.extra["input_seed"])
        u, steps, ev = op.extra["updates"], op.extra["updates"] * c.horizon, op.extra["eval_steps"]
        minibatches = u * c.epochs * (c.horizon // c.minibatch_size)
        return {
            "train.train": 1, "train.evaluate": 1,
            "rollout.collect_rollout": u, "rollout.compute_gae": u,
            "loss.ppo_update": u, "adaptive.push_batch_return": u,
            "adaptive.effective_entropy_coef": u,
            "cartpole.step": steps + ev, "rollout.sample_categorical": steps + ev,
            # one extra value call per truncation and per rollout that ends mid-episode
            "net.forward_single": (steps + ev, steps + ev + u + episodes),
            "cartpole.reset": 1 + episodes + c.eval_episodes,
            "net.forward": minibatches, "net.backprop": minibatches,
            "optim.adam_step": minibatches,
            "loss.loss_breakdown": minibatches, "loss.loss_output_gradients": minibatches,
        }

    required_calls = ("train.train", "train.evaluate", "cartpole.step", "net.forward")


class EvalCheckpoint:
    attempts_per_op = 1
    kernel = "step"

    def __init__(self, axppo, seed: int, work: Path, references: dict, reload: bool = False):
        self.axppo = axppo
        self.seed = seed
        self.reload = reload
        self.references = references.get("eval_checkpoint", {})
        self.config = axppo.TrainConfig(eval_episodes=EVAL_EPISODES)
        policy = [float.fromhex(line) for line in
                  (BENCH_DIR / "policy_seed1.hex").read_text().split()]
        self.checkpoint = work / "policy.ckpt"
        axppo.save_checkpoint(self.checkpoint, self.config.net_config(), policy)
        net, self.params = axppo.load_checkpoint(self.checkpoint)
        self.checkpoint_ok = (net == self.config.net_config()
                              and params_sha256(self.params) == self.references.get("policy_sha256"))

    def op(self, j: int, sampler) -> Op:
        import numpy as np

        eval_seed = input_seed(self.seed, j, EVAL_SEEDS)

        def work():
            params = self.axppo.load_checkpoint(self.checkpoint)[1] if self.reload else self.params
            return self.axppo.evaluate(params, self.config, np.random.default_rng(eval_seed))

        report, wall, norm = sampler.timed(work)
        steps = int(sum(report.per_episode_returns))
        op = Op(steps=steps, wall_s=wall, norm_s=norm,
                extra=dict(input_seed=eval_seed, eval_steps=steps))
        ref = self.references.get("mean_returns", {}).get(str(eval_seed))
        if ref is None:
            op.unchecked = 1
        elif not self.checkpoint_ok or report.mean_return != ref:
            op.failed = 1
        return op

    def expected_calls(self, op: Op, episodes: int) -> dict:
        steps = op.extra["eval_steps"]
        never = ("net.forward", "net.backprop", "optim.adam_step", "loss.ppo_update",
                 "loss.loss_breakdown", "loss.loss_output_gradients", "rollout.collect_rollout")
        return {
            "train.evaluate": 1, "net.load_checkpoint": 1 if self.reload else 0,
            "cartpole.step": steps, "net.forward_single": steps,
            "rollout.sample_categorical": steps, "cartpole.reset": EVAL_EPISODES,
            **{name: 0 for name in never},
        }

    required_calls = ("train.evaluate", "cartpole.step")
    updates_per_train = 0


class SweepGrid:
    attempts_per_op = SWEEP_RUNS
    kernel = "train"

    def __init__(self, axppo, seed: int, work: Path, references: dict):
        self.axppo = axppo
        self.seed = seed
        self.references = references.get("sweep_grid", {})
        self.out_root = work / "sweeps"
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir(parents=True)
        self.config = axppo.TrainConfig(total_env_steps=SWEEP_GRID["total_env_steps"])
        self.updates_per_train = self.config.num_updates

    def spec(self, base_seed: int, out_dir: Path):
        return self.axppo.SweepSpec(base_seed=base_seed, output_dir=out_dir, **SWEEP_GRID)

    def op(self, j: int, sampler) -> Op:
        base_seed = input_seed(self.seed, j, SWEEP_SEEDS)
        out_dir = self.out_root / f"op{j}"
        shutil.rmtree(out_dir, ignore_errors=True)
        spec = self.spec(base_seed, out_dir)
        results, wall, norm = sampler.timed(lambda: self.axppo.run_sweep(spec),
                                             in_this_thread=False)
        rows = read_runs_csv(out_dir / "runs.csv")
        u = self.config.num_updates
        op = Op(
            steps=SWEEP_RUNS * u * self.config.horizon, wall_s=wall, norm_s=norm,
            attempted=SWEEP_RUNS,
            extra=dict(
                input_seed=base_seed,
                run_s=[float(r["wall_time_s"]) for r in rows],
                eval_steps=sum(round(float(r["final_return"]) * spec.eval_episodes) for r in rows),
            ),
        )
        ref = self.references.get(str(base_seed))
        if ref is None:
            op.unchecked = SWEEP_RUNS
        else:
            for i in range(SWEEP_RUNS):
                log = Path(results[i].log_path) if i < len(results) else None
                ok = (
                    i < len(rows) and i < len(ref) and run_row(rows[i]) == ref[i]
                    and rows[i]["diverged"] == "false"
                    and log is not None and log.is_file()
                    and len(log.read_text().splitlines()) == u + 1
                )
                op.failed += 0 if ok else 1
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    def expected_calls(self, op: Op, episodes: int) -> dict:
        c, n = self.config, SWEEP_RUNS
        u = c.num_updates
        minibatches = n * u * c.epochs * (c.horizon // c.minibatch_size)
        return {
            "sweep.run_sweep": 1, "sweep.render_results": 2,
            "train.train": n, "train.evaluate": n,
            "rollout.collect_rollout": n * u, "loss.ppo_update": n * u,
            "cartpole.step": n * u * c.horizon + op.extra["eval_steps"],
            "net.forward": minibatches, "net.backprop": minibatches,
            "optim.adam_step": minibatches,
        }

    required_calls = ("sweep.run_sweep", "train.train", "cartpole.step", "net.forward")


def read_runs_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def run_row(row: dict) -> dict:
    """A runs.csv row reduced to what must repeat exactly (everything but wall_time_s)."""
    return {
        "mode": row["mode"],
        "c2": float(row["c2"]),
        "tau": int(row["tau"]) if row["tau"] else None,
        "seed": int(row["seed"]),
        "final_return": float(row["final_return"]),
        "diverged": row["diverged"] == "true",
    }


def make_workload(name: str, axppo, seed: int, work: Path, references: dict, trace: bool):
    if name == "train_run":
        return TrainRun(axppo, seed, work, references)
    if name == "eval_checkpoint":
        return EvalCheckpoint(axppo, seed, work, references, reload=trace)
    return SweepGrid(axppo, seed, work, references)


# set-up ---------------------------------------------------------------------------------------


def setup(name: str, seed: int, work: Path, trace: bool):
    """Import the package and prepare the workload; returns (workload, wall s, normalized s)."""
    t0 = time.perf_counter()
    axppo = importlib.import_module("axppo")
    references = json.loads((BENCH_DIR / "references.json").read_text())
    work.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, axppo, seed, work, references, trace)
    wall = time.perf_counter() - t0
    if not Path(axppo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: axppo was imported from {axppo.__file__}, not from {SRC}")
    import speed

    return workload, wall, speed.normalize(wall, "step")


def setup_probes(name: str, seed: int, work: Path) -> list[float]:
    """Normalized set-up time of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for i in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--setup-probe", str(work / f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(work / f"probe{i}", ignore_errors=True)
    return times


# measuring ------------------------------------------------------------------------------------


def timed_pass(workload, seconds: float, sampler) -> list[Op]:
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        ops.append(guarded(lambda: workload.op(j, sampler), workload))
        j += 1
        if time.perf_counter() >= deadline:
            return ops


_reported_error = False


def guarded(fn, workload) -> Op:
    """Run one operation; an exception makes it a failed operation, reported once on stderr."""
    global _reported_error
    try:
        return fn()
    except Exception:
        if not _reported_error:
            traceback.print_exc()
            _reported_error = True
        return Op(attempted=workload.attempts_per_op, failed=workload.attempts_per_op)


def traced_pass(workload, seconds: float, sampler, tracer):
    """Pairs of (untraced, traced) runs of the same input until `seconds` have passed."""
    twins: list[Op] = []
    traced: list[Op] = []
    deadline = time.perf_counter() + seconds
    while True:
        twins.append(guarded(lambda: workload.op(0, sampler), workload))
        tracer.install()
        try:
            traced.append(guarded(lambda: workload.op(0, sampler), workload))
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            return twins, traced


# reporting ------------------------------------------------------------------------------------


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "loadavg_at_start": list(os.getloadavg()),
    }
    return facts


def library_facts() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # the layout of show_config differs across numpy versions
        pass
    return {"numpy": np.__version__, "blas": blas}


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it has waited for (sweep workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def describe(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    text = f"median {statistics.median(values):.6g}"
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"
            break
    return text + f", n={len(values)}"


def totals(ops: list[Op]) -> tuple[int, int, int]:
    return (sum(o.attempted for o in ops), sum(o.failed for o in ops),
            sum(o.unchecked for o in ops))


def end_to_end(name: str, ops: list[Op], setup_times: list[float]) -> tuple[dict, list[str]]:
    good = [o for o in ops if o.norm_s > 0 and not o.failed]
    metrics, lines = {}, []
    label = {"train_run": "train_env_steps_per_s", "eval_checkpoint": "eval_env_steps_per_s",
             "sweep_grid": "sweep_env_steps_per_s"}[name]
    if good:
        rates = [o.steps / o.norm_s for o in good]
        metrics["env_steps_per_s"] = {"value": statistics.median(rates), "unit": "steps/s"}
        raw = [o.steps / o.wall_s for o in good]
        lines.append(f"env_steps_per_s ({label}): {describe(rates)} steps/s "
                     f"[unnormalized wall: {describe(raw)}]")
        if name == "train_run":
            ev = [o.extra["eval_steps"] / o.extra["eval_norm_s"] for o in good]
            lines.append(f"eval_env_steps_per_s (final policy, 20 episodes): {describe(ev)} steps/s")
    metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    lines.append(f"setup_s: {describe(setup_times)} s")
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.6g} MB")
    attempted, failed, _ = totals(ops)
    lines.append(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return metrics, lines


PER_LAYER = (
    # name, unit, how it is computed from the traced run
    ("cartpole.step.calls", "count", ("calls", "cartpole.step")),
    ("cartpole.step.us_per_call", "us", ("us", "cartpole.step")),
    ("cartpole.reset.calls", "count", ("calls", "cartpole.reset")),
    ("net.forward_single.calls", "count", ("calls", "net.forward_single")),
    ("net.forward_single.us_per_call", "us", ("us", "net.forward_single")),
    ("net.forward.busy_s", "s", ("busy", "net.forward")),
    ("net.backprop.busy_s", "s", ("busy", "net.backprop")),
    ("net.forward.calls", "count", ("calls", "net.forward")),
    ("net.load_checkpoint.busy_s", "s", ("busy", "net.load_checkpoint")),
    ("optim.adam_step.busy_s", "s", ("busy", "optim.adam_step")),
    ("optim.adam_step.calls", "count", ("calls", "optim.adam_step")),
    ("loss.ppo_update.busy_s", "s", ("busy", "loss.ppo_update")),
    ("loss.ppo_update.self_s", "s", ("self", "loss.ppo_update")),
    ("loss.loss_breakdown.busy_s", "s", ("busy", "loss.loss_breakdown")),
    ("loss.loss_output_gradients.busy_s", "s", ("busy", "loss.loss_output_gradients")),
    ("rollout.collect_rollout.busy_s", "s", ("busy", "rollout.collect_rollout")),
    ("rollout.collect_rollout.self_s", "s", ("self", "rollout.collect_rollout")),
    ("rollout.sample_categorical.busy_s", "s", ("busy", "rollout.sample_categorical")),
    ("rollout.compute_gae.busy_s", "s", ("busy", "rollout.compute_gae")),
    ("rollout.episodes_completed", "count", ("episodes", None)),
    ("adaptive.busy_s", "s", ("layer", "adaptive")),
    ("train.update_ms.p50", "ms", ("update_ms", 50)),
    ("train.update_ms.p95", "ms", ("update_ms", 95)),
    ("train.evaluate.busy_s", "s", ("busy", "train.evaluate")),
    ("train.updates_completed_share", "ratio", ("updates_share", None)),
    ("sweep.run_s.p50", "s", ("run_s", 50)),
    ("sweep.run_s.max", "s", ("run_s", 100)),
    ("sweep.worker_busy_share", "ratio", ("busy_share", None)),
    ("sweep.report_s", "s", ("busy", "sweep.render_results")),
    ("trace.overhead_share", "ratio", ("overhead", None)),
)


def per_layer(workload, spans, twins: list[Op], traced: list[Op]) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced operation; times are normalized like the end-to-end ones."""
    import numpy as np

    n = len(traced)
    scale = sum(o.norm_s for o in traced) / sum(o.wall_s for o in traced)
    present = set(spans.names)
    metrics, absent = {}, []
    for name, unit, (kind, arg) in PER_LAYER:
        value = None
        if kind in ("calls", "us", "busy", "self"):
            if arg in present:
                calls = spans.calls(arg)
                value = {
                    "calls": calls / n,
                    "busy": spans.busy(arg) * scale / n,
                    "self": spans.self_seconds(arg) * scale / n,
                    "us": spans.busy(arg) * scale / calls * 1e6 if calls else 0.0,
                }[kind]
        elif kind == "layer":
            value = spans.layer_busy(arg) * scale / n
        elif kind == "episodes":
            if {"cartpole.reset", "rollout.collect_rollout"} <= present:
                parents = spans.parent_names("cartpole.reset")
                value = parents.count("rollout.collect_rollout") / n
        elif kind == "update_ms":
            if {"train.train", "rollout.collect_rollout", "loss.ppo_update"} <= present:
                rollouts = spans.children_in_order("train.train", "rollout.collect_rollout")
                updates = spans.children_in_order("train.train", "loss.ppo_update")
                ms = [
                    (spans.end[u] - spans.start[r]) * scale * 1e3
                    for rs, us in zip(rollouts, updates) if len(rs) == len(us)
                    for r, u in zip(rs, us)
                ]
                value = float(np.percentile(ms, arg)) if ms else 0.0
        elif kind == "updates_share":
            if {"train.train", "loss.ppo_update"} <= present:
                expected = spans.calls("train.train") * workload.updates_per_train
                done = spans.parent_names("loss.ppo_update").count("train.train")
                value = done / expected if expected else 0.0
        elif kind == "run_s":
            runs = [s for o in twins for s in o.extra.get("run_s", [])]
            twin_scale = sum(o.norm_s for o in twins) / sum(o.wall_s for o in twins)
            value = float(np.percentile(runs, arg)) * twin_scale if runs else 0.0
        elif kind == "busy_share":
            busy = [sum(o.extra["run_s"]) / (SWEEP_GRID["parallelism"] * o.wall_s)
                    for o in twins if o.extra.get("run_s")]
            value = statistics.median(busy) if busy else 0.0
        elif kind == "overhead":
            value = sum(o.norm_s for o in traced) / sum(o.norm_s for o in twins) - 1.0
        if value is None:
            absent.append(name)
        else:
            metrics[name] = {"value": float(value), "unit": unit}
    lines = [f"{k}: {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines += [f"{k}: absent (the function it measures no longer exists)" for k in absent]
    return metrics, lines


def self_check(workload, spans, traced: list[Op]) -> list[str]:
    """Compare traced call counts with their exact expectations; returns the mismatches."""
    # every traced operation runs the same input, so each completes the same episodes
    episodes = spans.parent_names("cartpole.reset").count("rollout.collect_rollout") // len(traced)
    expected: dict = {}
    for op in traced:
        for name, want in workload.expected_calls(op, episodes).items():
            lo, hi = want if isinstance(want, tuple) else (want, want)
            a, b = expected.get(name, (0, 0))
            expected[name] = (a + lo, b + hi)
    problems = []
    for name, (lo, hi) in expected.items():
        if name not in spans.names:
            continue  # the function no longer exists: its metrics are absent
        got = spans.calls(name)
        if got == 0 and lo > 0 and name not in workload.required_calls:
            continue  # exists but is no longer called on this path
        if not lo <= got <= hi:
            want = lo if lo == hi else f"{lo}..{hi}"
            problems.append(f"{name}.calls = {got}, expected {want}")
    if isinstance(workload, SweepGrid) and spans.worker_files == 0:
        problems.append("no spans came back from the sweep's worker processes")
    return problems


# main -----------------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "axppo" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'axppo'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)

    if args.setup_probe:
        _, _, norm = setup(args.workload, args.seed, Path(args.setup_probe), trace)
        print(json.dumps({"setup_s": norm}))
        return 0

    facts = machine_facts()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload, _, setup_norm = setup(args.workload, args.seed, work, trace)
    setup_times = [setup_norm] + ([] if trace else setup_probes(args.workload, args.seed, work))
    facts.update(library_facts())

    import speed

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    with speed.SpeedSampler(workload.kernel, work / "speed") as sampler:
        if trace:
            from tracer import Tracer

            tracer = Tracer(work / "spans")
            twins, ops = traced_pass(workload, args.seconds, sampler, tracer)
        else:
            ops = timed_pass(workload, args.seconds, sampler)

    all_ops = twins + ops if trace else ops
    attempted, failed, unchecked = totals(all_ops)
    problems: list[str] = []
    if trace:
        spans = tracer.spans()
        problems = self_check(workload, spans, ops) if not failed else []
        metrics, lines = per_layer(workload, spans, twins, ops) if not failed else ({}, [])
        tracer.write(work / "trace")
        lines.append(f"call-count self-check: {'passed' if not problems else 'FAILED'}"
                     f" over {len(ops)} traced operations")
        lines += [f"  {p}" for p in problems]
    else:
        metrics, lines = end_to_end(args.workload, ops, setup_times)
    lines.append(f"output check: {attempted - failed - unchecked} of {attempted} operations "
                 f"matched their references, {failed} failed, {unchecked} unchecked")
    for line in lines:
        print(line)

    correct = failed == 0 and unchecked == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "unchecked": unchecked, "self_check_problems": problems,
         "setup_s_samples": setup_times,
         "machine": facts, "workload": args.workload, "seed": args.seed,
         "ops": [o.__dict__ for o in all_ops]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
