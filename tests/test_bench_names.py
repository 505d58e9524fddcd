"""The benchmark still finds every function and config attribute it uses.

perfbench/run.py reads per-layer metrics off spans of the package's public
functions (tracer.public_functions). A metric whose function is gone or no
longer public reads as absent rather than failing, so a change that routes
around a measured function would otherwise show only in a --trace 1 run.
Its workloads also read TrainConfig and SweepSpec attributes; a renamed one
would otherwise show only as a crash in a benchmark run. The benchmark
seeds a run's evaluation itself, so a change to run_rng's eval stream would
otherwise show only as failed output checks.
"""

import importlib
from pathlib import Path

import numpy as np

import axppo
from axppo.train import run_rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_measured_function_is_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracer = importlib.import_module("tracer")

    measured = {
        arg for _, _, (kind, arg) in run.PER_LAYER if kind in ("calls", "us", "busy", "self")
    }
    workloads = [
        w for w in vars(run).values() if isinstance(w, type) and hasattr(w, "required_calls")
    ]
    assert len(workloads) == len(run.WORKLOADS)
    for workload in workloads:
        measured.update(workload.required_calls)

    assert measured
    missing = sorted(measured - set(tracer.public_functions()))
    assert not missing, f"measured by perfbench but not public: {missing}"


def test_workloads_build_and_count_calls(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")

    op = run.Op(extra=dict(updates=2, eval_steps=300, input_seed=1))
    expected = {}
    for name in run.WORKLOADS:
        workload = run.make_workload(name, axppo, seed=1, work=tmp_path, references={}, trace=True)
        expected[name] = workload.expected_calls(op, episodes=5)

    # 2 updates x 10 epochs x 256/64 minibatches; 1 + 5 training episodes + 20 eval episodes
    assert expected["train_run"]["net.forward"] == 80
    assert expected["train_run"]["cartpole.step"] == 2 * 256 + 300
    assert expected["train_run"]["cartpole.reset"] == 1 + 5 + 20
    assert expected["eval_checkpoint"]["cartpole.step"] == 300
    # 4 runs x 15360/256 updates x 10 epochs x 4 minibatches
    assert expected["sweep_grid"]["net.forward"] == 4 * 60 * 10 * 4
    assert expected["sweep_grid"]["cartpole.step"] == 4 * 60 * 256 + 300


def test_benchmark_evaluates_a_run_on_its_eval_stream(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    seen = []

    class Package:  # what train_run calls, without the training
        TrainConfig = axppo.TrainConfig

        @staticmethod
        def train(config):
            return axppo.TrainResult(params=np.zeros(1), records=())

        @staticmethod
        def evaluate(params, config, rng):
            seen.append((config.seed, rng.random(8)))
            return axppo.EvalReport(mean_return=0.0, per_episode_returns=(0.0,), std=0.0)

    class Sampler:
        @staticmethod
        def timed(fn):
            return fn(), 0.0, 0.0

    workload = run.make_workload("train_run", Package, seed=1, work=tmp_path, references={},
                                 trace=False)
    for j in range(4):
        workload.op(j, Sampler)
    assert len({seed for seed, _ in seen}) == 4
    for seed, draws in seen:
        assert np.array_equal(draws, run_rng(seed, "eval").random(8)), seed
