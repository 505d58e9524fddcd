import importlib

import numpy as np
import pytest

from axppo.cli import build_parser, main, sweep_spec_from_args, train_config_from_args
from axppo.loss import TrainingDiverged
from axppo.net import load_checkpoint, save_checkpoint
from axppo.train import TrainConfig


def parse(argv):
    return build_parser().parse_args(argv)


def test_train_flag_mapping():
    ns = parse(["train", "--algo", "adaptive", "--entropy-coef", "0.8",
                "--tau", "50", "--seed", "7"])
    cfg = train_config_from_args(ns)
    assert cfg == TrainConfig(mode="adaptive", c2_base=0.8, tau=50, seed=7)
    # everything else stays at the documented defaults
    assert cfg.horizon == 256 and cfg.epochs == 10 and cfg.lr == 1e-3


def test_train_defaults():
    cfg = train_config_from_args(parse(["train"]))
    assert cfg == TrainConfig()


def test_sweep_defaults_full_grid():
    spec = sweep_spec_from_args(parse(["sweep"]))
    assert spec.coefficient_grid == (0.0, 0.1, 0.3, 0.5, 0.8)
    assert spec.tau_grid == (1, 10, 20, 50, 100, 200)
    assert spec.seeds_per_cell == 3
    assert spec.include_standard
    assert spec.total_env_steps == 60_000


def test_sweep_flag_parsing():
    spec = sweep_spec_from_args(parse([
        "sweep", "--coefs", "0.1,0.5", "--taus", "1,10", "--seeds", "2",
        "--jobs", "4", "--no-standard", "--base-seed", "9",
    ]))
    assert spec.coefficient_grid == (0.1, 0.5)
    assert spec.tau_grid == (1, 10)
    assert spec.seeds_per_cell == 2
    assert spec.parallelism == 4
    assert not spec.include_standard
    assert spec.base_seed == 9


@pytest.mark.parametrize("argv", [
    ["train", "--algo", "bogus"],
    ["train", "--entropy-coef", "lots"],
    ["train", "--seed", "-3"],
    ["sweep", "--taus", "1,two"],
    ["train", "--frobnicate"],
    [],
    # settings that parse but break a TrainConfig or SweepSpec rule
    ["train", "--tau", "0"],
    ["train", "--total-steps", "100"],
    ["sweep", "--seeds", "0"],
    ["sweep", "--jobs", "0"],
    ["sweep", "--total-steps", "100"],
    ["sweep", "--no-standard", "--coefs", "0"],
    ["eval", "--checkpoint", "missing.ckpt", "--episodes", "0"],
])
def test_usage_errors_exit_nonzero(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code not in (0, None)


def test_train_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--total-steps", "256", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert (out / "log.csv").exists()
    assert (out / "checkpoint.txt").exists()
    stdout = capsys.readouterr().out
    assert "eval mean return" in stdout

    cfg, params = load_checkpoint(out / "checkpoint.txt")
    assert params.shape == (cfg.param_count,)

    code = main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                 "--episodes", "2", "--seed", "5"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean return" in stdout
    assert "per-episode:" in stdout


def test_train_reports_divergence(tmp_path, capsys, monkeypatch):
    train_mod = importlib.import_module("axppo.train")
    real_update, calls = train_mod.ppo_update, []

    def flaky_update(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise TrainingDiverged("synthetic blow-up")
        return real_update(*args, **kwargs)

    monkeypatch.setattr(train_mod, "ppo_update", flaky_update)
    out = tmp_path / "run"
    assert main(["train", "--total-steps", "768", "--out", str(out)]) == 1
    assert "training diverged after 1 updates: synthetic blow-up" in capsys.readouterr().out
    assert len((out / "log.csv").read_text().splitlines()) == 1 + 1  # header + one update
    cfg, params = load_checkpoint(out / "checkpoint.txt")
    assert params.shape == (cfg.param_count,)


def test_sweep_command_end_to_end(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--coefs", "0,0.2", "--taus", "1", "--seeds", "1",
                 "--total-steps", "256", "--out", str(out)])
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "table.md").exists()
    lines = (out / "runs.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + standard x2 + adaptive x1
    stdout = capsys.readouterr().out
    assert "3/3 runs completed" in stdout


def test_eval_checkpoint_flag_required():
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code not in (0, None)


def test_eval_reports_unloadable_checkpoint(tmp_path, capsys):
    cfg = TrainConfig().net_config()
    params = np.zeros(cfg.param_count)
    params[3] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, cfg, params)
    no_field = tmp_path / "no_field.ckpt"
    no_field.write_text('{"obs_dim": 4}\n' + bad.read_text().split("\n", 1)[1])
    for path in (bad, tmp_path / "missing.ckpt", no_field):
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 1
        assert "cannot load checkpoint: " in capsys.readouterr().out
