import argparse
import dataclasses
import importlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

from axppo.cli import build_parser, main, settings_from_args
from axppo.loss import LEARNING_RATE, TrainingDiverged
from axppo.net import NetworkConfig, load_checkpoint, save_checkpoint
from axppo.sweep import SweepSpec
from axppo.train import TrainConfig


def parse(argv):
    return build_parser().parse_args(argv)


def test_train_flag_mapping():
    ns = parse(["train", "--algo", "adaptive", "--entropy-coef", "0.8",
                "--tau", "50", "--seed", "7"])
    cfg = settings_from_args(ns)
    assert cfg == TrainConfig(mode="adaptive", c2_base=0.8, tau=50, seed=7)
    # everything else stays at the documented defaults
    assert cfg.horizon == 256 and cfg.epochs == 10 and LEARNING_RATE == 1e-3


def test_train_defaults():
    cfg = settings_from_args(parse(["train"]))
    assert cfg == TrainConfig()
    assert settings_from_args(parse(["eval", "--checkpoint", "c.txt"])) == TrainConfig()


def test_every_flag_sets_a_field_of_its_settings():
    # flags map onto fields by name, so a flag whose dest names no field would be ignored
    own = {"train": {"help", "out"}, "sweep": {"help"}, "eval": {"help", "checkpoint"}}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(own)
    for command, parser in subparsers.choices.items():
        names = {f.name for f in dataclasses.fields(parser.get_default("settings"))}
        dests = {action.dest for action in parser._actions} - own[command]
        assert dests and dests <= names, (command, dests - names)


def test_sweep_defaults_full_grid():
    spec = settings_from_args(parse(["sweep"]))
    assert spec.coefficient_grid == (0.0, 0.1, 0.3, 0.5, 0.8)
    assert spec.tau_grid == (1, 10, 20, 50, 100, 200)
    assert spec.seeds_per_cell == 3
    assert spec.include_standard
    assert spec.total_env_steps == 60_000
    assert spec == SweepSpec(output_dir=Path("runs/sweep"))


def test_sweep_flag_parsing():
    spec = settings_from_args(parse([
        "sweep", "--coefs", "0.1,0.5", "--taus", "1,10", "--seeds", "2",
        "--jobs", "4", "--no-standard", "--base-seed", "9",
    ]))
    assert spec.coefficient_grid == (0.1, 0.5)
    assert spec.tau_grid == (1, 10)
    assert spec.seeds_per_cell == 2
    assert spec.parallelism == 4
    assert not spec.include_standard
    assert spec.base_seed == 9


PARSE_ERRORS = [
    ["train", "--algo", "bogus"],
    ["train", "--entropy-coef", "lots"],
    ["sweep", "--taus", "1,two"],
    ["sweep", "--coefs", "0,x"],
    ["train", "--frobnicate"],
    [],
]
# settings that parse but break a TrainConfig or SweepSpec rule
RULE_ERRORS = [
    ["train", "--seed", "-3"],
    ["train", "--tau", "0"],
    ["train", "--total-steps", "100"],
    ["sweep", "--seeds", "0"],
    ["sweep", "--jobs", "0"],
    ["sweep", "--total-steps", "100"],
    ["sweep", "--no-standard", "--coefs", "0"],
    ["eval", "--checkpoint", "missing.ckpt", "--episodes", "0"],
    ["eval", "--checkpoint", "missing.ckpt", "--seed", "-1"],
    ["sweep", "--taus", "0"],
]


@pytest.mark.parametrize("argv", PARSE_ERRORS + RULE_ERRORS)
def test_usage_errors_exit_nonzero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code not in (0, None)
    err = capsys.readouterr().err
    if argv in RULE_ERRORS:  # reported under the subcommand's usage, not the top-level one
        assert err.startswith(f"usage: axppo {argv[0]} [-h]")
    if argv[:1] == ["eval"] and "--seed" in argv:  # refused by TrainConfig's rule, not the CLI's
        assert "seed must be >= 0, got -1" in err
    if argv[1:] in (["--tau", "0"], ["--taus", "0"]):  # one window rule, TrainConfig's
        assert err.endswith(f"axppo {argv[0]}: error: tau must be >= 1, got 0\n")
    if argv[1:] == ["--total-steps", "100"]:
        assert err.endswith(f"axppo {argv[0]}: error: total_env_steps must be >= 256"
                            " (one horizon), got 100\n")


def test_list_flags_name_the_kind_they_expect(capsys):
    for argv, expected in ((["sweep", "--coefs", "0,x"], "floats, got '0,x'"),
                           (["sweep", "--taus", "1,two"], "integers, got '1,two'")):
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().err.endswith(f"error: argument {argv[1]}: expected"
                                                f" comma-separated {expected}\n")


@pytest.mark.parametrize("mode, label", [("standard", "standard c2=0.3 seed=4"),
                                         ("adaptive", "adaptive c2=0.3 tau=2 seed=4")],
                         ids=["standard", "adaptive"])
def test_train_and_sweep_label_a_run_alike(tmp_path, capsys, mode, label):
    steps = ["--total-steps", "256"]
    assert main(["train", "--algo", mode, "--entropy-coef", "0.3", "--tau", "2", "--seed", "4",
                 "--out", str(tmp_path / "train")] + steps) == 0
    assert capsys.readouterr().out.startswith(f"{label}: eval mean return ")
    assert main(["sweep", "--coefs", "0.3", "--taus", "2", "--seeds", "1", "--base-seed", "4",
                 "--out", str(tmp_path / "sweep")] + steps) == 0
    progress = [line.split("] ", 1)[1] for line in capsys.readouterr().err.splitlines()]
    assert sum(line.startswith(f"{label}: eval return ") for line in progress) == 1


def test_train_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--total-steps", "256", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert (out / "log.csv").exists()
    assert (out / "checkpoint.txt").exists()
    trained_mean = re.search(r"eval mean return (\S+) ", capsys.readouterr().out).group(1)

    cfg, params = load_checkpoint(out / "checkpoint.txt")
    assert params.shape == (cfg.param_count,)

    code = main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                 "--episodes", "2", "--seed", "5"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean return" in stdout
    assert "per-episode:" in stdout

    # the same seed and episode count evaluate on the run's own eval stream, as train did
    assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"), "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith(f"mean return {trained_mean} over 20 episodes")


@pytest.mark.parametrize("name", ["log.csv", "checkpoint.txt"])
def test_train_refuses_an_output_directory_that_holds_a_run(tmp_path, capsys, monkeypatch, name):
    out = tmp_path / "run"
    out.mkdir()
    (out / name).write_text("earlier run\n")
    trained = []
    monkeypatch.setattr(importlib.import_module("axppo.cli"), "train", trained.append)
    assert main(["train", "--total-steps", "256", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(out / name) in err[0]
    assert trained == []
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_text() == "earlier run\n"


ONE_RUN_SWEEP = ["sweep", "--coefs", "0.2", "--taus", "1", "--seeds", "1", "--no-standard"]
ONE_RUN_LOG = "logs/run_adaptive_0.2_1_1.csv"


@pytest.mark.parametrize("argv, name, left", [
    (["train"], "log.csv", []),
    (["train"], "checkpoint.txt", ["log.csv"]),
    (ONE_RUN_SWEEP, "runs.csv", ["logs", ONE_RUN_LOG]),
    (ONE_RUN_SWEEP, "table.md", ["logs", ONE_RUN_LOG, "runs.csv"]),
])
def test_failed_write_leaves_no_partial_or_temporary_file(tmp_path, monkeypatch, argv, name, left):
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError(f"cannot write {dst}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "out"
    with pytest.raises(OSError, match=f"cannot write .*{name}"):
        main(argv + ["--total-steps", "256", "--out", str(out)])
    assert [p.relative_to(out).as_posix() for p in sorted(out.rglob("*"))] == left


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "training diverged after 1 updates: synthetic blow-up",
        f"partial log: {out / 'log.csv'}",
    ]
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


def test_sweep_refuses_an_output_directory_that_holds_a_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    tiny = ["--taus", "1", "--seeds", "1", "--no-standard", "--total-steps", "256",
            "--out", str(out)]
    assert main(["sweep", "--coefs", "0.2"] + tiny) == 0
    capsys.readouterr()
    runs_csv = (out / "runs.csv").read_text()
    assert main(["sweep", "--coefs", "0.5"] + tiny) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(out / "runs.csv") in err[0]
    assert (out / "runs.csv").read_text() == runs_csv
    assert [p.name for p in (out / "logs").iterdir()] == ["run_adaptive_0.2_1_1.csv"]


def assert_refused_untouched(tmp_path, capsys, monkeypatch, command, out):
    """`command --out out`, with tmp_path/F an existing file, prints one stderr line naming
    out and exits 1, and trains and writes nothing."""
    file = tmp_path / "F"
    file.write_text("not a directory\n")
    cli = importlib.import_module("axppo.cli")
    trained = []
    monkeypatch.setattr(cli, "train", trained.append)
    monkeypatch.setattr(importlib.import_module("axppo.sweep"), "_run_in_pools",
                        lambda *args: trained.append(args))  # where a sweep starts its runs
    assert main(command + ["--total-steps", "256", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(out) in err[0]
    assert trained == []
    assert [p.name for p in tmp_path.iterdir()] == ["F"]
    assert file.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", [["train"], ONE_RUN_SWEEP])
def test_an_output_path_that_is_a_file_is_refused(tmp_path, capsys, monkeypatch, command):
    assert_refused_untouched(tmp_path, capsys, monkeypatch, command, tmp_path / "F")


@pytest.mark.parametrize("command", [["train"], ONE_RUN_SWEEP])
def test_an_output_path_under_a_file_is_refused(tmp_path, capsys, monkeypatch, command):
    assert_refused_untouched(tmp_path, capsys, monkeypatch, command, tmp_path / "F" / "sub")


def test_sweep_standard_log_matches_train_log(tmp_path):
    steps = ["--total-steps", str(4 * 256)]  # g_recent depends on tau from the second update
    assert main(["sweep", "--coefs", "0.3", "--taus", "2", "--seeds", "1", "--base-seed", "4",
                 "--out", str(tmp_path / "sweep")] + steps) == 0
    assert main(["train", "--algo", "standard", "--entropy-coef", "0.3", "--seed", "4",
                 "--out", str(tmp_path / "train")] + steps) == 0
    sweep_log = tmp_path / "sweep" / "logs" / "run_standard_0.3_na_4.csv"
    assert sweep_log.read_bytes() == (tmp_path / "train" / "log.csv").read_bytes()


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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot load checkpoint: " in captured.err


def test_eval_reports_a_foreign_architecture_on_stderr(tmp_path, capsys):
    cfg = NetworkConfig(obs_dim=4, hidden_sizes=(8,), action_count=2)
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, cfg, np.zeros(cfg.param_count))
    assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not the CartPole actor-critic" in captured.err
