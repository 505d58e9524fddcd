"""Command-line front end: single training runs, grid sweeps, checkpoint evaluation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .adaptive import MODES
from .net import load_checkpoint, save_checkpoint
from .sweep import SweepSpec, _describe, run_sweep
from .train import TrainConfig, evaluate, run_rng, train, write_update_log

__all__ = ["build_parser", "settings_from_args", "main"]


def _comma_list(kind: type, name: str):
    """An argparse type for a comma-separated list of `kind` values, called `name` in errors."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(x) for x in text.split(",") if x != "")
        except ValueError as exc:
            message = f"expected comma-separated {name}, got {text!r}"
            raise argparse.ArgumentTypeError(message) from exc
    return parse


def _commas(values: tuple[float, ...]) -> str:
    return ",".join(f"{v:g}" for v in values)


def build_parser() -> argparse.ArgumentParser:
    """The flags of each subcommand are named by the TrainConfig or SweepSpec field they
    set (their dest), and take that field's default."""
    parser = argparse.ArgumentParser(
        prog="axppo",
        description="Train PPO / adaptive-entropy PPO on a built-in CartPole simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("--algo", dest="mode", choices=MODES, default=TrainConfig.mode,
                         help="entropy schedule (default: %(default)s)")
    p_train.add_argument("--entropy-coef", dest="c2_base", type=float,
                         default=TrainConfig.c2_base, metavar="ENTROPY_COEF",
                         help="base entropy coefficient c2 (default: %(default)s)")
    p_train.add_argument("--tau", type=int, default=TrainConfig.tau, help="return-window"
                         " length in updates, adaptive mode (default: %(default)s)")
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed,
                         help="master seed (default: %(default)s)")
    p_train.add_argument("--total-steps", dest="total_env_steps", type=int,
                         default=TrainConfig.total_env_steps, metavar="TOTAL_STEPS",
                         help="environment steps to train for (default: %(default)s)")
    p_train.add_argument("--out", type=Path, default=Path("runs/train"),
                         help="output directory for log.csv and checkpoint.txt")
    p_train.set_defaults(func=cmd_train, settings=TrainConfig, parser=p_train)

    p_sweep = sub.add_parser("sweep", help="run the full coefficient x tau grid")
    p_sweep.add_argument("--coefs", dest="coefficient_grid", type=_comma_list(float, "floats"),
                         default=SweepSpec.coefficient_grid, metavar="C1,C2,...", help="entropy"
                         f" coefficient grid (default: {_commas(SweepSpec.coefficient_grid)})")
    p_sweep.add_argument("--taus", dest="tau_grid", type=_comma_list(int, "integers"),
                         default=SweepSpec.tau_grid, metavar="T1,T2,...",
                         help=f"window-length grid (default: {_commas(SweepSpec.tau_grid)})")
    p_sweep.add_argument("--seeds", dest="seeds_per_cell", type=int,
                         default=SweepSpec.seeds_per_cell, metavar="SEEDS",
                         help="seeds per grid cell (default: %(default)s)")
    p_sweep.add_argument("--jobs", dest="parallelism", type=int,
                         default=SweepSpec.parallelism, metavar="JOBS",
                         help="concurrent runs (default: %(default)s)")
    p_sweep.add_argument("--out", dest="output_dir", type=Path, default=SweepSpec.output_dir,
                         metavar="OUT", help="output directory for runs.csv, table.md and logs/")
    p_sweep.add_argument("--base-seed", type=int, default=SweepSpec.base_seed,
                         help="first seed of every cell (default: %(default)s)")
    p_sweep.add_argument("--total-steps", dest="total_env_steps", type=int,
                         default=SweepSpec.total_env_steps, metavar="TOTAL_STEPS",
                         help="environment steps per run (default: %(default)s)")
    p_sweep.add_argument("--no-standard", dest="include_standard", action="store_false",
                         default=SweepSpec.include_standard,
                         help="skip the standard-PPO rows of the grid")
    p_sweep.set_defaults(func=cmd_sweep, settings=SweepSpec, parser=p_sweep)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("--checkpoint", type=Path, required=True,
                        help="parameter checkpoint written by `train`")
    p_eval.add_argument("--episodes", dest="eval_episodes", type=int,
                        default=TrainConfig.eval_episodes, metavar="EPISODES",
                        help="evaluation episodes (default: %(default)s)")
    p_eval.add_argument("--seed", type=int, default=TrainConfig.seed,
                        help="draw from the eval stream of the run with this seed, as"
                             " `train --seed` does (default: %(default)s)")
    p_eval.set_defaults(func=cmd_eval, settings=TrainConfig, parser=p_eval)
    return parser


def settings_from_args(ns: argparse.Namespace) -> TrainConfig | SweepSpec:
    """Build ns.settings from every parsed value whose dest names one of its fields."""
    names = {f.name for f in fields(ns.settings)}
    return ns.settings(**{k: v for k, v in vars(ns).items() if k in names})


def cmd_train(ns: argparse.Namespace, config: TrainConfig) -> int:
    out: Path = ns.out
    for path in (out / "log.csv", out / "checkpoint.txt"):
        if path.exists():  # refuse before training, as a sweep refuses its output_dir
            print(f"train: {path} exists: {out} already holds a run", file=sys.stderr)
            return 1
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"train: {out} is not a directory, or lies under a file", file=sys.stderr)
        return 1

    result = train(config)
    write_update_log(result.records, out / "log.csv")
    save_checkpoint(out / "checkpoint.txt", config.net_config(), result.params)
    if result.diverged:
        print(f"training diverged after {len(result.records)} updates: {result.error}",
              file=sys.stderr)
        print(f"partial log: {out / 'log.csv'}", file=sys.stderr)
        return 1

    report = evaluate(result.params, config, run_rng(config.seed, "eval"))
    print(f"{_describe(config)}: eval mean return {report.mean_return:.1f}"
          f" (std {report.std:.1f}, {config.eval_episodes} episodes)")
    print(f"log: {out / 'log.csv'}")
    print(f"checkpoint: {out / 'checkpoint.txt'}")
    return 0


def cmd_sweep(ns: argparse.Namespace, spec: SweepSpec) -> int:
    try:
        results = run_sweep(spec)
    except FileExistsError as exc:  # output_dir is not a directory or holds a sweep
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    ok = [r for r in results if not r.diverged]
    print(f"{len(ok)}/{len(results)} runs completed")
    print(f"results: {Path(spec.output_dir) / 'runs.csv'}")
    print(f"table:   {Path(spec.output_dir) / 'table.md'}")
    return 0 if ok else 1


def cmd_eval(ns: argparse.Namespace, config: TrainConfig) -> int:
    try:
        net_config, params = load_checkpoint(ns.checkpoint)
    except (OSError, ValueError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return 1
    if net_config != config.net_config():
        print(f"checkpoint architecture {net_config} is not the CartPole actor-critic",
              file=sys.stderr)
        return 1
    report = evaluate(params, config, run_rng(config.seed, "eval"))
    print(f"mean return {report.mean_return:.1f} over {config.eval_episodes} episodes"
          f" (std {report.std:.1f})")
    print("per-episode:", " ".join(f"{r:.0f}" for r in report.per_episode_returns))
    return 0


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        settings = settings_from_args(ns)
    except ValueError as exc:  # a TrainConfig or SweepSpec rule; errors while running propagate
        ns.parser.error(str(exc))  # under the subcommand's usage line
    return ns.func(ns, settings)


if __name__ == "__main__":
    raise SystemExit(main())
