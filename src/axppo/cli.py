"""Command-line front end: single training runs, grid sweeps, checkpoint evaluation."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .net import load_checkpoint, save_checkpoint
from .sweep import DEFAULT_COEFFICIENTS, DEFAULT_TAUS, SweepSpec, run_sweep
from .train import SEED_OFFSET_EVAL, TrainConfig, evaluate, train, write_update_log

__all__ = ["build_parser", "train_config_from_args", "sweep_spec_from_args", "main"]


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axppo",
        description="Train PPO / adaptive-entropy PPO on a built-in CartPole simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("--algo", choices=["standard", "adaptive"], default="standard",
                         help="entropy schedule (default: standard)")
    p_train.add_argument("--entropy-coef", type=float, default=0.0,
                         help="base entropy coefficient c2 (default: 0.0)")
    p_train.add_argument("--tau", type=int, default=50,
                         help="return-window length in updates, adaptive mode (default: 50)")
    p_train.add_argument("--seed", type=_seed, default=1, help="master seed (default: 1)")
    p_train.add_argument("--total-steps", type=int, default=60_000,
                         help="environment steps to train for (default: 60000)")
    p_train.add_argument("--out", type=Path, default=Path("runs/train"),
                         help="output directory for log.csv and checkpoint.txt")
    p_train.set_defaults(func=cmd_train, settings=train_config_from_args)

    p_sweep = sub.add_parser("sweep", help="run the full coefficient x tau grid")
    p_sweep.add_argument("--coefs", type=_float_list,
                         default=DEFAULT_COEFFICIENTS, metavar="C1,C2,...",
                         help="entropy coefficient grid (default: 0,0.1,0.3,0.5,0.8)")
    p_sweep.add_argument("--taus", type=_int_list, default=DEFAULT_TAUS, metavar="T1,T2,...",
                         help="window-length grid (default: 1,10,20,50,100,200)")
    p_sweep.add_argument("--seeds", type=int, default=3,
                         help="seeds per grid cell (default: 3)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="concurrent runs (default: 1)")
    p_sweep.add_argument("--out", type=Path, default=Path("runs/sweep"),
                         help="output directory for runs.csv, table.md and logs/")
    p_sweep.add_argument("--base-seed", type=_seed, default=1,
                         help="first seed of every cell (default: 1)")
    p_sweep.add_argument("--total-steps", type=int, default=60_000,
                         help="environment steps per run (default: 60000)")
    p_sweep.add_argument("--no-standard", action="store_true",
                         help="skip the standard-PPO rows of the grid")
    p_sweep.set_defaults(func=cmd_sweep, settings=sweep_spec_from_args)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("--checkpoint", type=Path, required=True,
                        help="parameter checkpoint written by `train`")
    p_eval.add_argument("--episodes", type=int, default=20,
                        help="evaluation episodes (default: 20)")
    p_eval.add_argument("--seed", type=_seed, default=1, help="evaluation seed (default: 1)")
    p_eval.set_defaults(func=cmd_eval,
                        settings=lambda ns: TrainConfig(eval_episodes=ns.episodes))
    return parser


def train_config_from_args(ns: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        mode=ns.algo,
        c2_base=ns.entropy_coef,
        tau=ns.tau,
        total_env_steps=ns.total_steps,
        seed=ns.seed,
    )


def sweep_spec_from_args(ns: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        coefficient_grid=ns.coefs,
        tau_grid=ns.taus,
        seeds_per_cell=ns.seeds,
        base_seed=ns.base_seed,
        include_standard=not ns.no_standard,
        parallelism=ns.jobs,
        output_dir=ns.out,
        total_env_steps=ns.total_steps,
    )


def cmd_train(ns: argparse.Namespace, config: TrainConfig) -> int:
    out: Path = ns.out
    out.mkdir(parents=True, exist_ok=True)

    result = train(config)
    write_update_log(result.records, out / "log.csv")
    save_checkpoint(out / "checkpoint.txt", config.net_config(), result.params)
    if result.diverged:
        print(f"training diverged after {len(result.records)} updates: {result.error}")
        print(f"partial log: {out / 'log.csv'}")
        return 1

    report = evaluate(result.params, config, np.random.default_rng(config.seed + SEED_OFFSET_EVAL))
    print(
        f"{config.mode} c2={config.c2_base:g}"
        + (f" tau={config.tau}" if config.mode == "adaptive" else "")
        + f" seed={config.seed}: eval mean return {report.mean_return:.1f}"
        f" (std {report.std:.1f}, {config.eval_episodes} episodes)"
    )
    print(f"log: {out / 'log.csv'}")
    print(f"checkpoint: {out / 'checkpoint.txt'}")
    return 0


def cmd_sweep(ns: argparse.Namespace, spec: SweepSpec) -> int:
    try:
        results = run_sweep(spec)
    except FileExistsError as exc:  # the output directory already holds a sweep
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
        print(f"cannot load checkpoint: {exc}")
        return 1
    if net_config != config.net_config():
        print(f"checkpoint architecture {net_config} is not the CartPole actor-critic")
        return 1
    report = evaluate(params, config, np.random.default_rng(ns.seed))
    print(f"mean return {report.mean_return:.1f} over {ns.episodes} episodes (std {report.std:.1f})")
    print("per-episode:", " ".join(f"{r:.0f}" for r in report.per_episode_returns))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        settings = ns.settings(ns)
    except ValueError as exc:  # a TrainConfig or SweepSpec rule; errors while running propagate
        parser.error(f"{ns.command}: {exc}")
    return ns.func(ns, settings)


if __name__ == "__main__":
    raise SystemExit(main())
