"""One full training run: rollouts, recent returns, coefficient, PPO updates, logging.

A run is fully deterministic given its seed. run_rng derives each of the run's
random streams from the seed: init (parameter initialization), env
(environment resets), actions (action sampling) and shuffle (minibatch
shuffling) feed train(); eval feeds the run's evaluation, which the sweep and
the CLI make after training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .adaptive import _check_schedule, effective_entropy_coef, g_recent
from .cartpole import MAX_EPISODE_STEPS, reset
from .loss import EPOCHS, MINIBATCH_SIZE, LossBreakdown, TrainingDiverged, ppo_update
from .net import (
    NetworkConfig,
    _require_int,
    _write_text_atomic,
    forward_single,
    init_params,
    unpack_params,
)
from .optim import init_adam_state
from .rollout import _sample_and_step, collect_rollout, compute_gae

__all__ = [
    "TrainConfig",
    "UpdateRecord",
    "TrainResult",
    "EvalReport",
    "train",
    "evaluate",
    "write_update_log",
    "LOG_HEADER",
    "run_rng",
]

_STREAMS = ("init", "env", "actions", "shuffle", "eval")

LOG_HEADER = (
    "update,env_steps,batch_mean_return,g_recent,c2_effective,"
    "loss_clip,loss_value,loss_entropy,loss_total"
)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one run. Defaults are the configuration every experiment uses.

    The PPO recipe is the same for every run: the class constants below, the
    network of net_config(), and the schedule and loss constants of axppo.loss
    (epochs and minibatch_size below are EPOCHS and MINIBATCH_SIZE).
    """

    mode: str = "standard"
    c2_base: float = 0.0
    tau: int = 50
    total_env_steps: int = 60_000
    seed: int = 1
    eval_episodes: int = 20

    horizon: ClassVar[int] = 256
    epochs: ClassVar[int] = EPOCHS
    minibatch_size: ClassVar[int] = MINIBATCH_SIZE  # divides horizon
    gamma: ClassVar[float] = 0.98
    gae_lambda: ClassVar[float] = 0.95

    def __post_init__(self):
        for name in ("tau", "total_env_steps", "seed", "eval_episodes"):
            _require_int(name, getattr(self, name))
        _check_schedule(self.mode, self.c2_base)
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.total_env_steps < self.horizon:
            raise ValueError(f"total_env_steps must be >= {self.horizon} (one horizon),"
                             f" got {self.total_env_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eval_episodes < 1:
            raise ValueError(f"eval_episodes must be >= 1, got {self.eval_episodes}")

    @property
    def num_updates(self) -> int:
        # floor: a trailing partial rollout is never collected
        return self.total_env_steps // self.horizon

    def net_config(self) -> NetworkConfig:
        return NetworkConfig(obs_dim=4, hidden_sizes=(64, 64), action_count=2)


@dataclass(frozen=True)
class UpdateRecord:
    update_index: int
    env_steps_so_far: int
    batch_mean_return: float
    g_recent: float
    c2_effective: float
    loss: LossBreakdown


@dataclass(frozen=True)
class TrainResult:
    params: np.ndarray
    records: tuple[UpdateRecord, ...]
    error: str | None = None  # why training stopped early; None for a finished run

    @property
    def diverged(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class EvalReport:
    mean_return: float
    per_episode_returns: tuple[float, ...]
    std: float


def run_rng(seed: int, stream: str) -> np.random.Generator:
    """A fresh generator for one named stream of the run with this seed.

    stream is one of init, env, actions, shuffle and eval. The same (seed,
    stream) always gives the same generator, in every cell of a sweep.
    """
    return np.random.default_rng(seed + _STREAMS.index(stream))


def train(config: TrainConfig) -> TrainResult:
    """Run the configured number of updates; on divergence, stop and mark the result.

    A diverged run returns the last finite parameters it held.
    """
    net = config.net_config()
    env_rng = run_rng(config.seed, "env")
    action_rng = run_rng(config.seed, "actions")
    shuffle_rng = run_rng(config.seed, "shuffle")

    params = init_params(net, run_rng(config.seed, "init"))
    adam_state = init_adam_state(net.param_count)
    returns: list[float] = []  # batch mean return of every update so far
    cursor = (reset(env_rng), 0.0)
    mean_ret = 0.0

    records: list[UpdateRecord] = []
    for t in range(config.num_updates):
        try:
            buffer, completed, cursor = collect_rollout(
                params, net, cursor, config.horizon,
                action_rng=action_rng, env_rng=env_rng,
            )
            # a rollout that finishes no episode carries the previous mean forward
            mean_ret = float(np.mean(completed)) if completed else mean_ret
            returns.append(mean_ret)
            # the window: the last tau returns (all of them until there are tau); tau >= 1
            g = g_recent(returns[-config.tau:])
            c2_eff = effective_entropy_coef(config.mode, g, config.c2_base)
            advantages, value_targets = compute_gae(buffer, config.gamma, config.gae_lambda)
            params, adam_state, breakdown = ppo_update(
                params, net, adam_state, buffer, advantages, value_targets, c2_eff,
                rng=shuffle_rng,
            )
        except TrainingDiverged as exc:
            return TrainResult(params=params, records=tuple(records), error=str(exc))
        records.append(
            UpdateRecord(
                update_index=t,
                env_steps_so_far=(t + 1) * config.horizon,
                batch_mean_return=mean_ret,
                g_recent=g,
                c2_effective=c2_eff,
                loss=breakdown,
            )
        )
    return TrainResult(params=params, records=tuple(records))


def evaluate(params: np.ndarray, config: TrainConfig, rng: np.random.Generator) -> EvalReport:
    """Run eval_episodes full episodes sampling stochastically from the policy.

    Raises ValueError when params holds a NaN or infinite value: NaN logits
    sample action 0 on every step, which would score as a plausible return.
    """
    net = config.net_config()
    unpacked = unpack_params(params, net)
    if not np.isfinite(params).all():
        raise ValueError("cannot evaluate parameters that hold NaN or infinite values")

    returns = []
    for _ in range(config.eval_episodes):
        state = reset(rng)
        # rng also feeds the next reset: draw the most uniforms an episode can use, then
        # rewind and redraw the k it used, which leaves rng where k scalar draws would
        saved = rng.bit_generator.state
        uniforms = rng.random(MAX_EPISODE_STEPS).tolist()
        total = 0.0
        k = 0
        while True:
            logits = forward_single(unpacked, state.as_obs(), with_value=False)
            state, reward, terminated, truncated = _sample_and_step(state, logits, uniforms[k])[0]
            k += 1
            total += reward
            if terminated or truncated:
                break
        rng.bit_generator.state = saved
        rng.random(k)
        returns.append(total)
    arr = np.asarray(returns)
    return EvalReport(
        mean_return=float(arr.mean()),
        per_episode_returns=tuple(returns),
        std=float(arr.std()),
    )


def write_update_log(records: tuple[UpdateRecord, ...], path: str | Path) -> None:
    """Per-run log: one comma-separated row per update under a fixed header.

    The loss columns are LossBreakdown's fields, in its order. Every float is
    written with repr, so it parses back to the exact value. The file is
    replaced atomically (see net._write_text_atomic).
    """
    lines = [LOG_HEADER]
    for r in records:
        floats = (r.batch_mean_return, r.g_recent, r.c2_effective, *vars(r.loss).values())
        lines.append(f"{r.update_index},{r.env_steps_so_far},"
                     + ",".join(repr(float(x)) for x in floats))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text_atomic(path, "\n".join(lines) + "\n")
