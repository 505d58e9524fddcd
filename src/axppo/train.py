"""One full training run: rollouts, return window, coefficient, PPO updates, logging.

A run is fully deterministic given its seed. The master seed derives four
independent generator streams via fixed offsets so components can be
reproduced in isolation:

    seed + 0  parameter initialization
    seed + 1  environment resets
    seed + 2  action sampling
    seed + 3  minibatch shuffling

(Evaluation, which is not part of train(), conventionally uses seed + 4; see
the sweep module.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .adaptive import MODES, ReturnWindow, effective_entropy_coef, g_recent, push_batch_return
from .cartpole import reset
from .loss import LossBreakdown, TrainingDiverged, ppo_update
from .net import NetworkConfig, _require_int, forward_single, init_params, unpack_params
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
    "SEED_OFFSET_INIT",
    "SEED_OFFSET_ENV",
    "SEED_OFFSET_ACTIONS",
    "SEED_OFFSET_SHUFFLE",
    "SEED_OFFSET_EVAL",
]

SEED_OFFSET_INIT = 0
SEED_OFFSET_ENV = 1
SEED_OFFSET_ACTIONS = 2
SEED_OFFSET_SHUFFLE = 3
SEED_OFFSET_EVAL = 4

LOG_HEADER = (
    "update,env_steps,batch_mean_return,g_recent,c2_effective,"
    "loss_clip,loss_value,loss_entropy,loss_total"
)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one run. Defaults are the configuration every experiment uses.

    The PPO recipe is the same for every run: the class constants below, the
    network of net_config(), and the loss constants of axppo.loss.
    """

    mode: str = "standard"
    c2_base: float = 0.0
    tau: int = 50
    total_env_steps: int = 60_000
    seed: int = 1
    eval_episodes: int = 20

    horizon: ClassVar[int] = 256
    epochs: ClassVar[int] = 10
    minibatch_size: ClassVar[int] = 64  # divides horizon
    lr: ClassVar[float] = 1e-3
    gamma: ClassVar[float] = 0.98
    gae_lambda: ClassVar[float] = 0.95

    def __post_init__(self):
        for name in ("tau", "total_env_steps", "seed", "eval_episodes"):
            _require_int(name, getattr(self, name))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.c2_base) and self.c2_base >= 0.0):
            raise ValueError(f"c2_base must be finite and >= 0, got {self.c2_base}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.total_env_steps < self.horizon:
            raise ValueError("total_env_steps must be at least one horizon")
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
    diverged: bool = False
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    mean_return: float
    per_episode_returns: tuple[float, ...]
    std: float


def train(config: TrainConfig) -> TrainResult:
    """Run the configured number of updates; on divergence, stop and mark the result."""
    net = config.net_config()
    init_rng = np.random.default_rng(config.seed + SEED_OFFSET_INIT)
    env_rng = np.random.default_rng(config.seed + SEED_OFFSET_ENV)
    action_rng = np.random.default_rng(config.seed + SEED_OFFSET_ACTIONS)
    shuffle_rng = np.random.default_rng(config.seed + SEED_OFFSET_SHUFFLE)

    params = init_params(net, init_rng)
    adam_state = init_adam_state(net.param_count)
    window = ReturnWindow(capacity=config.tau)
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
            window = push_batch_return(window, mean_ret)
            g = g_recent(window)
            c2_eff = effective_entropy_coef(config.mode, window, config.c2_base)
            advantages, value_targets = compute_gae(buffer, config.gamma, config.gae_lambda)
            params, adam_state, breakdown = ppo_update(
                params, net, adam_state, buffer, advantages, value_targets, c2_eff,
                epochs=config.epochs, minibatch_size=config.minibatch_size,
                lr=config.lr, rng=shuffle_rng,
            )
            if not np.isfinite(params).all():
                raise TrainingDiverged(f"non-finite parameters after update {t}")
        except TrainingDiverged as exc:
            return TrainResult(params=params, records=tuple(records), diverged=True, error=str(exc))
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
        total = 0.0
        while True:
            logits = forward_single(unpacked, state.as_obs(), with_value=False)
            state, reward, terminated, truncated = _sample_and_step(state, logits, rng)[0]
            total += reward
            if terminated or truncated:
                break
        returns.append(total)
    arr = np.asarray(returns)
    return EvalReport(
        mean_return=float(arr.mean()),
        per_episode_returns=tuple(returns),
        std=float(arr.std()),
    )


def write_update_log(records: tuple[UpdateRecord, ...], path: str | Path) -> None:
    """Per-run log: one comma-separated row per update under a fixed header.

    Every float is written with repr, so it parses back to the exact value.
    """
    lines = [LOG_HEADER]
    for r in records:
        floats = (r.batch_mean_return, r.g_recent, r.c2_effective, r.loss.clip_term,
                  r.loss.value_term, r.loss.entropy_term, r.loss.total)
        lines.append(f"{r.update_index},{r.env_steps_so_far},"
                     + ",".join(repr(float(x)) for x in floats))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
