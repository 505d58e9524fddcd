"""PPO on a built-in CartPole simulator, with an optional return-scaled entropy bonus.

Everything is hand-rolled in double-precision numpy: the shared-trunk
actor-critic MLP and its backprop, Adam, the CartPole physics, GAE, the
clipped-surrogate loss, and the adaptive entropy schedule that scales the
entropy coefficient by recent normalized returns.

The sweep names (RunResult, SweepSpec, render_results, run_sweep) load
axppo.sweep on first use, so a process that only trains or evaluates never
imports it. They are looked up afresh on every access, never stored here.
"""

import importlib

from .adaptive import effective_entropy_coef, g_recent
from .cartpole import CartPoleState, StepResult, reset, step
from .loss import (
    LossBreakdown,
    TrainingDiverged,
    loss_breakdown,
    loss_output_gradients,
    ppo_update,
)
from .net import (
    NetworkConfig,
    NetworkOutput,
    backprop,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .optim import AdamState, adam_step, init_adam_state
from .rollout import RolloutBuffer, collect_rollout, compute_gae
from .train import EvalReport, TrainConfig, TrainResult, UpdateRecord, evaluate, train

__version__ = "0.1.0"

_SWEEP_NAMES = frozenset({"RunResult", "SweepSpec", "render_results", "run_sweep"})


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        return getattr(importlib.import_module(".sweep", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
