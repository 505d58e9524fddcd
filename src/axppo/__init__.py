"""PPO on a built-in CartPole simulator, with an optional return-scaled entropy bonus.

Everything is hand-rolled in double-precision numpy: the shared-trunk
actor-critic MLP and its backprop, Adam, the CartPole physics, GAE, the
clipped-surrogate loss, and the adaptive entropy schedule that scales the
entropy coefficient by recent normalized returns.
"""

from .adaptive import ReturnWindow, effective_entropy_coef, g_recent, push_batch_return
from .cartpole import CartPoleState, StepResult, reset, step
from .loss import (
    LossBreakdown,
    LossCoefficients,
    TrainingDiverged,
    action_log_prob,
    categorical_entropy,
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
from .optim import AdamState, adam_step, finite_diff_gradient, init_adam_state
from .rollout import (
    EnvCursor,
    EpisodeStats,
    RolloutBuffer,
    batch_mean_return,
    collect_rollout,
    compute_gae,
)
from .sweep import RunResult, SweepSpec, render_results, run_sweep
from .train import EvalReport, TrainConfig, TrainResult, UpdateRecord, evaluate, train

__version__ = "0.1.0"
