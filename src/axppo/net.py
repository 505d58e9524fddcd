"""Shared-trunk actor-critic MLP on a flat float64 parameter vector.

The trunk is a stack of affine+tanh layers; two affine heads sit on the last
hidden activation: action logits and a scalar state value. All parameters
live in one flat vector with a fixed canonical layout so that gradients,
optimizer state and checkpoints can be compared element for element:

    trunk layer 0 weights (fan_in x fan_out, row-major), trunk layer 0 biases,
    trunk layer 1 weights, trunk layer 1 biases, ...,
    policy head weights, policy head biases,
    value head weights, value head bias.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "NetworkConfig",
    "NetworkOutput",
    "ForwardTrace",
    "init_params",
    "unpack_params",
    "forward",
    "forward_single",
    "backprop",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of the actor-critic network (4 -> 64 -> 64 -> 2+1 for CartPole)."""

    obs_dim: int
    hidden_sizes: tuple[int, ...] = (64, 64)
    action_count: int = 2

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {self.obs_dim}")
        if self.action_count < 2:
            raise ValueError(f"action_count must be >= 2, got {self.action_count}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every affine layer: trunk layers, policy head, value head."""
        dims = []
        prev = self.obs_dim
        for h in self.hidden_sizes:
            dims.append((prev, h))
            prev = h
        dims.append((prev, self.action_count))
        dims.append((prev, 1))
        return dims

    @property
    def param_count(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims())


@dataclass(frozen=True)
class NetworkOutput:
    """Per-sample action logits (N, action_count) and state values (N,)."""

    logits: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ForwardTrace:
    """Intermediates of one forward pass, enough to backpropagate without re-running it."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]


def init_params(config: NetworkConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform fan-in/fan-out initialization, zero biases.

    Every affine layer (trunk and both heads) draws its weights uniformly from
    [-b, b] with b = sqrt(6 / (fan_in + fan_out)). Deterministic given the
    generator state.
    """
    chunks = []
    for fan_in, fan_out in config.layer_dims():
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def unpack_params(params: np.ndarray, config: NetworkConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as (weight, bias) pairs in canonical layer order."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.shape[0] != config.param_count:
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected ({config.param_count},)"
        )
    layers = []
    offset = 0
    for fan_in, fan_out in config.layer_dims():
        w = params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def forward(
    params: np.ndarray, config: NetworkConfig, obs_batch: np.ndarray
) -> tuple[NetworkOutput, ForwardTrace]:
    """Evaluate the network on a batch of observations.

    obs_batch is (N, obs_dim). Trunk layers apply affine + tanh; both heads are
    affine with no output activation.
    """
    obs_batch = np.asarray(obs_batch, dtype=np.float64)
    if obs_batch.ndim != 2 or obs_batch.shape[1] != config.obs_dim:
        raise ValueError(
            f"obs_batch has shape {obs_batch.shape}, expected (N, {config.obs_dim})"
        )
    layers = unpack_params(params, config)
    trunk, (w_pi, b_pi), (w_v, b_v) = layers[:-2], layers[-2], layers[-1]

    pre_activations = []
    activations = []
    a = obs_batch
    for w, b in trunk:
        z = a @ w + b
        a = np.tanh(z)
        pre_activations.append(z)
        activations.append(a)

    logits = a @ w_pi + b_pi
    values = a @ w_v[:, 0] + b_v[0]
    trace = ForwardTrace(inputs=obs_batch, pre_activations=pre_activations, activations=activations)
    return NetworkOutput(logits=logits, values=values), trace


def forward_single(
    unpacked: list[tuple[np.ndarray, np.ndarray]], obs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Fast path for one observation given pre-unpacked layers: (logits, value)."""
    trunk, (w_pi, b_pi), (w_v, b_v) = unpacked[:-2], unpacked[-2], unpacked[-1]
    a = obs
    for w, b in trunk:
        a = np.tanh(a @ w + b)
    logits = a @ w_pi + b_pi
    value = float(a @ w_v[:, 0] + b_v[0])
    return logits, value


def backprop(
    params: np.ndarray,
    config: NetworkConfig,
    trace: ForwardTrace,
    d_logits: np.ndarray,
    d_values: np.ndarray,
) -> np.ndarray:
    """Gradient of sum_n (d_logits[n] . logits[n] + d_values[n] * values[n]) w.r.t. params.

    The caller supplies loss partials already scaled by its averaging convention
    (typically 1/batch), so this routine just sums over the batch. Returns a flat
    gradient with the same layout as the parameter vector.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    d_values = np.asarray(d_values, dtype=np.float64)
    n = trace.inputs.shape[0]
    if d_logits.shape != (n, config.action_count) or d_values.shape != (n,):
        raise ValueError(
            f"partials have shapes {d_logits.shape}/{d_values.shape}, expected "
            f"({n}, {config.action_count})/({n},)"
        )
    layers = unpack_params(params, config)
    trunk, (w_pi, _), (w_v, _) = layers[:-2], layers[-2], layers[-1]
    # inputs feeding each trunk layer, then the heads
    layer_inputs = [trace.inputs] + trace.activations
    h_last = layer_inputs[-1]

    g_w_pi = h_last.T @ d_logits
    g_b_pi = d_logits.sum(axis=0)
    g_w_v = (h_last.T @ d_values)[:, None]
    g_b_v = np.array([d_values.sum()])

    d_h = d_logits @ w_pi.T + np.outer(d_values, w_v[:, 0])
    trunk_grads: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(len(trunk) - 1, -1, -1):
        a = trace.activations[i]
        dz = d_h * (1.0 - a * a)  # tanh'(z) = 1 - tanh(z)^2
        trunk_grads.append((layer_inputs[i].T @ dz, dz.sum(axis=0)))
        if i > 0:
            d_h = dz @ trunk[i][0].T

    chunks = []
    for g_w, g_b in reversed(trunk_grads):
        chunks.append(g_w.ravel())
        chunks.append(g_b)
    chunks.extend([g_w_pi.ravel(), g_b_pi, g_w_v.ravel(), g_b_v])
    return np.concatenate(chunks)


def save_checkpoint(path: str | Path, config: NetworkConfig, params: np.ndarray) -> None:
    """Write a parameter checkpoint: one JSON header line, then one hex float per line.

    float.hex round-trips IEEE-754 doubles bitwise through text.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (config.param_count,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected ({config.param_count},)"
        )
    header = json.dumps(
        {
            "obs_dim": config.obs_dim,
            "hidden_sizes": list(config.hidden_sizes),
            "action_count": config.action_count,
            "activation": "tanh",
        }
    )
    lines = [header]
    lines.extend(float(v).hex() for v in params)
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> tuple[NetworkConfig, np.ndarray]:
    """Read a save_checkpoint file.

    Raises ValueError, naming the file, on a wrong value count, an activation
    other than tanh, or a NaN or infinite value.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty checkpoint file: {path}")
    meta = json.loads(lines[0])
    if meta.get("activation", "tanh") != "tanh":
        raise ValueError(f"unsupported activation {meta['activation']!r} in {path}")
    config = NetworkConfig(
        obs_dim=meta["obs_dim"],
        hidden_sizes=tuple(meta["hidden_sizes"]),
        action_count=meta["action_count"],
    )
    params = np.array([float.fromhex(line) for line in lines[1:] if line], dtype=np.float64)
    if params.shape != (config.param_count,):
        raise ValueError(
            f"checkpoint {path} holds {params.shape[0]} values, expected {config.param_count}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError(f"checkpoint {path} holds non-finite parameters")
    return config, params
