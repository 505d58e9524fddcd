"""Shared-trunk actor-critic MLP on a flat float64 parameter vector.

The trunk is a stack of affine+tanh layers; two affine heads sit on the last
hidden activation: action logits and a scalar state value. All parameters
live in one flat vector with a fixed canonical layout so that gradients,
optimizer state and checkpoints can be compared element for element:

    trunk layer 0 weights (fan_in x fan_out, row-major), trunk layer 0 biases,
    trunk layer 1 weights, trunk layer 1 biases, ...,
    policy head weights, policy head biases,
    value head weights, value head bias.

forward records the (weight, bias) views it used on its ForwardTrace, and
backprop reads the layers from there, so a minibatch unpacks the parameter
vector once. Neither checks its numbers for finiteness: the minibatch loss
(loss.loss_output_gradients) checks the network output and optim.adam_step
the gradient. load_checkpoint rejects non-finite values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    """Architecture of the actor-critic network (4 -> 64 -> 64 -> 2+1 for CartPole).

    layer_dims, the (fan_in, fan_out) of every affine layer (trunk layers, policy
    head, value head), and param_count are derived once, at construction.
    """

    obs_dim: int
    hidden_sizes: tuple[int, ...] = (64, 64)
    action_count: int = 2
    layer_dims: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    param_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {self.obs_dim}")
        if self.action_count < 2:
            raise ValueError(f"action_count must be >= 2, got {self.action_count}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        fan_ins = (self.obs_dim, *self.hidden_sizes)
        dims = (*zip(fan_ins, self.hidden_sizes), (fan_ins[-1], self.action_count),
                (fan_ins[-1], 1))
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "param_count", sum((i + 1) * o for i, o in dims))


@dataclass(frozen=True)
class NetworkOutput:
    """Per-sample action logits (N, action_count) and state values (N,)."""

    logits: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ForwardTrace:
    """Intermediates of one forward pass, enough to backpropagate without re-running it.

    layers holds the (weight, bias) views the pass used, so backprop takes its
    gradient against exactly those weights without unpacking them again.
    """

    inputs: np.ndarray
    activations: list[np.ndarray]
    layers: list[tuple[np.ndarray, np.ndarray]]


def init_params(config: NetworkConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform fan-in/fan-out initialization, zero biases.

    Every affine layer (trunk and both heads) draws its weights uniformly from
    [-b, b] with b = sqrt(6 / (fan_in + fan_out)). Deterministic given the
    generator state.
    """
    chunks = []
    for fan_in, fan_out in config.layer_dims:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _layer_views(flat: np.ndarray, config: NetworkConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    layers = []
    offset = 0
    for fan_in, fan_out in config.layer_dims:
        end = offset + fan_in * fan_out
        layers.append((flat[offset:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
        offset = end + fan_out
    return layers


def unpack_params(params: np.ndarray, config: NetworkConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of the flat vector as (weight, bias) pairs in canonical layer order."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.shape[0] != config.param_count:
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected ({config.param_count},)"
        )
    return _layer_views(params, config)


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

    activations = []
    a = obs_batch
    for w, b in trunk:
        a = a @ w
        a += b
        np.tanh(a, out=a)
        activations.append(a)

    logits = a @ w_pi + b_pi
    values = a @ w_v[:, 0] + b_v[0]
    trace = ForwardTrace(inputs=obs_batch, activations=activations, layers=layers)
    return NetworkOutput(logits=logits, values=values), trace


def forward_single(
    unpacked: list[tuple[np.ndarray, np.ndarray]], obs: np.ndarray, *, with_value: bool = True
) -> tuple[np.ndarray, float] | np.ndarray:
    """Fast path for one observation given pre-unpacked layers: (logits, value).

    With with_value=False it skips the value head and returns the logits
    alone, byte for byte the logits of the default call; evaluation samples
    actions and never reads a value.

    Bitwise equal to tanh(a @ w + b) per trunk layer and the same two heads.
    np.dot reaches the same BLAS gemv/ddot call as @ with less dispatch, and
    the bias and tanh act in place on the fresh vector each product returns.
    math.tanh/exp/log would be cheaper still, but they round differently from
    numpy's vector loops; one merged (hidden, actions + 1) head would make the
    value a gemv instead of a ddot, which rounds differently too.
    """
    trunk, (w_pi, b_pi) = unpacked[:-2], unpacked[-2]
    a = obs
    for w, b in trunk:
        a = np.dot(a, w)
        a += b
        np.tanh(a, out=a)
    logits = np.dot(a, w_pi)
    logits += b_pi
    if not with_value:
        return logits
    w_v, b_v = unpacked[-1]
    return logits, float(np.dot(a, w_v[:, 0]) + b_v[0])


def backprop(
    config: NetworkConfig,
    trace: ForwardTrace,
    d_logits: np.ndarray,
    d_values: np.ndarray,
) -> np.ndarray:
    """Gradient of sum_n (d_logits[n] . logits[n] + d_values[n] * values[n]) w.r.t. params.

    The weights are the ones the traced forward pass used (trace.layers). The
    caller supplies loss partials already scaled by its averaging convention
    (typically 1/batch), so this routine just sums over the batch. Returns a
    fresh flat gradient with the same layout as the parameter vector; each
    layer's gradient is written into it through a view.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    d_values = np.asarray(d_values, dtype=np.float64)
    n = trace.inputs.shape[0]
    if d_logits.shape != (n, config.action_count) or d_values.shape != (n,):
        raise ValueError(
            f"partials have shapes {d_logits.shape}/{d_values.shape}, expected "
            f"({n}, {config.action_count})/({n},)"
        )
    grads = np.empty(config.param_count)
    grad_layers = _layer_views(grads, config)
    trunk, (w_pi, _), (w_v, _) = trace.layers[:-2], trace.layers[-2], trace.layers[-1]
    (g_w_pi, g_b_pi), (g_w_v, g_b_v) = grad_layers[-2], grad_layers[-1]
    # inputs feeding each trunk layer, then the heads
    layer_inputs = [trace.inputs, *trace.activations]
    h_last = layer_inputs[-1]

    np.matmul(h_last.T, d_logits, out=g_w_pi)
    d_logits.sum(axis=0, out=g_b_pi)
    np.matmul(h_last.T, d_values, out=g_w_v[:, 0])
    g_b_v[0] = d_values.sum()

    d_h = d_logits @ w_pi.T + np.outer(d_values, w_v[:, 0])
    for i in range(len(trunk) - 1, -1, -1):
        a = trace.activations[i]
        dz = a * a
        np.subtract(1.0, dz, out=dz)
        dz *= d_h  # d_h * tanh'(z), tanh'(z) = 1 - tanh(z)^2
        g_w, g_b = grad_layers[i]
        np.matmul(layer_inputs[i].T, dz, out=g_w)
        dz.sum(axis=0, out=g_b)
        if i > 0:
            d_h = dz @ trunk[i][0].T
    return grads


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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(name: str, value) -> None:
    """Reject a count or seed that is not an integer (a float would fail far from here)."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def load_checkpoint(path: str | Path) -> tuple[NetworkConfig, np.ndarray]:
    """Read a save_checkpoint file.

    Raises ValueError, naming the file, on a header that is not a JSON object,
    a missing or non-integer architecture field (named too), an activation
    other than tanh, a value that is not a hex float, a wrong value count, or
    a NaN or infinite value.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty checkpoint file: {path}")
    try:
        meta = json.loads(lines[0])
    except ValueError as exc:
        raise ValueError(f"checkpoint {path} has a header that is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint {path} has a header that is not a JSON object")
    if meta.get("activation", "tanh") != "tanh":
        raise ValueError(f"unsupported activation {meta['activation']!r} in {path}")
    for name in ("obs_dim", "hidden_sizes", "action_count"):
        if name not in meta:
            raise ValueError(f"checkpoint {path} header lacks the field {name!r}")
    for name in ("obs_dim", "action_count"):
        if not _is_int(meta[name]):
            raise ValueError(
                f"checkpoint {path} header field {name!r} is not an integer: {meta[name]!r}"
            )
    hidden = meta["hidden_sizes"]
    if not (isinstance(hidden, list) and all(map(_is_int, hidden))):
        raise ValueError(
            f"checkpoint {path} header field 'hidden_sizes' is not a list of integers: {hidden!r}"
        )
    try:
        config = NetworkConfig(
            obs_dim=meta["obs_dim"],
            hidden_sizes=tuple(hidden),
            action_count=meta["action_count"],
        )
    except ValueError as exc:
        raise ValueError(f"checkpoint {path} header: {exc}") from None
    try:
        params = np.array([float.fromhex(line) for line in lines[1:] if line], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path} holds a value that is not a hex float: {exc}") from None
    if params.shape != (config.param_count,):
        raise ValueError(
            f"checkpoint {path} holds {params.shape[0]} values, expected {config.param_count}"
        )
    if not np.isfinite(params).all():
        raise ValueError(f"checkpoint {path} holds non-finite parameters")
    return config, params
