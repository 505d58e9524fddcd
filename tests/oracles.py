"""Independent reference computations the tests check the package against.

Not a test module (pytest collects only test_*.py): test files import these.
finite_diff_gradient is the oracle for the analytic backprop path;
categorical_entropy and action_log_prob are the per-sample forms of the
entropy and log-probability that the loss computes batched.

The reference_* functions are the plain numpy forms of the minibatch step
(operators, ndarray methods, np.clip, np.outer, a divide by Adam's bias
correction on every step), op for op in the order the package computes them.
The package calls the ufuncs and BLAS entry points directly, and must give
the same bytes; they skip the input checks.

reference_evaluate is evaluate drawing one uniform per step from its
generator. The package draws an episode's uniforms in one call and rewinds
the generator to the draws the episode used; the returns and the generator's
state afterwards must be the same.
"""

from typing import Callable

import numpy as np

from axppo.cartpole import reset
from axppo.loss import CLIP_EPSILON, VALUE_COEF, LossBreakdown, log_softmax
from axppo.net import ForwardTrace, NetworkOutput, _layer_views, forward_single, unpack_params
from axppo.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState
from axppo.rollout import _sample_and_step
from axppo.train import EvalReport


def categorical_entropy(logits: np.ndarray) -> float | np.ndarray:
    """Entropy -sum p ln p of softmax(logits), over the last axis."""
    log_p = log_softmax(logits)
    p = np.exp(log_p)
    h = -np.sum(p * log_p, axis=-1)
    return float(h) if h.ndim == 0 else h


def action_log_prob(logits: np.ndarray, action: int) -> float:
    """log softmax(logits)[action] for a single sample."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= action < logits.shape[-1]:
        raise ValueError(f"action {action} out of range for {logits.shape[-1]} actions")
    return float(log_softmax(logits)[action])


def finite_diff_gradient(
    loss_fn: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2h) per coordinate.

    loss_fn must be pure and deterministic; this is the independent oracle the
    analytic backprop path is checked against.
    """
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    work = np.array(params, dtype=np.float64, copy=True)
    grad = np.empty_like(work)
    for i in range(work.shape[0]):
        orig = work[i]
        work[i] = orig + h
        f_plus = loss_fn(work)
        work[i] = orig - h
        f_minus = loss_fn(work)
        work[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise RuntimeError(f"non-finite loss evaluation at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def reference_forward(params, config, obs_batch):
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


def reference_loss_output_gradients(outputs, actions, old_log_probs, advantages, value_targets,
                                    c2_effective):
    logits, values = outputs.logits, outputs.values
    n = logits.shape[0]
    rows = np.arange(n)
    log_p = log_softmax(logits)
    p = np.exp(log_p)
    ratio = np.exp(log_p[rows, actions] - old_log_probs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON) * advantages
    value_err = values - value_targets
    entropy = -(p * log_p).sum(axis=-1)

    clip_term = float(np.minimum(unclipped, clipped).sum() / n)
    value_term = float(0.5 * ((value_err**2).sum() / n))
    entropy_term = float(entropy.sum() / n)
    total = -clip_term + VALUE_COEF * value_term - c2_effective * entropy_term

    d_logp = np.where(unclipped <= clipped, -unclipped, 0.0)
    one_hot = np.zeros_like(p)
    one_hot[rows, actions] = 1.0
    d_logits = d_logp[:, None] * (one_hot - p)
    d_logits += c2_effective * p * (log_p + entropy[:, None])
    d_logits /= n
    d_values = VALUE_COEF * value_err / n
    breakdown = LossBreakdown(
        clip_term=clip_term, value_term=value_term, entropy_term=entropy_term, total=total
    )
    return breakdown, d_logits, d_values


def reference_backprop(config, trace, d_logits, d_values):
    grads = np.empty(config.param_count)
    grad_layers = _layer_views(grads, config)
    trunk, (w_pi, _), (w_v, _) = trace.layers[:-2], trace.layers[-2], trace.layers[-1]
    (g_w_pi, g_b_pi), (g_w_v, g_b_v) = grad_layers[-2], grad_layers[-1]
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
        dz *= d_h
        g_w, g_b = grad_layers[i]
        np.matmul(layer_inputs[i].T, dz, out=g_w)
        dz.sum(axis=0, out=g_b)
        if i > 0:
            d_h = dz @ trunk[i][0].T
    return grads


def reference_adam_step(params, grads, state, lr):
    t = state.step_count + 1
    m = np.multiply(state.first_moment, ADAM_BETA1)
    scratch = np.multiply(grads, 1.0 - ADAM_BETA1)
    m += scratch
    v = np.multiply(state.second_moment, ADAM_BETA2)
    np.multiply(grads, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grads
    v += scratch
    new_params = np.divide(m, 1.0 - ADAM_BETA1**t)
    new_params *= lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    new_params /= scratch
    np.subtract(params, new_params, out=new_params)
    return new_params, AdamState(first_moment=m, second_moment=v, step_count=t)


def reference_evaluate(params, config, rng):
    unpacked = unpack_params(params, config.net_config())
    returns = []
    for _ in range(config.eval_episodes):
        state = reset(rng)
        total = 0.0
        while True:
            logits = forward_single(unpacked, state.as_obs(), with_value=False)
            state, reward, terminated, truncated = _sample_and_step(state, logits, rng.random())[0]
            total += reward
            if terminated or truncated:
                break
        returns.append(total)
    arr = np.asarray(returns)
    return EvalReport(
        mean_return=float(arr.mean()), per_episode_returns=tuple(returns), std=float(arr.std())
    )
