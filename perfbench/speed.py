"""Machine-speed sampling, so timings survive a host whose speed drifts.

On small shared hosts the same single-threaded work can run 1.7x slower for
seconds at a time (a busy neighbour on the same physical core), with CPU time
tracking wall time. A median over a 30 s run then flips between the fast and
the slow mode. The benchmark therefore times a fixed kernel every PERIOD_S
from a SIGALRM handler, and reports every duration as *normalized seconds*:
wall seconds scaled by how fast the kernel ran at that moment, relative to
its reference time. The kernels are the benchmark's own code, so a change to
the program moves only the numerator.

Two kernels, because interpreter-bound code and matmul-bound code slow down
by different factors: `step_kernel` is shaped like the per-step path
(evaluation), `train_kernel` like a slice of training (per-step path plus a
minibatch pass). Each workload names the one that matches it.

Worker processes forked while a sampler is active sample their own core and
append their samples to files in `spill_dir`, so work done in a process pool
is normalized by the speed of the cores it ran on.

numpy is imported lazily: set-up timing must pay for the program's own
numpy import.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

PERIOD_S = 0.04

_weights = None


@dataclass(frozen=True)
class _State:
    x: float
    x_dot: float
    theta: float
    theta_dot: float


def _step(s: _State, push: float) -> _State:
    """Euler step of a cart-pole in Python floats, like the program's environment."""
    cos, sin = math.cos(s.theta), math.sin(s.theta)
    temp = (push + 0.05 * s.theta_dot * s.theta_dot * sin) / 1.1
    theta_acc = (9.8 * sin - cos * temp) / (0.5 * (4.0 / 3.0 - 0.1 * cos * cos / 1.1))
    x_acc = temp - 0.05 * theta_acc * cos / 1.1
    return _State(s.x + 0.02 * s.x_dot, s.x_dot + 0.02 * x_acc, s.theta + 0.02 * s.theta_dot,
                  s.theta_dot + 0.02 * theta_acc)


def _get_weights():
    global _weights
    import numpy as np

    if _weights is None:
        rng = np.random.default_rng(12345)
        _weights = [rng.uniform(-0.3, 0.3, shape) for shape in
                    ((4, 64), (64,), (64, 64), (64,), (64, 2), (2,), (64,), (64, 4))]
    return np, _weights


def _steps(count: int) -> float:
    """Single-observation steps: 4-64-64 tanh trunk, log-softmax, categorical draw, physics."""
    np, (w1, b1, w2, b2, w3, b3, w4, _) = _get_weights()
    state = _State(0.01, -0.02, 0.03, -0.01)
    acc = 0.0
    for _ in range(count):
        obs = np.array([state.x, state.x_dot, state.theta, state.theta_dot])
        h = np.tanh(np.tanh(obs @ w1 + b1) @ w2 + b2)
        logits = h @ w3 + b3
        shifted = logits - np.max(logits)
        log_p = shifted - np.log(np.sum(np.exp(shifted)))
        action = min(int(np.searchsorted(np.cumsum(np.exp(log_p)), 0.5, side="right")), 1)
        acc += float(h @ w4)
        state = _step(state, 10.0 if action else -10.0)
    return acc


def step_kernel() -> float:
    """About 0.6 ms of per-step work; returns a value so nothing is skipped."""
    return _steps(30)


def train_kernel() -> float:
    """About 0.6 ms: 24 steps, then a forward and backward pass over a 64-sample
    minibatch and an Adam-like elementwise update."""
    acc = _steps(24)
    np, (w1, b1, w2, b2, w3, b3, _, batch) = _get_weights()
    a1 = np.tanh(batch @ w1 + b1)
    a2 = np.tanh(a1 @ w2 + b2)
    d_h2 = ((a2 @ w3 + b3) / 64.0) @ w3.T * (1.0 - a2 * a2)
    d_h1 = d_h2 @ w2.T * (1.0 - a1 * a1)
    grads = np.concatenate([(batch.T @ d_h1).ravel(), (a1.T @ d_h2).ravel()])
    moment = 0.9 * grads + 0.1 * grads * grads
    return acc + float(np.sqrt(moment * moment + 1e-8).sum()) * 1e-12


# Kernel CPU times on the machine the baselines were recorded on (2-core Xeon
# at 2.1 GHz) in its fast mode. They only set the scale: a normalized time is
# the time the work would take with the kernel running this fast.
KERNELS = {
    "step": (step_kernel, 0.6e-3),
    "train": (train_kernel, 0.6e-3),
}


def kernel_seconds(kind: str, repeats: int = 5) -> float:
    """Median kernel CPU time over a few back-to-back repeats (used outside the sampler)."""
    kernel, _ = KERNELS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def normalize(seconds: float, kind: str) -> float:
    """Normalize a duration measured just before this call, by a few kernel repeats."""
    return seconds * KERNELS[kind][1] / kernel_seconds(kind)


class SpeedSampler:
    """Times a kernel every PERIOD_S of wall time while active.

    The handler runs in the main thread between bytecodes, so it samples the
    core the measured work runs on. A sample is (wall time, kernel CPU time);
    CPU time leaves out any wait for a core while workers keep both busy. The
    handler's wall time is kept in `spent` so that callers can subtract it
    from work done in this thread.
    """

    def __init__(self, kind: str, spill_dir: Path):
        self.kernel, self.reference = KERNELS[kind]
        self.spill_dir = Path(spill_dir)
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self.active = False
        self._busy = False
        self._previous = None
        self._spill = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0, cpu0 = time.perf_counter(), time.thread_time()
        self.kernel()
        sample = (t0, time.thread_time() - cpu0)
        self.spent += time.perf_counter() - t0
        if self._spill is None:
            self.samples.append(sample)
        else:
            self._spill.write(f"{sample[0]!r} {sample[1]!r}\n")
        self._busy = False

    def _after_fork(self):
        if not self.active:
            return
        self.samples = []
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._spill = open(self.spill_dir / f"worker-{os.getpid()}.txt", "a", buffering=1)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)  # timers are not inherited

    def __enter__(self):
        self.kernel()  # first call builds the weights outside any timed region
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _worker_samples(self, t0: float, t1: float) -> list[float]:
        out = []
        for path in self.spill_dir.glob("worker-*.txt"):
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2 and t0 <= float(fields[0]) <= t1:
                    out.append(float(fields[1]))
        return out

    def timed(self, fn, in_this_thread: bool = True):
        """Run fn(); return (result, wall seconds, normalized seconds).

        Work done in this thread is normalized by this thread's samples and the
        sampler's own time is left out of its wall time. Work done by worker
        processes is normalized by their samples (this thread's if there are
        none) and keeps its wall time: it does not wait for this thread.
        """
        first, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        wall = t1 - t0
        window = [cpu for _, cpu in self.samples[first:]]
        if in_this_thread:
            wall -= self.spent - spent0
        else:
            window = self._worker_samples(t0, t1) or window
        if not window:
            window = [cpu for _, cpu in self.samples[-1:]] or [self.reference]
        speed = statistics.fmean(self.reference / cpu for cpu in window)
        return result, wall, wall * speed
