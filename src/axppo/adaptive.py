"""The adaptive entropy coefficient: c2_base scaled by the normalized mean of recent returns.

A run's window is its last `tau` per-update mean episode returns, which
train() takes as a slice of the returns it keeps. g_recent normalizes their
mean by the maximum possible episode return, and in adaptive mode the
configured entropy coefficient is scaled by it, so exploration pressure grows
with recent performance and vanishes while the agent still earns nothing.
Before the window fills, the mean is taken over whatever entries exist; an
empty window yields 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .cartpole import MAX_RETURN

__all__ = ["g_recent", "effective_entropy_coef"]

MODES = ("standard", "adaptive")


def g_recent(window: Sequence[float]) -> float:
    """Mean of the recent per-update returns normalized to [0, 1]; 0.0 for an empty window."""
    if not window:
        return 0.0
    g = sum(window) / len(window) / MAX_RETURN
    # min and max pass over a NaN that is not first; the sum does not
    if not (0.0 <= min(window) and max(window) <= MAX_RETURN and math.isfinite(g)):
        bad = next(r for r in window if not 0.0 <= r <= MAX_RETURN)
        raise ValueError(f"returns must lie in [0, {MAX_RETURN}], got {bad}")
    return g


def _check_schedule(mode: str, c2_base: float) -> None:
    """The settings of an entropy schedule: a mode of MODES and a finite c2_base >= 0."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not (math.isfinite(c2_base) and c2_base >= 0.0):
        raise ValueError(f"c2_base must be finite and >= 0, got {c2_base}")


def effective_entropy_coef(mode: str, g: float, c2_base: float) -> float:
    """Entropy coefficient applied this update: c2_base, scaled by g (g_recent) if adaptive."""
    _check_schedule(mode, c2_base)
    if mode == "standard":
        return c2_base
    return g * c2_base
