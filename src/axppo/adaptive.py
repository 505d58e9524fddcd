"""Recent-return window that drives the adaptive entropy coefficient.

The window keeps the last `capacity` per-update mean episode returns. Its
normalized mean (divided by the maximum possible episode return) scales the
configured entropy coefficient in adaptive mode, so exploration pressure grows
with recent performance and vanishes while the agent still earns nothing.
Before the window fills, the mean is taken over whatever entries exist; an
empty window yields 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .cartpole import MAX_RETURN

__all__ = ["ReturnWindow", "push_batch_return", "g_recent", "effective_entropy_coef"]

MODES = ("standard", "adaptive")


@dataclass(frozen=True)
class ReturnWindow:
    capacity: int
    entries: tuple[float, ...] = ()

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if len(self.entries) > self.capacity:
            raise ValueError("window holds more entries than its capacity")


def push_batch_return(window: ReturnWindow, mean_return: float) -> ReturnWindow:
    """Append one per-update mean return, evicting the oldest entry when full."""
    if not 0.0 <= mean_return <= MAX_RETURN:
        raise ValueError(f"mean_return must lie in [0, {MAX_RETURN}], got {mean_return}")
    entries = window.entries + (float(mean_return),)
    if len(entries) > window.capacity:
        entries = entries[-window.capacity :]
    return replace(window, entries=entries)


def g_recent(window: ReturnWindow) -> float:
    """Windowed mean return normalized to [0, 1]; 0.0 while the window is empty."""
    if not window.entries:
        return 0.0
    return sum(window.entries) / len(window.entries) / MAX_RETURN


def effective_entropy_coef(mode: str, window: ReturnWindow, c2_base: float) -> float:
    """Entropy coefficient applied this update: c2_base, scaled by g_recent in adaptive mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not (math.isfinite(c2_base) and c2_base >= 0.0):
        raise ValueError(f"c2_base must be finite and >= 0, got {c2_base}")
    if mode == "standard":
        return c2_base
    return g_recent(window) * c2_base
