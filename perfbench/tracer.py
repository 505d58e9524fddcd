"""The benchmark's span recorder: wraps the package's public functions where they are looked up.

A span is (id, name, start, end, parent). Spans live in memory in one flat
float64 array and are written out when the benchmark ends. Worker processes
forked by the sweep inherit the wrappers; each writes its spans to
`spill_dir` whenever one of its top-level spans ends, and the parent reads
them back.

Wrapping happens at every place a function is looked up, not only where it is
defined: module globals across `axppo.*` (so `axppo.train.collect_rollout` and
`axppo.loss.forward` are caught), and the default values of functions, since
`collect_rollout` binds `step` and `reset` as keyword defaults when it is
defined. Modules are resolved with `importlib.import_module`, because the
`axppo.train` attribute is the function that `axppo/__init__.py` re-exports.

A function that a later version of the package deletes is simply not wrapped;
its metrics are then absent, never an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cartpole", "net", "optim", "loss", "rollout", "adaptive", "train", "sweep")

_FIELDS = 5  # id, name index, start, end, parent id (-1 for a top-level span)
_CHILD_ID_STRIDE = 10**9  # span ids in a forked worker start at pid * stride


def public_functions() -> dict[str, object]:
    """'layer.function' -> function, for every plain function in each layer's __all__."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"axppo.{layer}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.functions = public_functions()
        self.names = list(self.functions)
        self.buf = array("d")
        self.next_id = 0
        self.current = -1
        self.in_child = False
        self.active = False
        self._spills = 0
        self._undo: list = []
        os.register_at_fork(after_in_child=self._after_fork)

    # recording -----------------------------------------------------------------

    def _wrap(self, fn, index: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            span = tracer.next_id
            tracer.next_id = span + 1
            tracer.current = span
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = parent
                tracer.buf.extend((span, index, t0, t1, parent))
                if parent < 0 and tracer.in_child:
                    tracer._spill()

        return traced

    def _after_fork(self):
        if not self.active:
            return
        self.in_child = True
        self.buf = array("d")
        self.current = -1
        self.next_id = os.getpid() * _CHILD_ID_STRIDE
        self._spills = 0

    def _spill(self):
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"worker-{os.getpid()}-{self._spills}.bin", "wb") as f:
            self.buf.tofile(f)
        self._spills += 1
        self.buf = array("d")

    # installing ----------------------------------------------------------------

    def install(self):
        """Replace every lookup site of every public function with its wrapper."""
        originals = {id(fn): fn for fn in self.functions.values()}
        wrappers = {
            id(fn): self._wrap(fn, i) for i, fn in enumerate(self.functions.values())
        }

        def swap(value):
            if id(value) in originals and originals[id(value)] is value:
                return wrappers[id(value)]
            return None

        modules = [m for name, m in list(sys.modules.items())
                   if name == "axppo" or name.startswith("axppo.")]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                wrapper = swap(value)
                if wrapper is not None:
                    self._undo.append((namespace.__setitem__, key, value))
                    namespace[key] = wrapper
                if inspect.isfunction(value):
                    self._patch_defaults(value, swap)
        self.active = True

    def _patch_defaults(self, fn, swap):
        kwdefaults = fn.__kwdefaults__ or {}
        for key, value in list(kwdefaults.items()):
            wrapper = swap(value)
            if wrapper is not None:
                self._undo.append((kwdefaults.__setitem__, key, value))
                kwdefaults[key] = wrapper
        if fn.__defaults__:
            swapped = tuple(swap(v) or v for v in fn.__defaults__)
            if any(a is not b for a, b in zip(swapped, fn.__defaults__)):
                self._undo.append((setattr, "__defaults__", fn.__defaults__, fn))
                fn.__defaults__ = swapped

    def uninstall(self):
        for entry in reversed(self._undo):
            if entry[0] is setattr:
                _, attr, value, fn = entry
                setattr(fn, attr, value)
            else:
                setter, key, value = entry
                setter(key, value)
        self._undo.clear()
        self.active = False

    # reading -------------------------------------------------------------------

    def spans(self) -> "Spans":
        """All spans recorded so far, this process's and every worker's."""
        parts = [np.frombuffer(self.buf, dtype=np.float64)]
        workers = sorted(self.spill_dir.glob("worker-*.bin")) if self.spill_dir.is_dir() else []
        parts.extend(np.fromfile(p, dtype=np.float64) for p in workers)
        flat = np.concatenate(parts).reshape(-1, _FIELDS)
        return Spans(flat, self.names, worker_files=len(workers))

    def write(self, directory: Path):
        """Write every span: spans.npy holds rows of (id, name index, start, end, parent)."""
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "spans.npy", self.spans().rows)
        (directory / "span_names.json").write_text(json.dumps(self.names) + "\n")


class Spans:
    """Span table with the per-name and per-layer aggregates the benchmark reports."""

    def __init__(self, rows: np.ndarray, names: list[str], worker_files: int):
        self.rows = rows
        self.names = names
        self.worker_files = worker_files
        self.ids = rows[:, 0].astype(np.int64)
        self.name_ix = rows[:, 1].astype(np.int64)
        self.start = rows[:, 2]
        self.end = rows[:, 3]
        self.parent = rows[:, 4].astype(np.int64)
        self.duration = self.end - self.start
        order = np.argsort(self.ids)
        self._sorted_ids = self.ids[order]
        self._order = order
        # time covered by each span's direct children, for self time
        child_time = np.zeros(len(rows))
        has_parent = self.parent >= 0
        parent_pos = self._positions(self.parent[has_parent])
        known = parent_pos >= 0
        np.add.at(child_time, parent_pos[known], self.duration[has_parent][known])
        self.self_time = self.duration - child_time

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Row index of each id, or -1 where the span is not in the table."""
        if len(self._sorted_ids) == 0:
            return np.full(len(ids), -1)
        pos = np.searchsorted(self._sorted_ids, ids)
        pos = np.minimum(pos, len(self._sorted_ids) - 1)
        found = self._sorted_ids[pos] == ids
        return np.where(found, self._order[pos], -1)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.rows), dtype=bool)
        return self.name_ix == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def busy(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def parent_names(self, name: str) -> list[str]:
        """Name of the parent of each span called `name` ('' for top level)."""
        pos = self._positions(self.parent[self.mask(name)])
        return [self.names[self.name_ix[p]] if p >= 0 else "" for p in pos]

    def layer_busy(self, layer: str) -> float:
        """Span total of a layer, counting only its outermost spans."""
        prefix = layer + "."
        in_layer = np.array([n.startswith(prefix) for n in self.names], dtype=bool)
        if not in_layer.any() or len(self.rows) == 0:
            return 0.0
        mine = in_layer[self.name_ix]
        pos = self._positions(self.parent)
        parent_in_layer = np.zeros(len(self.rows), dtype=bool)
        ok = pos >= 0
        parent_in_layer[ok] = in_layer[self.name_ix[pos[ok]]]
        return float(self.duration[mine & ~parent_in_layer].sum())

    def children_in_order(self, parent_name: str, child_name: str) -> list[np.ndarray]:
        """For each span called parent_name, the row indices of its child_name children by start."""
        out = []
        child_rows = np.flatnonzero(self.mask(child_name))
        for row in np.flatnonzero(self.mask(parent_name)):
            mine = child_rows[self.parent[child_rows] == self.ids[row]]
            out.append(mine[np.argsort(self.start[mine])])
        return out
