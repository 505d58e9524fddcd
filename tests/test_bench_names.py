"""The benchmark still finds every function it measures.

perfbench/run.py reads per-layer metrics off spans of the package's public
functions (tracer.public_functions). A metric whose function is gone or no
longer public reads as absent rather than failing, so a change that routes
around a measured function would otherwise show only in a --trace 1 run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_measured_function_is_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracer = importlib.import_module("tracer")

    measured = {
        arg for _, _, (kind, arg) in run.PER_LAYER if kind in ("calls", "us", "busy", "self")
    }
    workloads = [
        w for w in vars(run).values() if isinstance(w, type) and hasattr(w, "required_calls")
    ]
    assert len(workloads) == len(run.WORKLOADS)
    for workload in workloads:
        measured.update(workload.required_calls)

    assert measured
    missing = sorted(measured - set(tracer.public_functions()))
    assert not missing, f"measured by perfbench but not public: {missing}"
