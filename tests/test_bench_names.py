"""The per-layer names the benchmark reports still name mtk functions.

`bench/run.py` looks every LAYER_METRICS name up in the tracer's
summary, so a renamed or deleted function makes a traced benchmark run
raise KeyError.  This checks the names without running a workload.
"""

import importlib.util
from pathlib import Path

import mtk
import mtk.cli  # noqa: F401  -- loads every layer module, as bench/workloads.py does

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_names_a_traced_function():
    metrics = _load("run").LAYER_METRICS
    traced = _load("tracer").traced_functions(mtk)
    assert metrics
    assert [name for name, _, _ in metrics if name not in traced] == []
