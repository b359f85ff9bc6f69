"""The benchmark's tracer still sees mtk as its metrics expect.

`bench/run.py` looks every LAYER_METRICS name up in the tracer's
summary, so a renamed or deleted function makes a traced benchmark run
raise KeyError.  A traced helper called inside `chi_star` would add a
span under it.  Both are checked here without running a workload.
"""

import importlib.util
from pathlib import Path

import pytest

import mtk
import mtk.cli  # noqa: F401  -- loads every layer module, as bench/workloads.py does
from mtk.core import Complex
from mtk.errors import CapExceeded

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


@pytest.mark.parametrize(
    "h, value, cells",
    [
        ((1, 0, 1), 2, 2 * 2),  # two traces, {0} and {2}, times two weighted columns
        ((1, 1, 1), 2, 2 * 3),  # two maximal faces times three columns
    ],
)
def test_chi_star_solves_one_lp_on_the_weighted_columns_under_the_tracer(h, value, cells):
    tracer = _load("tracer").Tracer(mtk, CapExceeded)
    tracer.start_tracing()
    try:
        assert mtk.coloring.chi_star(Complex(3, [0b011, 0b110]), h) == value
    finally:
        tracer.stop()
    spans = [(tracer.names[i], parent) for i, parent in zip(tracer.name_id, tracer.parent)]
    assert [name for name, parent in spans if parent == -1] == ["coloring.chi_star"]
    assert [name for name, parent in spans if parent == 0] == ["lp.solve_max_slack"]
    assert tracer.summary()["lp.solve_max_slack"]["cells"] == cells
