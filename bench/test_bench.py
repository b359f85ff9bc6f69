"""The benchmark's own tests: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mtk  # noqa: E402
from mtk import coloring, lp, polytopes  # noqa: E402
from mtk.core import Complex  # noqa: E402
from mtk.errors import CapExceeded  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ONE = Fraction(1)


def test_every_binding_is_counted_and_restored():
    tracer = Tracer(mtk, CapExceeded)
    places = tracer.bindings()
    # mtk binds these by direct import; each copy must be patched.
    assert (coloring, "solve_max_slack") in places["lp.solve_max_slack"]
    assert (polytopes, "solve_max_slack") in places["lp.solve_max_slack"]
    assert (polytopes, "solve") in places["lp.solve"]
    assert (polytopes, "chi_star") in places["coloring.chi_star"]
    assert (mtk, "solve") in places["lp.solve"]
    square = Complex(2, [0b01, 0b10])
    calls = {
        "lp.solve_max_slack": lambda: ([[ONE]], [ONE], [ONE]),
        "lp.solve": lambda: (lp.LPProblem.make("max", [1], [([1], "<=", 1)]),),
        "coloring.chi_star": lambda: (square, [ONE, ONE]),
    }
    tracer.start_tracing()
    try:
        for name, owners in places.items():
            for owner, attr in owners:
                assert getattr(owner, attr) is not tracer.functions[name], (owner, attr)
        for name, make_args in calls.items():
            for owner, attr in places[name]:
                getattr(owner, attr)(*make_args())
    finally:
        tracer.stop()
    summary = tracer.summary()
    for name in calls:
        # chi_star itself calls solve_max_slack once per call
        extra = len(places["coloring.chi_star"]) if name == "lp.solve_max_slack" else 0
        assert summary[name]["calls"] == len(places[name]) + extra, name
    for name, owners in places.items():
        for owner, attr in owners:
            assert getattr(owner, attr) is tracer.functions[name], (owner, attr)


def test_self_time_excludes_children_and_cells_are_counted():
    tracer = Tracer(mtk, CapExceeded)
    tracer.start_tracing()
    try:
        coloring.chi_star(Complex(3, [0b011, 0b110]), [ONE, ONE, ONE])
    finally:
        tracer.stop()
    s = tracer.summary()
    star, lp_row = s["coloring.chi_star"], s["lp.solve_max_slack"]
    assert star["calls"] == lp_row["calls"] == 1
    assert lp_row["cells"] == 2 * 3  # two maximal faces x three vertices
    assert abs(star["self_s"] + lp_row["total_s"] - star["total_s"]) < 1e-9


def test_cap_hit_counted_once_at_innermost_function():
    tracer = Tracer(mtk, CapExceeded)
    tracer.start_tracing()
    try:
        with pytest.raises(CapExceeded):
            coloring.chi_list_number(Complex(9, [(1 << 9) - 1]))
    finally:
        tracer.stop()
    s = tracer.summary()
    assert s["coloring.chi_list"]["cap_hits"] == 1
    assert s["coloring.chi_list_number"]["cap_hits"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_round_has_the_untraced_hash(name):
    w = workloads.WORKLOADS[name]
    w.prepare(workloads.DEFAULT_SEED)
    plain = workloads.play(w, workloads.DEFAULT_SEED, 0)
    tracer = Tracer(mtk, CapExceeded)
    tracer.start_tracing()
    try:
        traced = workloads.play(w, workloads.DEFAULT_SEED, 0)
    finally:
        tracer.stop()
    assert not plain.failed and not traced.failed
    assert workloads.digest(plain.lines) == workloads.digest(traced.lines)
    assert workloads.digest(plain.lines) == workloads.PINNED_SHA256[name]
    assert len(tracer.name_id) > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify-topo",
         "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_every_round_gets_a_reference_scale():
    w = workloads.WORKLOADS["verify-topo"]
    rounds = workloads.play_for(w, workloads.DEFAULT_SEED, 1e9, rounds=3)
    assert len(rounds) == 3
    assert all(0 < r.scale != 1.0 for r in rounds)
    assert [r.lines for r in rounds[:1]] == [workloads.play(w, workloads.DEFAULT_SEED, 0).lines]


def test_unknown_override_stops_the_run():
    with pytest.raises(SystemExit, match="max_n"):
        workloads.check_overrides([("whitney", {"max_n": 9}), ("abm", {"max_n": 4})])
    workloads.check_overrides([("whitney", {"max_n": 9})])


def test_refuses_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "verify-topo",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_mtk_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "verify-topo",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
