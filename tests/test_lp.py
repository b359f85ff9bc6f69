"""The exact rational simplex."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mtk import lp
from mtk.lp import LPProblem, solve, solve_max_slack

from lp_oracle import brute_optimum

F = Fraction
ONE = F(1)


def test_basic_examples():
    p = LPProblem.make("max", [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)])
    r = solve(p)
    assert r.status == "optimal" and r.objective == 2

    p = LPProblem.make("max", [1, -1], [([1, -1], "<=", 0), ([1, 0], "<=", 2)])
    r = solve(p)
    assert r.status == "optimal" and r.objective == 0

    p = LPProblem.make("max", [1], [])
    assert solve(p).status == "unbounded"


def test_make_takes_inequalities_over_nonnegative_variables_only():
    with pytest.raises(ValueError, match="relation '=='"):
        LPProblem.make("max", [1], [([1], "==", 1)])
    with pytest.raises(TypeError):
        LPProblem.make("max", [1], [([1], "<=", 1)], nonneg=[False])
    # packing LPs only, max c.x with Ax <= b, b >= 0: x = 0 is feasible
    with pytest.raises(ValueError, match="relation '>='"):
        LPProblem.make("max", [1], [([1], ">=", 1)])
    with pytest.raises(ValueError, match="sense 'min'"):
        LPProblem.make("min", [1], [([1], "<=", 1)])
    with pytest.raises(ValueError, match=r"b\[1\] is -1 < 0"):
        LPProblem.make("max", [1], [([1], "<=", 1), ([-1], "<=", -1)])
    with pytest.raises(ValueError, match=r"b\[0\] is -1 < 0"):
        solve_max_slack([[ONE]], [F(-1)], [ONE])
    with pytest.raises(ValueError, match="row/objective dimension mismatch"):
        LPProblem.make("max", [1, 1], [([1], "<=", 1)])


@pytest.mark.parametrize(
    "amat, bvec, cvec, message",
    [
        ([[1]], [1], [1, 1], "row/objective dimension mismatch"),
        ([[1, 1]], [1], [1], "row/objective dimension mismatch"),
        ([[1], [1]], [1], [1], "rhs/row count mismatch"),
        ([[1]], [1, 1], [1], "rhs/row count mismatch"),
    ],
)
def test_max_slack_refuses_mismatched_dimensions(amat, bvec, cvec, message):
    # as LPProblem.make does, not with an IndexError from inside the simplex
    with pytest.raises(ValueError, match=message):
        solve_max_slack(amat, bvec, cvec)


@pytest.mark.parametrize(
    "amat, bvec, cvec, entry",
    [
        ([[0.1, 1]], [1], [1, 1], "A[0][0] is 0.1"),
        ([[True]], [1], [1], "A[0][0] is True"),
        ([[1]], [1.0], [1], "b[0] is 1.0"),
        ([[1, 0]], [1], [1, "1"], "c[1] is '1'"),
    ],
)
def test_max_slack_takes_ints_and_fractions_only(amat, bvec, cvec, entry):
    # a float is rarely the rational it was written as
    with pytest.raises(ValueError, match=rf"ints or Fractions: {re.escape(entry)}"):
        solve_max_slack(amat, bvec, cvec)


@pytest.mark.parametrize(
    "c, rows, entry",
    [
        ([0.1], [([1], "<=", 1)], "c[0] is 0.1"),
        ([1], [([1], "<=", 1), ([1], "<=", False)], "b[1] is False"),
        ([1, 1], [([1, F(1, 3)], "<=", 1), ([1, 0.5], "<=", 1)], "A[1][1] is 0.5"),
    ],
)
def test_make_takes_ints_and_fractions_only(c, rows, entry):
    with pytest.raises(ValueError, match=rf"ints or Fractions: {re.escape(entry)}"):
        LPProblem.make("max", c, rows)


def test_a_problem_built_directly_takes_ints_and_fractions_only():
    # the checks belong to LPProblem itself, not only to make
    with pytest.raises(ValueError, match=r"ints or Fractions: c\[0\] is 0.1"):
        solve(LPProblem((0.1,), (((1,), 1),)))


def test_a_problem_built_directly_refuses_a_negative_rhs():
    # a ValueError, not a CertificateError from the simplex's answer
    with pytest.raises(ValueError, match=r"only packing LPs are solved: b\[0\] is -1 < 0"):
        solve(LPProblem((1,), (((1,), -1),)))
    with pytest.raises(ValueError, match="row/objective dimension mismatch"):
        LPProblem((1, 1), (((1,), 1),))


def test_int_entries_come_back_as_fractions():
    value, x, y = solve_max_slack([[1, 2], [F(1, 2), 1]], [1, 3], [1, 1])
    assert all(type(v) is Fraction for v in [value, *x, *y])
    p = LPProblem.make("max", [1, 1], [([1, 2], "<=", 1)])
    assert all(type(v) is Fraction for v in (*p.c, *p.rows[0][0], p.rows[0][1]))


def test_random_instances_against_vertex_brute_force():
    rng = random.Random(6)
    verified = unbounded = 0
    for _ in range(250):
        n = rng.randint(1, 3)
        amat, bvec, cvec = _random_packing(rng, n, rng.randint(1, 4))
        rows = [(a, "<=", b) for a, b in zip(amat, bvec)]
        r = solve(LPProblem.make("max", cvec, rows))  # certification is internal
        if r.status != "optimal":
            unbounded += 1
            continue
        assert brute_optimum("max", cvec, rows, n) == r.objective
        verified += 1
    assert verified >= 100 and unbounded >= 10


def test_basic_solution_support():
    # optimal basic solutions have support at most the number of rows
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        rows = []
        for _ in range(m):
            coeffs = [F(rng.randint(0, 2)) for _ in range(n)]
            rows.append((coeffs, "<=", F(rng.randint(1, 3))))
        c = [F(rng.randint(0, 3)) for _ in range(n)]
        r = solve(LPProblem.make("max", c, rows))
        if r.status != "optimal":
            assert r.status == "unbounded"  # a cost direction hit no row
            continue
        support = sum(1 for v in r.primal if v != 0)
        assert support <= m


def test_certify_raises_under_optimize_flag():
    # assert statements vanish under -O; certificates must not
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from mtk.errors import CertificateError\n"
        "from mtk.lp import LPProblem, LPResult, certify, solve\n"
        "assert False, 'asserts are live'\n"
        "p = LPProblem.make('max', [1, 1], [([1, 0], '<=', 1), ([0, 1], '<=', 1)])\n"
        "r = solve(p)\n"
        "bad = LPResult(r.status, r.objective + 1, r.primal, r.dual)\n"
        "try:\n"
        "    certify(p, bad)\n"
        "except CertificateError as e:\n"
        "    print('raised:', e)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: strong duality failed"


def _dense_pivot(tableau, basis, r, col):
    # The dense pivot the sparse core replaced: it rebuilds every row
    # over every column.  Kept as the oracle for the test below.
    prow = tableau[r]
    piv = prow[col]
    if piv != 1:
        inv = ONE / piv
        tableau[r] = prow = [v * inv for v in prow]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[col]
        if f:
            tableau[i] = [a - f * b for a, b in zip(row, prow)]
    basis[r] = col


def _traced(monkeypatch, pivot, call):
    """Run call() with lp._pivot set to pivot.  Returns its outcome, every
    pivot (row, column, rhs before the pivot) and the basis and tableau
    after each _run_simplex."""
    pivots, runs = [], []
    run = lp._run_simplex

    def spy_pivot(tableau, basis, r, col):
        pivots.append((r, col, tableau[r][-1]))
        pivot(tableau, basis, r, col)

    def spy_run(tableau, basis, ncols):
        ok = run(tableau, basis, ncols)
        runs.append((ok, list(basis), [list(row) for row in tableau]))
        return ok

    monkeypatch.setattr(lp, "_pivot", spy_pivot)
    monkeypatch.setattr(lp, "_run_simplex", spy_run)
    try:
        out = call()
    except ValueError as e:  # solve_max_slack on an unbounded problem
        out = ("raised", str(e))
    monkeypatch.undo()
    return out, pivots, runs


def _random_packing(rng, n, m):
    """A packing LP max c.x, Ax <= b: A and c of any sign, b >= 0."""
    amat = [[F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)] for _ in range(m)]
    # rhs 0 is common, so degenerate pivots happen often
    bvec = [F(rng.choice([0, 0, 1, 2, 3]), rng.choice([1, 3])) for _ in range(m)]
    cvec = [F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n)]
    return amat, bvec, cvec


def test_sparse_pivot_follows_the_dense_path(monkeypatch):
    rng = random.Random(11)
    seen = {"optimal": 0, "unbounded": 0, "degenerate": 0, "solve": 0, "max slack": 0}
    for trial in range(400):
        n = rng.randint(1, 5)
        amat, bvec, cvec = _random_packing(rng, n, rng.randint(1, 5))
        rows = [(a, "<=", b) for a, b in zip(amat, bvec)]
        if trial % 2:
            call = lambda c=cvec, r=rows: solve(LPProblem.make("max", c, r))
        else:
            call = lambda a=amat, b=bvec, c=cvec: solve_max_slack(a, b, c)
        dense = _traced(monkeypatch, _dense_pivot, call)
        sparse = _traced(monkeypatch, lp._pivot, call)
        assert sparse == dense
        out, pivots, _ = sparse
        if trial % 2:
            seen["solve"] += 1
            value = out.objective if out.status == "optimal" else None
        else:
            seen["max slack"] += 1
            value = None if out[0] == "raised" else out[0]
        if value is None:
            seen["unbounded"] += 1
        else:
            assert value == brute_optimum("max", cvec, rows, n)
            seen["optimal"] += 1
        seen["degenerate"] += any(rhs == 0 for _, _, rhs in pivots)
    assert min(seen.values()) >= 10, seen
