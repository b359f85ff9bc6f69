"""The exact rational simplex."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mtk import lp
from mtk.lp import LPProblem, solve, solve_max_slack

F = Fraction


def test_basic_examples():
    p = LPProblem.make("max", [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)])
    r = solve(p)
    assert r.status == "optimal" and r.objective == 2

    p = LPProblem.make("min", [0], [([1], ">=", 1), ([1], "<=", 0)])
    assert solve(p).status == "infeasible"

    p = LPProblem.make("max", [1], [])
    assert solve(p).status == "unbounded"


def test_make_takes_inequalities_over_nonnegative_variables_only():
    with pytest.raises(ValueError, match="unknown relation '=='"):
        LPProblem.make("min", [1], [([1], "==", 1)])
    with pytest.raises(TypeError):
        LPProblem.make("min", [1], [([1], ">=", 1)], nonneg=[False])


def _brute_optimum(sense, c, rows, n):
    cons = [(list(co), rhs) for co, _, rhs in rows]
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(1)
        cons.append((e, F(0)))
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        mat = [cons[i][0][:] + [cons[i][1]] for i in combo]
        ok = True
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col]), None)
            if piv is None:
                ok = False
                break
            mat[col], mat[piv] = mat[piv], mat[col]
            inv = 1 / mat[col][col]
            mat[col] = [v * inv for v in mat[col]]
            for r in range(n):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        if not ok:
            continue
        x = [mat[i][n] for i in range(n)]
        if any(v < 0 for v in x):
            continue
        feas = True
        for co, rel, rhs in rows:
            lhs = sum(a * b for a, b in zip(co, x))
            if rel == "<=" and lhs > rhs:
                feas = False
            if rel == ">=" and lhs < rhs:
                feas = False
        if not feas:
            continue
        val = sum(a * b for a, b in zip(c, x))
        if best is None or (sense == "min" and val < best) or (
            sense == "max" and val > best
        ):
            best = val
    return best


def test_random_instances_against_vertex_brute_force():
    rng = random.Random(6)
    verified = 0
    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [F(rng.randint(-2, 2)) for _ in range(n)]
            rows.append((coeffs, rng.choice(["<=", ">="]), F(rng.randint(-2, 3))))
        sense = rng.choice(["min", "max"])
        r = solve(LPProblem.make(sense, c, rows))  # certification is internal
        if r.status != "optimal":
            continue
        best = _brute_optimum(sense, c, rows, n)
        assert best == r.objective
        verified += 1
    assert verified >= 60


def test_zero_rhs_artificial_left_basic_after_phase_one(monkeypatch):
    # -x1 >= 0 starts from an artificial that no phase-I pivot removes:
    # it is still basic, at zero, when phase I ends.
    rows = [
        ([F(-1), F(0)], ">=", F(0)),
        ([F(0), F(1)], ">=", F(1)),
        ([F(1), F(1)], "<=", F(3)),
    ]
    bases = []  # the basis after each _run_simplex: phase I, then phase II
    run = lp._run_simplex

    def spy(tableau, basis, ncols, allowed):
        ok = run(tableau, basis, ncols, allowed)
        bases.append(list(basis))
        return ok

    monkeypatch.setattr(lp, "_run_simplex", spy)
    for sense, c in [("max", [1, 2]), ("min", [1, -1]), ("min", [0, 1])]:
        bases.clear()
        r = solve(LPProblem.make(sense, c, rows))
        assert r.status == "optimal"
        assert r.objective == _brute_optimum(sense, [F(v) for v in c], rows, 2)
        # columns 0-1 are variables, 2-4 slacks, 5 on artificials
        assert any(col >= 5 for col in bases[0])


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


def test_solve_max_slack_agrees_with_general_path():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        amat = [[F(rng.randint(0, 2)) for _ in range(n)] for _ in range(m)]
        bvec = [F(rng.randint(0, 3)) for _ in range(m)]
        cvec = [F(rng.randint(0, 3)) for _ in range(n)]
        try:
            value, x, y = solve_max_slack(amat, bvec, cvec)
        except ValueError:
            # unbounded: some objective direction is unconstrained
            r = solve(
                LPProblem.make(
                    "max", cvec, [(row, "<=", b) for row, b in zip(amat, bvec)]
                )
            )
            assert r.status == "unbounded"
            continue
        r = solve(
            LPProblem.make(
                "max", cvec, [(row, "<=", b) for row, b in zip(amat, bvec)]
            )
        )
        assert r.status == "optimal" and r.objective == value
        assert x == list(r.primal) and y == list(r.dual)


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
