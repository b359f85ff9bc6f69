"""A vertex-enumeration LP oracle that shares no code with the simplex.

`brute_optimum` solves small LPs over x >= 0 with "<=" and ">=" rows by
trying every choice of n tight constraints, so tests can check both
sides of an LP-duality pair, covering LPs included, against it.
"""

import itertools
from fractions import Fraction

F = Fraction


def brute_optimum(sense, c, rows, n):
    """The optimum of `sense` c.x over x >= 0 and rows (coeffs, rel, rhs),
    or None when no vertex is feasible.  Assumes the optimum is finite,
    so that a vertex attains it."""
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
