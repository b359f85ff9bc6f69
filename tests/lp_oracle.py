"""LP oracles for the tests.

`brute_optimum` shares no code with the simplex: it solves small LPs
over x >= 0 with "<=" and ">=" rows by trying every choice of n tight
constraints, so tests can check both sides of an LP-duality pair,
covering LPs included, against it.

`full_chi_star` is the fractional chromatic number by the LP over every
element and every maximal face, with no restriction to the support of
the weights; `coloring.chi_star` must agree with it.
"""

import itertools
from fractions import Fraction

from mtk.errors import Infeasible
from mtk.extval import check_weights
from mtk.lp import solve_max_slack

F = Fraction


def full_chi_star(c, h):
    """max h.y subject to y[F] <= 1 over the maximal faces F, one column
    per element of the ground set.  Raises Infeasible when some element
    of positive weight lies in no face."""
    h = check_weights(h, c.n)
    covered = c.vertices_mask()
    for v in range(c.n):
        if h[v] > 0 and not (covered >> v) & 1:
            raise Infeasible(f"element {v} has positive weight but no face")
    faces = list(c.maximal_faces)
    amat = [[F(1) if (f >> v) & 1 else F(0) for v in range(c.n)] for f in faces]
    value, _, _ = solve_max_slack(amat, [F(1)] * len(faces), h)
    return value


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
