"""Exact rational linear programming.

One dense simplex core over fractions, with Bland's anti-cycling rule,
serves both entry points: `solve` for general problems and
`solve_max_slack` for the packing form max c.x, Ax <= b, x >= 0.  Every
problem has "<=" and ">=" rows over non-negative variables.  The core
puts it in standard form (one slack per row, rows with a negative
right-hand side negated), runs phase I only when some row has no +1
slack to start the basis from, and then runs phase II.

Primal and dual are both read off the final tableau.  Every row i owns
one column equal to e_i: its +1 slack, or else its artificial.  The
reduced-cost row is c - y.A over all columns, so y_i is minus the
reduced cost of that column, with the row's negation and the sense
undone.

Every optimal result is certified by `certify`: primal feasibility,
dual feasibility and strong duality are re-checked exactly, and a
failure raises CertificateError, also under `python -O`.

Dual sign convention. For sense "min": y_i >= 0 on ">=" rows,
y_i <= 0 on "<=" rows, and sum_i y_i a_ij <= c_j for every variable.
For sense "max" all of these flip. In both cases y.b equals the
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError

ZERO = Fraction(0)
ONE = Fraction(1)

Row = tuple[tuple[Fraction, ...], str, Fraction]

_RELS = ("<=", ">=")


@dataclass(frozen=True)
class LPProblem:
    sense: str  # "min" | "max"
    c: tuple[Fraction, ...]
    rows: tuple[Row, ...]

    @staticmethod
    def make(sense, c, rows) -> "LPProblem":
        c = tuple(Fraction(x) for x in c)
        norm_rows = []
        for coeffs, rel, rhs in rows:
            coeffs = tuple(Fraction(x) for x in coeffs)
            if len(coeffs) != len(c):
                raise ValueError("row/objective dimension mismatch")
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            norm_rows.append((coeffs, rel, Fraction(rhs)))
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        return LPProblem(sense, c, tuple(norm_rows))


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], r: int, col: int) -> None:
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


def _run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    ncols: int,
    allowed: int,
) -> bool:
    """Minimize the last tableau row (reduced costs) with Bland's rule.

    Columns with index >= allowed may not enter the basis.  Returns
    False if an unbounded ray is detected.
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = -1
        for j in range(allowed):
            if obj[j] < 0:
                col = j
                break
        if col < 0:
            return True
        r = -1
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best:
                    best = ratio
                    r = i
                elif ratio == best and basis[i] < basis[r]:
                    r = i
        if r < 0:
            return False
        _pivot(tableau, basis, r, col)


def _simplex(p: LPProblem) -> LPResult:
    """The simplex core behind `solve` and `solve_max_slack`."""
    minimize = p.sense == "min"
    # Standard form: column n + i is the slack of row i.
    n = len(p.c)
    std_cols = n + len(p.rows)
    # A row whose slack is +1 after negation starts the basis from it;
    # every other row gets an artificial column.
    flips = [1 if rhs >= 0 else -1 for _, _, rhs in p.rows]
    unit_col: list[int] = []  # the e_i column of each row
    ncols = std_cols
    for i, ((_, rel, _), flip) in enumerate(zip(p.rows, flips)):
        if (rel == "<=") == (flip > 0):
            unit_col.append(n + i)
        else:
            unit_col.append(ncols)
            ncols += 1

    tableau = []
    for i, ((coeffs, rel, rhs), flip, u) in enumerate(zip(p.rows, flips, unit_col)):
        row = list(coeffs) + [ZERO] * (ncols - n) + [rhs]
        row[n + i] = ONE if rel == "<=" else -ONE
        if flip < 0:
            row = [-v for v in row]
        row[u] = ONE
        tableau.append(row)
    basis = list(unit_col)
    m = len(basis)

    cost = [cj if minimize else -cj for cj in p.c] + [ZERO] * (ncols + 1 - n)

    if ncols > std_cols:
        # Phase I: minimize the sum of the artificials.
        phase1 = [ZERO] * (ncols + 1)
        for a in range(std_cols, ncols):
            phase1[a] = ONE
        for i in range(m):
            if basis[i] >= std_cols:
                phase1 = [x - y for x, y in zip(phase1, tableau[i])]
        tableau.append(phase1)
        _run_simplex(tableau, basis, ncols, ncols)
        if tableau[-1][ncols] < 0:
            return LPResult(status="infeasible")
        tableau.pop()
        # Drive leftover artificials (all at zero) out of the basis.
        # With one slack per row, [A | S] has full row rank, so each
        # such row still has a non-zero standard column.
        for i in range(m):
            if basis[i] >= std_cols:
                piv_col = next(j for j in range(std_cols) if tableau[i][j])
                _pivot(tableau, basis, i, piv_col)

    # Phase II.
    obj = cost
    for i in range(m):
        f = obj[basis[i]]
        if f:
            obj = [x - f * y for x, y in zip(obj, tableau[i])]
    tableau.append(obj)
    if not _run_simplex(tableau, basis, ncols, std_cols):
        return LPResult(status="unbounded")

    xstd = [ZERO] * std_cols
    for i in range(m):
        xstd[basis[i]] = tableau[i][ncols]
    primal = xstd[:n]
    red = tableau[-1]
    dual = []
    for u, flip in zip(unit_col, flips):
        d = red[u]
        dual.append(-d if (flip > 0) == minimize else d)
    result = LPResult(
        status="optimal",
        objective=sum((cj * xj for cj, xj in zip(p.c, primal) if xj), ZERO),
        primal=tuple(primal),
        dual=tuple(dual),
    )
    certify(p, result)
    return result


def solve(p: LPProblem) -> LPResult:
    """Exact two-phase simplex; Optimal results are certified."""
    return _simplex(p)


def solve_max_slack(
    amat: list[list[Fraction]],
    bvec: list[Fraction],
    cvec: list[Fraction],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """max c.x s.t. Ax <= b, x >= 0, on Fraction rows with b >= 0.

    Every row starts the basis from its slack, so the core skips phase
    I.  Returns (value, x, y) with y the certified dual (y >= 0,
    y.A >= c, y.b = value).  Raises ValueError on an unbounded problem.
    """
    rows = tuple((tuple(a), "<=", b) for a, b in zip(amat, bvec))
    res = _simplex(LPProblem("max", tuple(cvec), rows))
    if res.status != "optimal":
        raise ValueError(res.status)
    return res.objective, list(res.primal), list(res.dual)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificateError(what)


def certify(p: LPProblem, res: LPResult) -> None:
    """Exact post-hoc optimality check; raises CertificateError on failure."""
    _require(res.status == "optimal", f"not an optimal result: {res.status}")
    x = res.primal
    y = res.dual
    _require(
        x is not None and y is not None and len(x) == len(p.c) and len(y) == len(p.rows),
        "certificate dimension mismatch",
    )
    minimize = p.sense == "min"
    _require(all(xj >= 0 for xj in x), "primal negativity")
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    ya = [ZERO] * len(p.c)
    for (coeffs, rel, rhs), yi in zip(p.rows, y):
        lhs = sum((coeffs[j] * xj for j, xj in support), ZERO)
        if rel == "<=":
            _require(lhs <= rhs, "primal infeasible (<=)")
            _require((yi <= 0) if minimize else (yi >= 0), "dual sign (<=)")
        else:
            _require(lhs >= rhs, "primal infeasible (>=)")
            _require((yi >= 0) if minimize else (yi <= 0), "dual sign (>=)")
        if yi:
            ya = [s + yi * a for s, a in zip(ya, coeffs)]
    for cj, s in zip(p.c, ya):
        red = cj - s
        _require((red >= 0) if minimize else (red <= 0), "dual infeasible")
    dual_obj = sum((yi * row[2] for yi, row in zip(y, p.rows)), ZERO)
    _require(dual_obj == res.objective, "strong duality failed")
