"""Exact rational linear programming.

Every LP in mtk is a packing LP: max c.x subject to Ax <= b, x >= 0,
with b >= 0.  The point x = 0 is feasible, so one simplex core over
fractions, with Bland's anti-cycling rule, starts from the slack basis
and needs no phase I.  It serves both entry points: `solve` on an
`LPProblem` and `solve_max_slack` on plain matrices.  A pivot scales
the pivot row once and updates every other row in place, over the
pivot row's non-zero columns only.

Primal and dual are both read off the final tableau.  Column n + i is
the slack of row i, and the reduced-cost row is y.A - c over all
columns, so y_i is the reduced cost of row i's slack.

An `LPProblem` takes every entry of A, b and c as an int or a Fraction
and refuses anything else, floats and bools included, with a ValueError
that names the entry, however it is built; both entry points build one,
so every value they return is a Fraction.

Every optimal result is certified by `certify`: primal feasibility,
dual feasibility and strong duality are re-checked exactly, and a
failure raises CertificateError, also under `python -O`.

Dual convention: y >= 0, y.A >= c and y.b equals the optimum.  The
certified dual therefore solves the covering LP min b.y, y.A >= c,
y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError

ZERO = Fraction(0)
ONE = Fraction(1)

Row = tuple[tuple[Fraction, ...], Fraction]  # (coefficients, rhs) of a "<=" row


@dataclass(frozen=True)
class LPProblem:
    """max c.x subject to coeffs.x <= rhs for every row, x >= 0, rhs >= 0.

    Construction takes every entry as an int or a Fraction and keeps it
    as a Fraction; it raises ValueError on any other entry, on a row
    whose length is not len(c) and on a negative rhs.
    """

    c: tuple[Fraction, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        c = _exact(self.c, "c")
        rows = tuple(self.rows)
        bvec = _exact([rhs for _, rhs in rows], "b")
        amat = [_exact(coeffs, f"A[{i}]") for i, (coeffs, _) in enumerate(rows)]
        if any(len(a) != len(c) for a in amat):
            raise ValueError("row/objective dimension mismatch")
        for i, rhs in enumerate(bvec):
            if rhs < 0:
                raise ValueError(f"only packing LPs are solved: b[{i}] is {rhs} < 0")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rows", tuple(zip(amat, bvec)))

    @staticmethod
    def make(sense, c, rows) -> "LPProblem":
        """Rows are (coeffs, "<=", rhs) triples; sense must be "max"."""
        if sense != "max":
            raise ValueError(f"only packing LPs are solved: sense {sense!r}")
        rows = list(rows)
        for _, rel, _ in rows:
            if rel != "<=":
                raise ValueError(f"only packing LPs are solved: relation {rel!r}")
        return LPProblem(c, tuple((coeffs, rhs) for coeffs, _, rhs in rows))


def _exact(entries, name: str) -> tuple[Fraction, ...]:
    """entries as a tuple of Fractions, after refusing with ValueError,
    by name and index, an entry that is not an int or a Fraction (a
    float is rarely the rational it was written as; bools are refused
    too)."""
    out = []
    for j, x in enumerate(entries):
        t = type(x)
        if t is not Fraction:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise ValueError(f"LP entries must be ints or Fractions: {name}[{j}] is {x!r}")
            x = Fraction(x)
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded"
    objective: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], r: int, col: int) -> None:
    """Pivot on (r, col), updating every row in place over the non-zero
    columns of the scaled pivot row."""
    prow = tableau[r]
    nz = [j for j, v in enumerate(prow) if v]
    piv = prow[col]
    if piv != 1:
        inv = ONE / piv
        for j in nz:
            prow[j] *= inv
    nzrow = [(j, prow[j]) for j in nz]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[col]
        if f:
            for j, b in nzrow:
                row[j] -= f * b
    basis[r] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> bool:
    """Minimize the last tableau row (reduced costs) with Bland's rule.

    Returns False if an unbounded ray is detected.
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = -1
        for j in range(ncols):
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
    n = len(p.c)
    m = len(p.rows)
    ncols = n + m  # column n + i is the slack of row i
    tableau = []
    for i, (coeffs, rhs) in enumerate(p.rows):
        row = list(coeffs) + [ZERO] * m + [rhs]
        row[n + i] = ONE
        tableau.append(row)
    basis = list(range(n, ncols))
    # The slacks cost nothing, so -c is already the reduced-cost row.
    tableau.append([-cj for cj in p.c] + [ZERO] * (m + 1))
    if not _run_simplex(tableau, basis, ncols):
        return LPResult(status="unbounded")

    xstd = [ZERO] * ncols
    for i in range(m):
        xstd[basis[i]] = tableau[i][ncols]
    primal = xstd[:n]
    result = LPResult(
        status="optimal",
        objective=sum((cj * xj for cj, xj in zip(p.c, primal) if xj), ZERO),
        primal=tuple(primal),
        dual=tuple(tableau[-1][n:ncols]),
    )
    certify(p, result)
    return result


def solve(p: LPProblem) -> LPResult:
    """Exact simplex from the slack basis; optimal results are certified."""
    return _simplex(p)


def solve_max_slack(
    amat: list[list[Fraction]],
    bvec: list[Fraction],
    cvec: list[Fraction],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """max c.x s.t. Ax <= b, x >= 0, on int or Fraction entries with b >= 0.

    Returns (value, x, y) in Fractions, with y the certified dual
    (y >= 0, y.A >= c, y.b = value).  Raises ValueError on an entry
    that is not an int or a Fraction, a row whose length is not len(c),
    a b whose length is not the number of rows, a negative b or an
    unbounded problem.
    """
    if len(bvec) != len(amat):
        raise ValueError("rhs/row count mismatch")
    res = _simplex(LPProblem(cvec, tuple(zip(amat, bvec))))
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
    _require(all(xj >= 0 for xj in x), "primal negativity")
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    ya = [ZERO] * len(p.c)
    for (coeffs, rhs), yi in zip(p.rows, y):
        lhs = sum((coeffs[j] * xj for j, xj in support), ZERO)
        _require(lhs <= rhs, "primal infeasible")
        _require(yi >= 0, "dual sign")
        if yi:
            for j, a in enumerate(coeffs):
                if a:
                    ya[j] += yi * a
    _require(all(s >= cj for cj, s in zip(p.c, ya)), "dual infeasible")
    dual_obj = sum((yi * rhs for yi, (_, rhs) in zip(y, p.rows)), ZERO)
    _require(dual_obj == res.objective, "strong duality failed")
