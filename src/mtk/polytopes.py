"""The polytopes P(C), Q(C), R(L): membership, gauge, vertices, ratios,
and the weighted matroidal / hypergraph matching and covering numbers.

P(C) is the convex hull of face indicators, Q(C) the rank-constraint
polytope, R(L) the intersection of the k matroids' rank polytopes.
All arithmetic is exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import Complex, Hypergraph, _undominated, iter_bits
from .coloring import chi_star, min_cover
from .errors import CapExceeded, CertificateError, DomainError, EmptyEdge, Infeasible
from .extval import INF, XRat, check_weights, max_ratio
from .lp import LPProblem, solve, solve_max_slack
from .matroid import Matroid, MatroidSystem

ZERO = Fraction(0)
ONE = Fraction(1)

# Vertex enumeration of Q and R is refused above this ground-set size.
VERTICES_MAX_N = 8


@dataclass(frozen=True)
class PolytopeRef:
    kind: str  # "P" | "Q" | "R"
    complex_: Complex | None = None
    system: MatroidSystem | None = None

    @staticmethod
    def P(c: Complex) -> "PolytopeRef":
        return PolytopeRef(kind="P", complex_=c)

    @staticmethod
    def Q(c: Complex) -> "PolytopeRef":
        return PolytopeRef(kind="Q", complex_=c)

    @staticmethod
    def R(system: MatroidSystem) -> "PolytopeRef":
        return PolytopeRef(kind="R", system=system)

    @property
    def n(self) -> int:
        return self.complex_.n if self.complex_ is not None else self.system.n


# -- membership -----------------------------------------------------------


def member(z: PolytopeRef, x: Sequence[Fraction]) -> bool:
    return psi(z, x) <= 1


# -- gauge ----------------------------------------------------------------


def psi(z: PolytopeRef, h: Sequence[Fraction]) -> Fraction | XRat:
    """Gauge: least t with h/t in Z (0 for h = 0, INF when unreachable).

    On P this is the weighted fractional chromatic number chi*(C, h),
    by LP duality.  On Q and R it is max over S of h(S)/r(S), the
    largest over the system's matroids on R.
    """
    h = check_weights(h, z.n)
    if z.kind == "P":
        try:
            return chi_star(z.complex_, h)
        except Infeasible:
            return INF
    full = (1 << z.n) - 1
    if z.kind == "Q":
        return max_ratio(z.complex_.rank_of, full, h)
    if z.kind == "R":
        return max(max_ratio(m.rank, full, h) for m in z.system)
    raise ValueError(f"unknown polytope kind {z.kind!r}")


# -- vertex enumeration ---------------------------------------------------


def _reduced_rows_matroid(m: Matroid) -> list[tuple[int, int]]:
    """(mask, rank) rows sufficient to cut Q(M): non-trivial flats plus
    singletons."""
    rows = {}
    for f in m.flats():
        if f and m.rank(f) < f.bit_count():
            rows[f] = m.rank(f)
    for v in range(m.n):
        b = 1 << v
        rows.setdefault(b, m.rank(b))
    return sorted(rows.items())


def _system_rows(system: MatroidSystem) -> list[tuple[int, int]]:
    """(mask, rank) rows cutting R(L): every matroid's reduced rows, with
    the least rank kept per mask."""
    merged: dict[int, int] = {}
    for m in system:
        for mask, r in _reduced_rows_matroid(m):
            if mask not in merged or r < merged[mask]:
                merged[mask] = r
    return sorted(merged.items())


def _reduced_rows_complex(c: Complex) -> list[tuple[int, int]]:
    """(mask, rank) rows sufficient to cut Q(C) for a general complex."""
    rows = {}
    for v in range(c.n):
        b = 1 << v
        rows[b] = c.rank_of(b)
    for s in range(1, 1 << c.n):
        if s.bit_count() < 2:
            continue
        r = c.rank_of(s)
        if r >= s.bit_count():
            continue
        reducible = False
        for v in iter_bits(s):
            if c.rank_of(s & ~(1 << v)) + c.rank_of(1 << v) <= r:
                reducible = True
                break
        if not reducible:
            rows[s] = r
    return sorted(rows.items())


def vertices(z: PolytopeRef) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope.

    P-kind: the face indicator vectors (exactly the vertices of a
    convex hull of 0/1 points).  Q/R-kind: double description over the
    reduced constraint system.
    """
    if z.kind == "P":
        return [_indicator(z.n, f) for f in z.complex_.faces()]
    if z.n > VERTICES_MAX_N:
        raise CapExceeded(f"vertex enumeration limited to n <= {VERTICES_MAX_N}")
    if z.kind == "Q":
        rows = _reduced_rows_complex(z.complex_)
    else:
        rows = _system_rows(z.system)
    return _dd_vertices(z.n, rows)


def _indicator(n: int, mask: int) -> tuple[Fraction, ...]:
    return tuple(ONE if (mask >> v) & 1 else ZERO for v in range(n))


def _dd_vertices(n: int, rows: list[tuple[int, int]]) -> list[tuple[Fraction, ...]]:
    """Double description for {x >= 0, x[mask] <= r}; returns vertices.

    It runs in integers: each point x is kept as the primitive integer
    vector (p_0, ..., p_{n-1}, d) with x = p / d, d > 0 and gcd 1, so
    equal points have equal tuples.  The right-hand sides are integer
    ranks, so row values are integer sums compared with r * d.  Each
    point also keeps its tight set, a bitmask over the rows processed so
    far, and adjacency is decided from those alone (Fukuda and Prodon,
    "Double description method revisited", 1996): two vertices of a
    polytope span an edge exactly when no third vertex is tight on every
    row they share, as the shared rows cut out the least face holding
    both.  Rows hold each mask at most once.  The singleton rows bound
    the box, so the region is a polytope.
    """
    ubs = [None] * n
    for mask, r in rows:
        if mask.bit_count() == 1:
            ubs[mask.bit_length() - 1] = r
    if any(u is None for u in ubs):
        raise ValueError("singleton bounds required for boundedness")
    # Constraint list: index 0..n-1 non-negativity (-x_v <= 0), then the
    # box rows x_v <= ubs[v], then the other rows; cons[i - n] holds the
    # support and right-hand side of row i >= n.
    cons = [((v,), ubs[v]) for v in range(n)] + [
        (tuple(iter_bits(mask)), r) for mask, r in rows if mask.bit_count() != 1
    ]

    # Box vertices with tight bitmasks over the first 2n constraints.
    uniq: dict[tuple[int, ...], int] = {}
    for bits in range(1 << n):
        p = tuple(ubs[v] if (bits >> v) & 1 else 0 for v in range(n)) + (1,)
        tight = 0
        for v in range(n):
            if p[v] == 0:
                tight |= 1 << v
            if p[v] == ubs[v]:
                tight |= 1 << (n + v)
        uniq[p] = tight
    verts = list(uniq.items())

    for ridx in range(2 * n, n + len(cons)):
        support, rhs = cons[ridx - n]
        # s has the sign of a.x - rhs: s = d (a.x - rhs)
        vals = [sum(p[v] for v in support) - rhs * p[n] for p, _ in verts]
        tights = [tight for _, tight in verts]
        out = [j for j, s in enumerate(vals) if s > 0]
        newpts: dict[tuple[int, ...], int] = {}
        for i, si in enumerate(vals):
            if si >= 0:
                continue  # on the new hyperplane or cut off
            pi, ti = verts[i]
            for j in out:
                pj, tj = verts[j]
                common = ti & tj
                # An edge has n - 1 independent tight rows.  The
                # third-vertex test below implies this count, but the
                # cheap check first keeps the DD several times faster.
                if common.bit_count() < n - 1:
                    continue
                # A third vertex tight on common makes the face that i
                # and j span larger than an edge.
                if any(tk & common == common for k, tk in enumerate(tights) if k != i and k != j):
                    continue
                # sj pi - si pj has a.x = rhs and weights sj, -si > 0;
                # inside the edge it is tight exactly where both ends are.
                sj = vals[j]
                p = [sj * a - si * b for a, b in zip(pi, pj)]
                g = math.gcd(*p)
                newpts.setdefault(tuple(a // g for a in p), common | 1 << ridx)
        verts = [
            (p, tight | (1 << ridx) if vals[i] == 0 else tight)
            for i, (p, tight) in enumerate(verts)
            if vals[i] <= 0
        ] + list(newpts.items())
    return [tuple(Fraction(a, p[n]) for a in p[:n]) for p, _ in verts]


# -- ratios ---------------------------------------------------------------


def ratio(b: PolytopeRef, a: PolytopeRef) -> Fraction | XRat:
    """B:A = least t with tA containing B; max of the A-gauge over B's
    vertices.

    P, Q and R are closed downwards, so each gauge is monotone on the
    non-negative orthant, INF included: a vertex below another vertex
    never raises the max, and only B's undominated vertices are tried.
    """
    if b.n != a.n:
        raise DomainError("dimension mismatch")
    best = ZERO
    for v in _undominated_vertices(b):
        best = max(best, psi(a, v))
        if best is INF:
            return INF
    return best


def _undominated_vertices(z: PolytopeRef) -> list[tuple[Fraction, ...]]:
    """The vertices of z below no other vertex coordinatewise.

    On P these are the indicators of the maximal faces.  On Q and R each
    vertex is taken as integer numerators over its common denominator
    and pruned by core._undominated in order of decreasing coordinate
    sum, which never puts a vertex after one it lies below.
    """
    if z.kind == "P":
        return [_indicator(z.n, f) for f in z.complex_.maximal_faces]
    forms = []
    for v in vertices(z):
        d = math.lcm(*(x.denominator for x in v))
        forms.append(([x.numerator * (d // x.denominator) for x in v], d, v))
    kept = _undominated(
        forms,
        lambda form: -Fraction(sum(form[0]), form[1]),
        lambda form, k: all(a * k[1] <= b * form[1] for a, b in zip(form[0], k[0])),
    )
    return [v for _, _, v in kept]


def ratio_rq_via_matchings(system: MatroidSystem):
    """max over U of nu*(L_U) : nu(L_U) (0/0 skipped, x/0 infinite).

    R(L_U) is R(L) cut to the points whose support lies in U, and R(L)
    is closed downwards, so nu*(L_U) = max 1.x over R(L_U) equals
    max 1_U.x over R(L): one row set, _system_rows(system), serves
    every U.
    """
    c = system.intersection_complex()
    amat, bvec = _system_lp(system)
    best = ZERO
    for u in range(1, 1 << system.n):
        indicator = [ONE if (u >> v) & 1 else ZERO for v in range(system.n)]
        nu_star, _, _ = solve_max_slack(amat, bvec, indicator)
        nu = Fraction(c.rank_of(u))
        if nu == 0:
            if nu_star > 0:
                return INF
            continue
        v = nu_star / nu
        if v > best:
            best = v
    return best


# -- matroidal matching and covering numbers -------------------------------


def _system_lp(system: MatroidSystem) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(A, b) with R(L) = {x >= 0 : Ax <= b}, on the reduced rows."""
    rows = _system_rows(system)
    amat = [
        [ONE if (mask >> v) & 1 else ZERO for v in range(system.n)] for mask, _ in rows
    ]
    return amat, [Fraction(r) for _, r in rows]


def nu_star_w(system: MatroidSystem, w: Sequence[Fraction]) -> Fraction:
    """LP max w.x over R(L), solved on the reduced constraint rows."""
    w = check_weights(w, system.n)
    amat, bvec = _system_lp(system)
    value, _, _ = solve_max_slack(amat, bvec, w)
    return value


def tau_star_w(system: MatroidSystem, w: Sequence[Fraction]) -> Fraction:
    """The covering LP, min sum of r_i(F) y_i(F) over weights y_i on the
    flats of each matroid that cover w, solved as its packing dual:
    max w.x with x(F) <= r_i(F) for every flat F of every matroid (the
    ground set is a flat, so this is bounded).  The certified dual is an
    optimal cover.  Every flat is a row, so this is a different LP from
    nu_star_w's with the same optimum."""
    w = check_weights(w, system.n)
    rows = []
    for m in system:
        for f in m.flats():
            rows.append(([(f >> v) & 1 for v in range(system.n)], "<=", m.rank(f)))
    return solve(LPProblem.make("max", w, rows)).objective


def nu_w(system: MatroidSystem, w: Sequence[Fraction]) -> Fraction:
    """Max weight of a common independent set: for w >= 0 a maximal one,
    so the best maximal face of the intersection complex."""
    w = check_weights(w, system.n)
    return max(
        sum((w[v] for v in iter_bits(f)), ZERO)
        for f in system.intersection_complex().maximal_faces
    )


def tau_w(system: MatroidSystem, w: Sequence[Fraction]) -> Fraction:
    """Minimum total size of an integral cover.

    Integral covers with demands at most one are exactly choices of one
    spanned set per matroid covering every positive-weight element, by
    the level-set decomposition of integral vectors; larger demands are
    out of scope here.
    """
    w = check_weights(w, system.n)
    demands = 0
    for v in range(system.n):
        if w[v] > 1:
            raise CapExceeded("integral covers supported for w <= 1 only")
        if w[v] > 0:
            demands |= 1 << v
    cost, _ = min_cover([(f, m.rank(f)) for m in system for f in m.flats()], demands)
    return Fraction(cost)


@dataclass(frozen=True)
class MatroidalNumbers:
    nu: Fraction
    nu_star: Fraction
    tau_star: Fraction
    tau: Fraction


def matroidal_numbers(system: MatroidSystem, w: Sequence[Fraction]) -> MatroidalNumbers:
    """All four weighted matroidal numbers; the LP pair must coincide."""
    w = check_weights(w, system.n)
    ns = nu_star_w(system, w)
    ts = tau_star_w(system, w)
    if ns != ts:
        raise CertificateError(f"LP duality violated: {ns} != {ts}")
    return MatroidalNumbers(
        nu=nu_w(system, w),
        nu_star=ns,
        tau_star=ts,
        tau=tau_w(system, w),
    )


# -- hypergraph numbers ----------------------------------------------------


@dataclass(frozen=True)
class HypergraphNumbers:
    nu: Fraction
    nu_star: Fraction
    tau_star: Fraction
    tau: Fraction
    w_star: Fraction


def hyper_nu_star_w(h: Hypergraph, w: Sequence[Fraction]) -> Fraction:
    w = check_weights(w, len(h.edges))
    if any(e == 0 for e in h.edges):
        raise EmptyEdge("fractional matching undefined with an empty edge")
    amat = []
    bvec = []
    for v in range(h.n):
        amat.append([ONE if (e >> v) & 1 else ZERO for e in h.edges])
        bvec.append(ONE)
    value, _, _ = solve_max_slack(amat, bvec, w)
    return value


def hyper_nu_w(h: Hypergraph, w: Sequence[Fraction]) -> Fraction:
    """Max weight of a matching (integral fractional matching)."""
    w = check_weights(w, len(h.edges))
    best = [ZERO]
    _heaviest_matching(h.edges, w, 0, 0, ZERO, best)
    return best[0]


def _heaviest_matching(edges, w: tuple[Fraction, ...], i: int, used: int, val: Fraction, best: list[Fraction]):
    """Branch and bound for hyper_nu_w; best[0] is the incumbent weight."""
    if val > best[0]:
        best[0] = val
    if i == len(edges):
        return
    rest = sum((w[j] for j in range(i, len(edges)) if w[j] > 0), ZERO)
    if val + rest <= best[0]:
        return
    _heaviest_matching(edges, w, i + 1, used, val, best)
    if edges[i] & used == 0:
        _heaviest_matching(edges, w, i + 1, used | edges[i], val + w[i], best)


def hyper_tau_w(h: Hypergraph, w: Sequence[Fraction]) -> Fraction:
    """Min size of an integral cover with multiplicities: t[e] >= ceil(w_e)."""
    w = check_weights(w, len(h.edges))
    demands = [math.ceil(x) for x in w]
    if any(d > 0 and e == 0 for d, e in zip(demands, h.edges)):
        raise Infeasible("empty edge with positive demand")
    # sum(demands) is attained by one vertex of each edge, so one more
    # is an incumbent every optimum beats.
    best = [sum(demands) + 1]
    _smallest_multicover(h.edges, demands, [0] * h.n, 0, best)
    return Fraction(best[0])


def _smallest_multicover(edges, demands: list[int], t: list[int], spent: int, best: list[int]):
    """Branch and bound for hyper_tau_w over the multiplicities t."""
    if spent >= best[0]:
        return
    i = next(
        (i for i, e in enumerate(edges) if sum(t[v] for v in iter_bits(e)) < demands[i]),
        -1,
    )
    if i < 0:
        best[0] = spent
        return
    for v in iter_bits(edges[i]):
        t[v] += 1
        _smallest_multicover(edges, demands, t, spent + 1, best)
        t[v] -= 1


def hyper_w_star(h: Hypergraph) -> Fraction:
    """Fractional width: min total f with sum_T f(T)|T & S| >= 1 per edge."""
    m = len(h.edges)
    amat = []
    bvec = []
    for i, s in enumerate(h.edges):
        amat.append([Fraction((t & s).bit_count()) for t in h.edges])
        bvec.append(ONE)
    # Dual form: max sum g with sum_S g_S |T & S| <= 1 for every T.
    value, _, _ = solve_max_slack(amat, bvec, [ONE] * m)
    return value


def hyper_numbers(h: Hypergraph, w: Sequence[Fraction] | None = None) -> HypergraphNumbers:
    if w is None:
        w = (ONE,) * len(h.edges)
    w = check_weights(w, len(h.edges))
    # The certified dual of the matching LP is a fractional cover of the
    # same weight, so one solve gives both nu* and tau*.
    ns = hyper_nu_star_w(h, w)
    return HypergraphNumbers(
        nu=hyper_nu_w(h, w),
        nu_star=ns,
        tau_star=ns,
        tau=hyper_tau_w(h, w),
        w_star=hyper_w_star(h),
    )
