"""The polytopes P(C), Q(C), R(L): membership, gauge, vertices, ratios,
and the weighted matroidal / hypergraph matching and covering numbers.

P(C) is the convex hull of face indicators.  Q(C) and R(L), the
intersection of the k matroids' rank polytopes, are both {x >= 0 :
x(S) <= rho(S)}, with rho the complex's rank on Q and min_i r_i on R;
one gauge sweep and one row builder serve both.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import Complex, Hypergraph, _undominated, check_sweep, iter_bits, mask_of
from .coloring import chi_star, min_cover
from .errors import CapExceeded, CertificateError, DomainError, EmptyEdge, Infeasible
from .extval import INF, XRat, check_weights, max_ratio
from .lp import LPProblem, solve, solve_max_slack
from .matroid import MatroidSystem

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
    by LP duality.  On Q and R it is max over S of h(S)/rho(S), in one
    sweep: on R, max_i max_S h(S)/r_i(S) = max_S h(S)/min_i r_i(S).
    """
    h = check_weights(h, z.n)
    if z.kind == "P":
        try:
            return chi_star(z.complex_, h)
        except Infeasible:
            return INF
    return max_ratio(_rho(z), (1 << z.n) - 1, h)


def _rho(z: PolytopeRef):
    """The rank function rho with Q or R = {x >= 0 : x(S) <= rho(S)}:
    the complex's rank on Q, the least of the matroids' ranks on R."""
    if z.kind == "Q":
        return z.complex_.rank_of
    if z.kind == "R":
        return lambda s: min(m.rank(s) for m in z.system)
    raise ValueError(f"unknown polytope kind {z.kind!r}")


# -- vertex enumeration ---------------------------------------------------


def _rank_rows(n: int, rho) -> list[tuple[int, int]]:
    """(mask, rho(mask)) rows, ascending, cutting {x >= 0 : x(S) <= rho(S)}.

    Every singleton row is kept, and another S only when rho(S) < |S|, no
    non-loop v outside S has rho(S + v) = rho(S) (a loop has rho(v) = 0;
    without this exception S and S + loop drop each other), and no v in S
    has rho(S - v) + rho(v) <= rho(S).  As rho is monotone with rho(empty)
    = 0 and rho(v) <= 1 on Q and R, each dropped row follows, by induction
    on (rho(S), loops in S, -non-loops in S), from smaller rows: the
    singletons, S + v, or S - v and v (Edmonds, 1970).  Raises
    CapExceeded above SWEEP_CAP subsets, before calling rho.
    """
    check_sweep(n)
    r = [rho(s) for s in range(1 << n)]
    nonloops = mask_of(v for v in range(n) if r[1 << v])
    rows = []
    for s in range(1, 1 << n):
        rs = r[s]
        if s & (s - 1) and (
            rs >= s.bit_count()
            or any(r[s | 1 << v] == rs for v in iter_bits(nonloops & ~s))
            or any(r[s & ~(1 << v)] + r[1 << v] <= rs for v in iter_bits(s))
        ):
            continue
        rows.append((s, rs))
    return rows


def vertices(z: PolytopeRef) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope.

    P-kind: the face indicator vectors (exactly the vertices of a
    convex hull of 0/1 points).  Q/R-kind: double description over the
    rows _rank_rows keeps of x(S) <= rho(S).
    """
    if z.kind == "P":
        return [_indicator(z.n, f) for f in z.complex_.faces()]
    if z.n > VERTICES_MAX_N:
        raise CapExceeded(f"vertex enumeration limited to n <= {VERTICES_MAX_N}")
    return _dd_vertices(z.n, _rank_rows(z.n, _rho(z)))


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
    """max over U of nu*(L_U) : nu(L_U), skipping the U with nu(L_U) = 0.

    R(L_U) is R(L) cut to the points whose support lies in U, and R(L)
    is closed downwards, so nu*(L_U) = max 1.x over R(L_U) equals
    max 1_U.x over R(L): one row set, the rank rows of rho = min_i r_i,
    serves every U.  A skipped U has nu*(L_U) = 0 as well: rank 0 in
    the intersection complex makes every v in U a loop of some M_i, so
    rho(v) = 0 and v's singleton row caps x_v at 0.
    """
    c = system.intersection_complex()
    amat, bvec = _system_lp(system)
    best = ZERO
    for u in range(1, 1 << system.n):
        nu = c.rank_of(u)
        if nu == 0:
            continue
        nu_star, _, _ = solve_max_slack(amat, bvec, _indicator(system.n, u))
        v = nu_star / nu
        if v > best:
            best = v
    return best


# -- matroidal matching and covering numbers -------------------------------


def _system_lp(system: MatroidSystem) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(A, b) with R(L) = {x >= 0 : Ax <= b}, on the rows of _rank_rows."""
    rows = _rank_rows(system.n, _rho(PolytopeRef.R(system)))
    return [_indicator(system.n, mask) for mask, _ in rows], [Fraction(r) for _, r in rows]


def nu_star_w(system: MatroidSystem, w: Sequence[Fraction]) -> Fraction:
    """LP max w.x over R(L), solved on the rows of _rank_rows."""
    w = check_weights(w, system.n)
    amat, bvec = _system_lp(system)
    return solve_max_slack(amat, bvec, w)[0]


def tau_star_w(system: MatroidSystem, w: Sequence[Fraction]) -> Fraction:
    """The covering LP, min sum of r_i(F) y_i(F) over weights y_i on the
    flats of each matroid that cover w, solved as its packing dual:
    max w.x with x(F) <= r_i(F) for every flat F of every matroid (the
    ground set is a flat, so this is bounded).  The certified dual is an
    optimal cover.  Every flat is a row, so this is a different LP from
    nu_star_w's with the same optimum."""
    w = check_weights(w, system.n)
    n = system.n
    rows = [([(f >> v) & 1 for v in range(n)], "<=", m.rank(f)) for m in system for f in m.flats()]
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
    """Minimum total size of an integral cover, the integer program whose
    relaxation tau_star_w solves: min sum of r_i(F) y_i(F) over integers
    y_i(F) >= 0 on the flats of each matroid, with the flats containing
    v of total y at least w_v, so at least ceil(w_v), for every v."""
    w = check_weights(w, system.n)
    options = [(f, m.rank(f)) for m in system for f in m.flats()]
    return Fraction(min_cover(options, [math.ceil(x) for x in w])[0])


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
    amat = [[ONE if (e >> v) & 1 else ZERO for e in h.edges] for v in range(h.n)]
    return solve_max_slack(amat, [ONE] * h.n, w)[0]


def hyper_nu_w(h: Hypergraph, w: Sequence[Fraction]) -> Fraction:
    """Max weight of a matching (integral fractional matching), by branch
    and bound over the edges with an explicit stack.  An edge that fits
    is taken before it is left out, so the first descent is the greedy
    matching; a node is cut when the edges left cannot beat the best."""
    w = check_weights(w, len(h.edges))
    edges = h.edges
    rest = [ZERO] * (len(edges) + 1)  # rest[i]: the weight of edges i, i + 1, ...
    for i in reversed(range(len(edges))):
        rest[i] = rest[i + 1] + w[i]
    best = ZERO
    stack = [(0, 0, ZERO)]  # (the next edge, the vertices used, the weight taken)
    while stack:
        i, used, val = stack.pop()
        best = max(best, val)
        if i == len(edges) or val + rest[i] <= best:
            continue
        stack.append((i + 1, used, val))
        if edges[i] & used == 0:
            stack.append((i + 1, used | edges[i], val + w[i]))
    return best


def hyper_tau_w(h: Hypergraph, w: Sequence[Fraction]) -> Fraction:
    """Min total of integral vertex multiplicities t with sum of t(v), v in
    e, at least ceil(w_e) for every edge e: a min_cover of the edges by
    vertex stars at cost 1."""
    w = check_weights(w, len(h.edges))
    demand = [math.ceil(x) for x in w]
    if any(d > 0 and e == 0 for d, e in zip(demand, h.edges)):
        raise Infeasible("empty edge with positive demand")
    stars = [(mask_of(i for i, e in enumerate(h.edges) if (e >> v) & 1), 1) for v in range(h.n)]
    return Fraction(min_cover(stars, demand)[0])


def hyper_w_star(h: Hypergraph) -> Fraction:
    """Fractional width: min total f with sum_T f(T)|T & S| >= 1 per edge."""
    if any(e == 0 for e in h.edges):
        raise EmptyEdge("fractional width undefined with an empty edge")
    amat = [[Fraction((t & s).bit_count()) for t in h.edges] for s in h.edges]
    # Dual form: max sum g with sum_S g_S |T & S| <= 1 for every T.
    return solve_max_slack(amat, [ONE] * len(h.edges), [ONE] * len(h.edges))[0]


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
