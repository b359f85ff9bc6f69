"""The polytopes P(C), Q(C), R(L): membership, gauge, vertices, ratios,
and the weighted matroidal / hypergraph matching and covering numbers.

P(C) is the convex hull of face indicators, Q(C) the rank-constraint
polytope, R(L) the intersection of the k matroids' rank polytopes.
All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Complex, Hypergraph, bit_count, iter_bits
from .coloring import chi_star
from .errors import CapExceeded, CertificateError, DomainError, EmptyEdge, Infeasible
from .extval import INF, XRat, max_ratio
from .lp import LPProblem, solve, solve_max_slack
from .matroid import Matroid, MatroidSystem
from .topology import snf_diagonal

ZERO = Fraction(0)
ONE = Fraction(1)

# Vertex enumeration of Q and R is refused above this ground-set size.
VERTICES_MAX_N = 8


class RatVec:
    """A ground-set-indexed vector of exact rationals."""

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(
            self, "values", tuple(Fraction(v) for v in values)
        )

    def __setattr__(self, *a):
        raise AttributeError("RatVec is immutable")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, RatVec) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"RatVec([{', '.join(str(v) for v in self.values)}])"

    def sum_over(self, mask: int) -> Fraction:
        return sum((self.values[v] for v in iter_bits(mask)), ZERO)

    def dot(self, other) -> Fraction:
        return sum((a * b for a, b in zip(self.values, other)), ZERO)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    @staticmethod
    def ones(n: int) -> "RatVec":
        return RatVec([ONE] * n)

    def format(self) -> list[str]:
        return [str(v) for v in self.values]


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


def member(z: PolytopeRef, x: RatVec) -> bool:
    return psi(z, x) <= 1


# -- gauge ----------------------------------------------------------------


def psi(z: PolytopeRef, h: RatVec) -> XRat:
    """Gauge: least t with h/t in Z (0 for h = 0, INF when unreachable).

    On P this is the weighted fractional chromatic number chi*(C, h),
    by LP duality.  On Q and R it is max over S of h(S)/r(S), the
    largest over the system's matroids on R.
    """
    if not h.is_nonnegative():
        raise DomainError("gauge arguments live in the non-negative orthant")
    if len(h) != z.n:
        raise DomainError("dimension mismatch")
    if all(v == 0 for v in h):
        return XRat.of(0)
    if z.kind == "P":
        try:
            return XRat.of(chi_star(z.complex_, list(h)))
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
        if f and m.rank(f) < bit_count(f):
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
        if bit_count(s) < 2:
            continue
        r = c.rank_of(s)
        if r >= bit_count(s):
            continue
        reducible = False
        for v in iter_bits(s):
            if c.rank_of(s & ~(1 << v)) + c.rank_of(1 << v) <= r:
                reducible = True
                break
        if not reducible:
            rows[s] = r
    return sorted(rows.items())


def vertices(z: PolytopeRef) -> list[RatVec]:
    """All vertices of the polytope.

    P-kind: the face indicator vectors (exactly the vertices of a
    convex hull of 0/1 points).  Q/R-kind: double description over the
    reduced constraint system.
    """
    if z.kind == "P":
        return [
            RatVec([ONE if (f >> v) & 1 else ZERO for v in range(z.n)])
            for f in z.complex_.faces()
        ]
    if z.n > VERTICES_MAX_N:
        raise CapExceeded(f"vertex enumeration limited to n <= {VERTICES_MAX_N}")
    if z.kind == "Q":
        rows = _reduced_rows_complex(z.complex_)
    else:
        rows = _system_rows(z.system)
    return [RatVec(v) for v in _dd_vertices(z.n, rows)]


def _dd_vertices(n: int, rows: list[tuple[int, int]]) -> list[tuple[Fraction, ...]]:
    """Double description for {x >= 0, x[mask] <= r}; returns vertices.

    Constraint normals are integer: 0/1 mask rows plus the
    non-negativity rows; rows hold each mask at most once.  The
    singleton rows bound the box, so the region is a polytope.
    """
    ubs = [None] * n
    for mask, r in rows:
        if bit_count(mask) == 1:
            ubs[mask.bit_length() - 1] = Fraction(r)
    if any(u is None for u in ubs):
        raise ValueError("singleton bounds required for boundedness")
    # Constraint list: index 0..n-1 non-negativity (-x_v <= 0), then the
    # box rows x_v <= ubs[v], then the other rows.
    normals: list[tuple[int, ...]] = []
    rhss: list[Fraction] = []
    for v in range(n):
        e = [0] * n
        e[v] = -1
        normals.append(tuple(e))
        rhss.append(ZERO)
    other_rows = [(mask, Fraction(r)) for mask, r in rows if bit_count(mask) != 1]
    for mask, r in [(1 << v, ubs[v]) for v in range(n)] + other_rows:
        normals.append(tuple((mask >> v) & 1 for v in range(n)))
        rhss.append(r)
    nbox = 2 * n

    # Box vertices with tight bitmasks over the first nbox constraints.
    verts: list[tuple[tuple[Fraction, ...], int]] = []
    for bits in range(1 << n):
        coords = tuple(
            ubs[v] if (bits >> v) & 1 else ZERO for v in range(n)
        )
        tight = 0
        for i in range(nbox):
            if _row_value(normals[i], coords) == rhss[i]:
                tight |= 1 << i
        verts.append((coords, tight))
    uniq = {}
    for coords, tight in verts:
        uniq[coords] = tight
    verts = list(uniq.items())

    processed = nbox
    for ridx in range(nbox, len(normals)):
        normal, rhs = normals[ridx], rhss[ridx]
        vals = [_row_value(normal, coords) - rhs for coords, _ in verts]
        keep = [i for i, s in enumerate(vals) if s <= 0]
        out = [i for i, s in enumerate(vals) if s > 0]
        if not out:
            verts = [
                (coords, tight | (1 << ridx) if vals[i] == 0 else tight)
                for i, (coords, tight) in enumerate(verts)
            ]
            processed += 1
            continue
        newpts: dict[tuple[Fraction, ...], int] = {}
        for i in keep:
            si = vals[i]
            if si == 0:
                continue  # already on the new hyperplane
            ci, ti = verts[i]
            for j in out:
                cj, tj = verts[j]
                common = ti & tj
                if bit_count(common) < n - 1:
                    continue
                if not _tight_rank_at_least(normals, common, n - 1):
                    continue
                sj = vals[j]
                t = si / (si - sj)  # si < 0 < sj
                coords = tuple(
                    a + t * (b - a) for a, b in zip(ci, cj)
                )
                tight = 1 << ridx
                for idx in range(processed):
                    if _row_value(normals[idx], coords) == rhss[idx]:
                        tight |= 1 << idx
                newpts.setdefault(coords, tight)
        keep_set = set(keep)
        verts = [
            (coords, tight | (1 << ridx) if vals[i] == 0 else tight)
            for i, (coords, tight) in enumerate(verts)
            if i in keep_set
        ] + list(newpts.items())
        processed += 1
    return [coords for coords, _ in verts]


def _row_value(normal: tuple[int, ...], coords: tuple[Fraction, ...]) -> Fraction:
    return sum((a * b for a, b in zip(normal, coords) if a), ZERO)


def _tight_rank_at_least(normals, common: int, need: int) -> bool:
    """Do the tight normals in common span >= need dimensions?  Over the
    rationals the rank is the number of non-zero SNF diagonal entries."""
    mat = [list(normals[i]) for i in iter_bits(common)]
    return sum(1 for d in snf_diagonal(mat) if d) >= need


# -- ratios ---------------------------------------------------------------


def ratio(b: PolytopeRef, a: PolytopeRef) -> XRat:
    """B:A = least t with tA containing B; max of the A-gauge over B's
    vertices."""
    if b.n != a.n:
        raise DomainError("dimension mismatch")
    best = XRat.of(0)
    for v in vertices(b):
        best = max(best, psi(a, v))
        if best is INF:
            return INF
    return best


def ratio_rq_via_matchings(system: MatroidSystem):
    """max over U of nu*(L_U) : nu(L_U) (0/0 skipped, x/0 infinite).

    R(L_U) is R(L) cut to the points whose support lies in U, and R(L)
    is closed downwards, so nu*(L_U) = max 1.x over R(L_U) equals
    max 1_U.x over R(L): one row set, _system_rows(system), serves
    every U.
    """
    c = system.intersection_complex()
    best = ZERO
    for u in range(1, 1 << system.n):
        indicator = RatVec([(u >> v) & 1 for v in range(system.n)])
        nu_star = nu_star_w(system, indicator)
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


def nu_star_w(system: MatroidSystem, w: RatVec) -> Fraction:
    """LP max w.x over R(L), solved on the reduced constraint rows."""
    rows = _system_rows(system)
    amat = [
        [ONE if (mask >> v) & 1 else ZERO for v in range(system.n)] for mask, _ in rows
    ]
    bvec = [Fraction(r) for _, r in rows]
    value, _, _ = solve_max_slack(amat, bvec, list(w))
    return value


def tau_star_w(system: MatroidSystem, w: RatVec) -> Fraction:
    """The covering-side LP: weights y_i(U) on the flats of each matroid,
    minimizing the total rank mass subject to covering w."""
    cols: list[tuple[int, Fraction]] = []  # (mask, rank cost)
    for m in system:
        for f in m.flats():
            cols.append((f, Fraction(m.rank(f))))
    n = system.n
    rows = []
    for v in range(n):
        coeffs = [ONE if (mask >> v) & 1 else ZERO for mask, _ in cols]
        rows.append((coeffs, ">=", w[v]))
    res = solve(
        LPProblem.make("min", [cost for _, cost in cols], rows)
    )
    if res.status != "optimal":
        raise Infeasible("covering LP unexpectedly " + res.status)
    return res.objective


def nu_w(system: MatroidSystem, w: RatVec) -> Fraction:
    """Max weight of a common independent set: for w >= 0 a maximal one,
    so the best maximal face of the intersection complex."""
    if not w.is_nonnegative():
        raise DomainError("weights must be non-negative")
    return max(w.sum_over(f) for f in system.intersection_complex().maximal_faces)


def tau_w(system: MatroidSystem, w: RatVec) -> Fraction:
    """Minimum total size of an integral cover.

    Integral covers with demands at most one are exactly choices of one
    spanned set per matroid covering every positive-weight element, by
    the level-set decomposition of integral vectors; larger demands are
    out of scope here.
    """
    demands = 0
    for v in range(system.n):
        if w[v] > 1:
            raise CapExceeded("integral covers supported for w <= 1 only")
        if w[v] > 0:
            demands |= 1 << v
    if demands == 0:
        return ZERO
    options: list[tuple[int, int]] = []  # (covered mask, cost)
    for m in system:
        for f in m.flats():
            options.append((f & demands, m.rank(f)))
    # Pareto-prune: drop options covered more cheaply elsewhere.
    options.sort(key=lambda t: (t[1], -bit_count(t[0])))
    kept: list[tuple[int, int]] = []
    for cov, cost in options:
        if not any(cov & ~c2 == 0 and cost >= cost2 for c2, cost2 in kept):
            kept.append((cov, cost))
    best = [sum(cost for _, cost in kept) + 1]
    _cheapest_cover(kept, demands, 0, best, {})
    return Fraction(best[0])


def _cheapest_cover(kept, remaining: int, spent: int, best: list[int], memo: dict[int, int]):
    """Branch and bound for tau_w; best[0] is the incumbent cost."""
    if remaining == 0:
        best[0] = min(best[0], spent)
        return
    if spent >= best[0]:
        return
    seen = memo.get(remaining)
    if seen is not None and seen <= spent:
        return
    memo[remaining] = spent
    low = next(iter_bits(remaining))
    for cov, cost in kept:
        if (cov >> low) & 1:
            _cheapest_cover(kept, remaining & ~cov, spent + cost, best, memo)


@dataclass(frozen=True)
class MatroidalNumbers:
    nu: Fraction
    nu_star: Fraction
    tau_star: Fraction
    tau: Fraction


def matroidal_numbers(system: MatroidSystem, w: RatVec) -> MatroidalNumbers:
    """All four weighted matroidal numbers; the LP pair must coincide."""
    if len(w) != system.n:
        raise DomainError("one weight per ground element required")
    if not w.is_nonnegative():
        raise DomainError("weights must be non-negative")
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
    w_star: Fraction | None  # None when some edge is empty


def hyper_nu_star_w(h: Hypergraph, w: RatVec) -> Fraction:
    if any(e == 0 for e in h.edges):
        raise EmptyEdge("fractional matching undefined with an empty edge")
    amat = []
    bvec = []
    for v in range(h.n):
        amat.append([ONE if (e >> v) & 1 else ZERO for e in h.edges])
        bvec.append(ONE)
    value, _, _ = solve_max_slack(amat, bvec, list(w))
    return value


def hyper_tau_star_w(h: Hypergraph, w: RatVec) -> Fraction:
    rows = []
    for i, e in enumerate(h.edges):
        coeffs = [ONE if (e >> v) & 1 else ZERO for v in range(h.n)]
        rows.append((coeffs, ">=", w[i]))
    res = solve(LPProblem.make("min", [ONE] * h.n, rows))
    if res.status != "optimal":
        raise Infeasible("fractional cover LP " + res.status)
    return res.objective


def hyper_nu_w(h: Hypergraph, w: RatVec) -> Fraction:
    """Max weight of a matching (integral fractional matching)."""
    best = [ZERO]
    _heaviest_matching(h.edges, w, 0, 0, ZERO, best)
    return best[0]


def _heaviest_matching(edges, w: RatVec, i: int, used: int, val: Fraction, best: list[Fraction]):
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


def hyper_tau_w(h: Hypergraph, w: RatVec) -> Fraction:
    """Min size of an integral cover with multiplicities: t[e] >= ceil(w_e)."""
    demands = [max(0, -((-w[i].numerator) // w[i].denominator)) for i in range(len(h.edges))]
    if any(d > 0 and e == 0 for d, e in zip(demands, h.edges)):
        raise Infeasible("empty edge with positive demand")
    # Greedy start for the incumbent.
    best = [sum(d * 1 for d in demands) * max(1, h.n)]
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
        amat.append([Fraction(bit_count(t & s)) for t in h.edges])
        bvec.append(ONE)
    # Dual form: max sum g with sum_S g_S |T & S| <= 1 for every T.
    value, _, _ = solve_max_slack(amat, bvec, [ONE] * m)
    return value


def hyper_numbers(h: Hypergraph, w: RatVec | None = None) -> HypergraphNumbers:
    if w is None:
        w = RatVec.ones(len(h.edges))
    if len(w) != len(h.edges):
        raise DomainError("one weight per edge required")
    if not w.is_nonnegative():
        raise DomainError("weights must be non-negative")
    ns = hyper_nu_star_w(h, w)
    ts = hyper_tau_star_w(h, w)
    if ns != ts:
        raise CertificateError(f"LP duality violated: {ns} != {ts}")
    return HypergraphNumbers(
        nu=hyper_nu_w(h, w),
        nu_star=ns,
        tau_star=ts,
        tau=hyper_tau_w(h, w),
        w_star=hyper_w_star(h),
    )
