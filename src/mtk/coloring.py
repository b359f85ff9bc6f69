"""Chromatic, list-chromatic, and fractional-chromatic computation.

A coloring of a complex covers the ground set by faces; chi is the
least number of faces needed.  min_cover is the one exact cover search,
with a demand per element: chi, matdim_upper, polytopes.tau_w,
polytopes.hyper_tau_w and meshulam.gamma_e_graph call it.  It keeps its
open nodes on an explicit stack, so no demand is too deep to search.
chi_list and ab_check quantify over equal-size list systems, listed up
to renaming colors; by Hall's theorem only systems on fewer than b*n
colors (b = 1 for chi_list) can fail, so no others are listed.  Each
system is decided by one iterative b-fold search on a table of the
complex's faces, built once per call; its first descent is the greedy
coloring, which colors most systems.
chi_star is the weighted fractional relaxation, solved as an exact LP
on the support of the weights, one row per maximal trace of a face.
matdim, the least number of matroids whose intersection is a complex,
is bounded and computed here as chi of derived complexes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Complex,
    _undominated,
    check_sweep,
    iter_bits,
    mask_of,
    matching_complex,
    min_nonfaces,
)
from .errors import CapExceeded, DomainError, Infeasible, Uncolorable
from .extval import XRat, check_weights, max_ratio
from .lp import solve_max_slack
from .matroid import (
    GenPartitionMatroid,
    Matroid,
    UniformMatroid,
    _exchange_search,
    _is_basis_family,
    check_matroid_axioms,
    max_common_independent,
)

ZERO = Fraction(0)
ONE = Fraction(1)

LIST_ENUM_BUDGET = 4_000_000
MATDIM_MAX_N = 6  # matdim_exact is refused above this ground-set size


def min_cover(options, demand: Sequence[int]) -> tuple[int, list[int]]:
    """A cheapest multiset of options, (mask, cost) pairs with integer
    costs >= 0, that puts each element v in at least demand[v] of them:
    returns (cost, the masks chosen), a mask listed once per pick.

    An option is dropped first when a kept one covers a superset of its
    part of the demanded elements for no more cost.  Branch and bound on
    the element still demanded with the fewest options, trying the
    cheapest option first and the widest among equal costs; a later
    branch never takes an option an earlier sibling took, so each
    multiset is tried in one order.  The bound is the cost spent plus
    ceil(demand left x the least cost per element), and max(demand)
    copies of every kept option are an incumbent.  The open nodes sit on
    an explicit stack, one per pick, and the search stops once the
    incumbent meets the root's bound.  Raises Uncolorable when an
    element of positive demand lies in no option, and DomainError on a
    negative cost.
    """
    target = mask_of(v for v, d in enumerate(demand) if d > 0)
    # In cost order, every kept option costs no more than the next one.
    kept = _undominated(
        options,
        lambda o: (o[1], -(o[0] & target).bit_count()),
        lambda o, k: o[0] & target & ~k[0] == 0,
    )
    if kept and kept[0][1] < 0:  # the first option kept is the cheapest
        mask, cost = kept[0]
        raise DomainError(f"option costs must be non-negative: {mask:#b} costs {cost}")
    by_elem = [[o for o in kept if (o[0] >> v) & 1] for v in range(len(demand))]
    missing = [v for v in iter_bits(target) if not by_elem[v]]
    if missing:
        raise Uncolorable(f"element {missing[-1]} lies in no option")
    best, chosen = max([1, *demand]) * sum(cost for _, cost in kept) + 1, []
    floor = None  # the root's bound: no cover costs less
    path: list[int] = []  # the mask each open node has taken last
    stack: list[list] = []  # open nodes: [uncov, extra, spent, options left, barred]
    # uncov holds the elements still demanded, each once, and each u in
    # extra extra[u] more times; no option in barred is taken below a node
    extra = {v: d - 1 for v, d in enumerate(demand) if d > 1}
    uncov, spent, barred = target, 0, set()
    while True:
        if uncov == 0:
            if spent < best:
                best, chosen = spent, path[:]
                if best == floor:
                    break
        else:
            bound, left = _branching(kept, by_elem, uncov, extra, spent, best, barred)
            floor = bound if floor is None else floor
            stack.append([uncov, extra, spent, left, barred])
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            break
        node = stack[-1]
        uncov, extra, spent, left, barred = node
        o = left.pop()
        node[4] = barred | {o}
        mask, cost = o
        again = mask_of(u for u, e in extra.items() if e and (mask >> u) & 1)  # owed one more
        extra = {u: e - ((again >> u) & 1) for u, e in extra.items()}
        uncov, spent = uncov & ~mask | again, spent + cost
        path[len(stack) - 1 :] = [mask]
    return best, chosen


def _branching(kept, by_elem, uncov: int, extra: dict, spent: int, best: int, barred: set):
    """One node of min_cover's search: its bound, and the options not in
    barred that it tries, the first to try last; no options once the
    bound reaches best."""
    left = uncov.bit_count() + sum(extra.values())
    bound = spent + min(
        -(-left * cost // (mask & uncov).bit_count()) for mask, cost in kept if mask & uncov
    )
    if bound >= best:
        return bound, []
    v = min(iter_bits(uncov), key=lambda w: len(by_elem[w]))
    order = sorted(by_elem[v], key=lambda o: (o[1], -(o[0] & uncov).bit_count()))
    return bound, [o for o in reversed(order) if o not in barred]


def chi(c: Complex) -> int:
    """Exact minimum number of faces covering [0, n).

    A cover by maximal faces at unit cost; raises Uncolorable when some
    ground element lies in no face.
    """
    full = (1 << c.n) - 1
    missing = full & ~c.vertices_mask()
    if missing:
        raise Uncolorable(f"vertex {missing.bit_length() - 1} lies in no face")
    return min_cover([(f, 1) for f in c.maximal_faces], [1] * c.n)[0]


def delta_rank(m: Matroid, h: Sequence[Fraction] | None = None) -> Fraction | XRat:
    """max over non-empty S of h[S]/rank(S); the matroid expansion number.

    With h = None the all-ones weighting is used.
    """
    if h is not None:
        h = check_weights(h, m.n)
    return max_ratio(m.rank, m.full, h)


def chi_matroid(m: Matroid) -> int:
    """ceil of the expansion number; equals chi of the matroid complex."""
    if m.loops():
        raise Uncolorable("matroid has a loop")
    return math.ceil(delta_rank(m))


def chi_matroid_restricted(m: Matroid, fmask: int):
    """chi of m restricted to fmask (int, or inf when a loop is inside)."""
    return math.ceil(max_ratio(m.rank, fmask))


# -- fractional ----------------------------------------------------------


def chi_star(c: Complex, h: Sequence[Fraction]) -> Fraction:
    """Weighted fractional chromatic number, exact.

    chi*(C, h) = chi*(C[U], h|U) for U = supp h, and the maximal faces
    of C[U] are the maximal traces F & U.  So this solves max h.y
    subject to y[T] <= 1 over those traces T, with one column per
    element of U; the dual weights the traces, and each trace lifts to
    a maximal face that contains it, which gives an optimal fractional
    coloring of C.  Raises Infeasible when some element of positive
    weight lies in no face.
    """
    h = check_weights(h, c.n)
    u = mask_of(v for v in range(c.n) if h[v])
    for v in iter_bits(u & ~c.vertices_mask()):
        raise Infeasible(f"element {v} has positive weight but no face")
    support = list(iter_bits(u))
    traces = Complex(c.n, [f & u for f in c.maximal_faces]).maximal_faces
    amat = [[ONE if (t >> v) & 1 else ZERO for v in support] for t in traces]
    return solve_max_slack(amat, [ONE] * len(traces), [h[v] for v in support])[0]


# -- list coloring --------------------------------------------------------


def _canonical_systems(n: int, p: int, max_colors: int, budget: int, singletons: bool = True):
    """Canonical size-p list systems on at most max_colors colors:
    multisets {(F_c, mult)} with every vertex covered exactly p times.

    Up to renaming colors, a list system is exactly such a multiset
    (F_c = vertices whose list holds color c).  Each step covers the
    lowest vertex that still needs colors, by a mask inside the vertices
    that still need them and above the last mask taken for that vertex,
    so every multiset comes once.  Without singletons, no F_c is a
    single vertex.
    """
    fresh = -1 if singletons else 0
    yield from _extend_systems([(1 << n) - 1] * p, max_colors, fresh, None, fresh, [budget], ())


def _extend_systems(need, left: int, fresh: int, rest, s: int, budget: list[int], chosen):
    """The systems extending `chosen`.  need[k] is the mask of vertices
    that still need more than k colors, left the colors still allowed
    and budget[0] the nodes still allowed.  The next mask is the lowest
    live vertex plus a submask of rest past s; at a vertex with no mask
    yet rest is None and s is fresh (-1, or 0 to skip the singleton)."""
    budget[0] -= 1
    if budget[0] < 0:
        raise CapExceeded("list-system enumeration beyond budget")
    live = need[0]
    if not live:
        yield chosen
        return
    if left < len(need) and need[left]:
        return  # some vertex needs more colors than are left
    low = live & -live
    if rest is None:
        rest = live ^ low
    top = min(left, len(need))
    while s != rest:
        s = (s - rest) & rest
        mask = low | s
        mult = 1
        while mult <= top and mask & ~need[mult - 1] == 0:
            nxt = [
                nk & ~mask | (need[k + mult] & mask if k + mult < len(need) else 0)
                for k, nk in enumerate(need)
            ]
            more = nxt[0] & low  # low's later masks come past this one
            yield from _extend_systems(
                nxt,
                left - mult,
                fresh,
                rest if more else None,
                s if more else fresh,
                budget,
                chosen + ((mask, mult),),
            )
            mult += 1


def _face_table(c: Complex) -> bytearray:
    """face[s] == 1 iff the mask s is a face of c.  Raises CapExceeded
    above SWEEP_CAP masks, before building the table."""
    check_sweep(c.n)
    face = bytearray(1 << c.n)
    for s in c.faces():
        face[s] = 1
    return face


def _b_fold_colorable(face: bytearray, system, b: int) -> bool:
    """Is there a b-fold coloring respecting a canonical system of lists?

    face: the face table of a complex on n vertices (_face_table), so
    len(face) == 2**n.  system: tuple of (vertex-mask F, multiplicity),
    one color instance per unit of multiplicity.  Each vertex takes b
    distinct instances whose F contains it, and every instance's class
    must stay a face.  One depth-first search with an explicit stack of
    picks: vertex v takes its instances in increasing order, each the
    first that fits, and a dead end pops the last pick and resumes past
    it, so the first descent is the greedy coloring.  Instances of one
    group whose classes agree are interchangeable, so an instance is
    skipped when an earlier one of its group, at or after the pick's
    start, has its class.
    """
    n = len(face).bit_length() - 1
    masks: list[int] = []  # each instance's F
    first: list[int] = []  # the first instance of each instance's group
    for fmask, mult in system:
        first += [len(masks)] * mult
        masks += [fmask] * mult
    m = len(masks)
    cls = [0] * m  # each instance's class
    picks: list[int] = []  # the instances taken, b per vertex in vertex order
    v = start = j = 0  # the vertex picking, its pick's start, the next instance to try
    bit = 1
    while v < n:
        while j < m:
            cj = cls[j]
            if masks[j] & bit and face[cj | bit]:
                lo = first[j]
                if lo == j or cj not in cls[max(lo, start) : j]:
                    break
            j += 1
        else:  # dead end: undo the last pick and try past it
            if not picks:
                return False
            j = picks.pop()
            v = len(picks) // b
            bit = 1 << v
            cls[j] ^= bit
            start = picks[-1] + 1 if len(picks) % b else 0
            j += 1
            continue
        cls[j] |= bit
        picks.append(j)
        if len(picks) % b:
            start = j = j + 1
        else:
            v += 1
            bit <<= 1
            start = j = 0
    return True


def _first_uncolorable(c: Complex, p: int, b: int, budget: int):
    """The first canonical size-p system with no b-fold coloring, or None.

    Every vertex must be a face: only then do the bounds below hold.
    """
    # Only systems on at most b*n - 1 colors, and for b = 1 only systems
    # without single-vertex classes, need a search:
    # 1. A system with a b-fold system of distinct representatives is
    #    colored by singleton classes, which are faces.
    # 2. Otherwise Koenig's deficiency form of Hall's theorem gives a set
    #    S whose lists use fewer than b|S| colors.  Take S of largest
    #    deficiency: the vertices outside S have b-fold representatives
    #    among the other colors, so the system is colorable iff its
    #    S-part is.  Giving every vertex outside S p of S's colors keeps
    #    it uncolorable and uses at most b*n - 1 colors.
    # 3. For b = 1, shrink that S to a minimal set with an uncolorable
    #    part; it still uses at most n - 1 colors.  A color in the list
    #    of only one vertex v of S would color v once S - v is colored,
    #    so every color class has at least 2 vertices.
    # The argument of 3 does not carry over to b >= 2, so b-fold systems
    # keep single-vertex classes.
    face = _face_table(c)
    for system in _canonical_systems(c.n, p, b * c.n - 1, budget, singletons=b > 1):
        if not _b_fold_colorable(face, system, b):
            return system
    return None


def chi_list(c: Complex, p: int, budget: int = LIST_ENUM_BUDGET):
    """True iff every size-p list system admits a c-respecting coloring.

    Returns (verdict, witness): witness is a bad canonical system when
    the verdict is False.  Raises ValueError on p < 0 or budget < 0, and
    CapExceeded past SWEEP_CAP vertex masks or past `budget` enumeration
    nodes.
    """
    if p < 0 or budget < 0:
        raise ValueError(f"need p >= 0 and budget >= 0, got p={p}, budget={budget}")
    full = (1 << c.n) - 1
    if c.vertices_mask() != full or chi(c) > p:
        # p colors on every vertex: a coloring would cover by p faces;
        # the one size-0 system is empty
        return False, ((full, p),) if p else ()
    # With p >= n and all singletons present, a system of distinct reps
    # always exists: lists are size p >= n, so Hall's condition holds.
    if p >= c.n:
        return True, None
    bad = _first_uncolorable(c, p, 1, budget)
    return bad is None, bad


def chi_list_number(c: Complex, budget: int = LIST_ENUM_BUDGET) -> tuple[int, int]:
    """Bracket (lo, hi) on the least p for which every size-p system is
    colorable.

    The search climbs p = chi, chi + 1, ...; the first choosable p gives
    (p, p).  A size chi_list refuses, past its node budget or its face
    table's sweep cap, gives (p, n): every smaller size failed, and size
    n is choosable by the SDR shortcut.  Raises ValueError on budget < 0.
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    p = chi(c)
    while True:
        try:
            ok, _ = chi_list(c, p, budget)
        except CapExceeded:
            return p, c.n
        if ok:
            return p, p
        p += 1


# -- constructive matroid list coloring -----------------------------------


class _ColorwiseMatroid(Matroid):
    """Ground set = (vertex, color) pairs; independent iff every color
    class is independent in the base matroid.  Isomorphic to the join of
    the restrictions to the color's vertex set."""

    kind = "colorwise"

    def __init__(self, base: Matroid, pairs: list[tuple[int, int]]):
        super().__init__(len(pairs))
        self.base = base
        self.pairs = pairs

    def _rank(self, s: int) -> int:
        per: dict[int, int] = {}
        for i in iter_bits(s):
            v, col = self.pairs[i]
            per[col] = per.get(col, 0) | (1 << v)
        return sum(self.base.rank(mask) for mask in per.values())


@dataclass(frozen=True)
class Coloring:
    assignment: tuple[int, ...]  # vertex -> color id

    def classes(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v, col in enumerate(self.assignment):
            out[col] = out.get(col, 0) | (1 << v)
        return out

    def respects(self, is_face) -> bool:
        return all(is_face(mask) for mask in self.classes().values())


@dataclass(frozen=True)
class ListColorFailure:
    """A set T violating |T| + sum_c rank(F_c - T) >= |V|."""

    t_mask: int
    lhs: int
    required: int


def matroid_list_color(m: Matroid, lists):
    """Constructive list coloring of a matroid via matroid intersection.

    lists: per-vertex collections of color ids, all the same size.
    Returns a Coloring on success, else a ListColorFailure whose T
    violates the Edmonds bound.  T starts as the least T minimizing
    |T| + sum_c rank(F_c - T), read off the certificate of the last
    exchange-graph search, and drops vertices while it stays violated.
    """
    lists = [sorted(set(lst)) for lst in lists]
    if len(lists) != m.n:
        raise ValueError("one list per ground element required")
    if len({len(lst) for lst in lists}) > 1:
        raise ValueError("lists must share one size")
    pairs = [(v, col) for v in range(m.n) for col in lists[v]]
    fmask: dict[int, int] = {}  # color -> the vertices whose list has it
    stars = [0] * m.n  # vertex -> its pairs
    for i, (v, col) in enumerate(pairs):
        fmask[col] = fmask.get(col, 0) | 1 << v
        stars[v] |= 1 << i
    # a vertex with an empty list has an empty star, capped at 0
    p_matroid = GenPartitionMatroid(len(pairs), stars, [min(1, len(lst)) for lst in lists])
    q_matroid = _ColorwiseMatroid(m, pairs)
    common = max_common_independent(p_matroid, q_matroid)
    if common.bit_count() == m.n:  # one pair per vertex, in vertex order
        return Coloring(tuple(pairs[i][1] for i in iter_bits(common)))

    def lhs_of(t: int) -> int:
        return t.bit_count() + sum(m.rank(f & ~t) for f in fmask.values())

    # lhs_of(T) is min r_P(A) + r_Q(pairs - A) over the A whose vertices
    # are T, so the least minimizer U of r_P + r_Q gives the least T
    _, reached = _exchange_search(p_matroid, q_matroid, common)
    worst = mask_of(pairs[i][0] for i in iter_bits(reached))
    t = worst
    for v in iter_bits(worst):
        cand = t & ~(1 << v)
        if lhs_of(cand) < m.n:
            t = cand
    return ListColorFailure(t_mask=t, lhs=lhs_of(t), required=m.n)


# -- (a, b) fractional list colorings -------------------------------------


def ab_check(c: Complex, a: int, b: int, mode: str) -> bool:
    """(a, b)-colorable or (a, b)-choosable, by exhaustive search.

    Colorable: the one system of a colors on every vertex has a b-fold
    coloring.  Choosable: every size-a list system has one.  That one
    system is a size-a list system too, so it is tried first in both
    modes; it fails at once when some vertex lies in no face.
    """
    if mode not in ("colorable", "choosable"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (1 <= b <= a):
        raise ValueError("need a >= b >= 1")
    if a > 6 or b > 3 or c.n > 6:
        raise CapExceeded("ab_check limited to a <= 6, b <= 3, n <= 6")
    if not _b_fold_colorable(_face_table(c), (((1 << c.n) - 1, a),), b):
        return False
    return mode == "colorable" or _first_uncolorable(c, a, b, LIST_ENUM_BUDGET) is None


# -- matdim --------------------------------------------------------------


def matdim_upper(c: Complex) -> tuple[int, list[GenPartitionMatroid]]:
    """Edge-chromatic bound: color min-nonfaces by matchings, one
    generalized partition matroid per color class.

    Returns the bound and the witness matroids (whose intersection is c).
    """
    nf = min_nonfaces(c)
    if not nf.edges:
        return 1, [UniformMatroid(c.n, c.n)]
    # Matchings of nf = independent sets of its line graph; an exact
    # minimum cover of E(nf) by matchings is chi of that complex, and
    # every edge is a matching on its own.
    mc = matching_complex(nf)
    k, classes = min_cover([(f, 1) for f in mc.maximal_faces], [1] * mc.n)
    full = (1 << c.n) - 1
    witnesses = []
    for cls in classes:
        edges = [nf.edges[i] for i in iter_bits(cls)]
        parts = list(edges)
        caps = [e.bit_count() - 1 for e in edges]
        rest = full
        for e in edges:
            rest &= ~e
        if rest:
            parts.append(rest)
            caps.append(rest.bit_count())
        witnesses.append(GenPartitionMatroid(c.n, parts, caps))
    return k, witnesses


def _enumerate_matroid_coverages(c: Complex, nonfaces: list[int]) -> list[int]:
    """Coverage masks over min-nonfaces, one per rank(c) matroid containing c.

    Truncating a matroid that contains c to rank(c) still contains c and
    makes more sets dependent, so higher ranks add only dominated
    profiles.  Every maximal face of size rank(c) must be a basis; the
    families are those faces plus any subset of the other r-sets that
    passes basis exchange and puts each smaller maximal face in a basis.
    Profiles are deduplicated; the complex they span drops the dominated
    ones.
    """
    r = c.rank()
    forced = [f for f in c.maximal_faces if f.bit_count() == r]
    smaller = [f for f in c.maximal_faces if f.bit_count() < r]
    rsets = (mask_of(combo) for combo in itertools.combinations(range(c.n), r))
    others = [m for m in rsets if m not in forced]
    coverages: set[int] = set()
    subsets = (itertools.combinations(others, k) for k in range(len(others) + 1))
    for chosen in itertools.chain.from_iterable(subsets):
        fam = {*forced, *chosen}
        if not all(any(f & ~b == 0 for b in fam) for f in smaller):
            continue
        if not _is_basis_family(fam):
            continue
        cov = 0
        for j, nf in enumerate(nonfaces):
            if not any(nf & ~b == 0 for b in fam):
                cov |= 1 << j
        coverages.add(cov)
    return sorted(coverages)


def matdim_exact(c: Complex) -> int:
    """Least k with c an intersection of k matroids (n <= MATDIM_MAX_N).

    Searches a set cover of the minimal non-faces by candidate matroids
    containing c: chi of the complex whose faces are the coverage masks.
    """
    if c.n > MATDIM_MAX_N:
        raise CapExceeded(f"matdim_exact limited to n <= {MATDIM_MAX_N}")
    if check_matroid_axioms(c):
        return 1
    nonfaces = list(min_nonfaces(c).edges)
    return chi(Complex(len(nonfaces), _enumerate_matroid_coverages(c, nonfaces)))
