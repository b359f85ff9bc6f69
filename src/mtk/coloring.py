"""Chromatic, list-chromatic, and fractional-chromatic computation.

A coloring of a complex covers the ground set by faces; chi is the
least number of faces needed.  min_cover is the one exact cover search:
chi, polytopes.tau_w and meshulam.gamma_e_graph are its callers.
chi_list and ab_check quantify over equal-size list systems, listed up
to renaming colors; by Hall's theorem only systems on fewer than b*n
colors (b = 1 for chi_list) can fail, so no others are listed.
chi_star is the weighted fractional relaxation, solved as an exact LP
over maximal-face columns.  matdim, the least number of matroids whose
intersection is a complex, is bounded and computed here as chi of
derived complexes.
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
    _is_basis_family,
    check_matroid_axioms,
    max_common_independent,
)

ZERO = Fraction(0)
ONE = Fraction(1)

LIST_ENUM_BUDGET = 4_000_000
LIST_MAX_N = 8  # largest n chi_list enumerates list systems for
MATDIM_MAX_N = 6  # matdim_exact is refused above this ground-set size


def min_cover(options, target: int, lower: int = 0) -> tuple[int, list[int]]:
    """A cheapest cover of the mask target by options, (mask, cost) pairs
    with integer costs >= 0: returns (cost, the masks chosen).

    An option is dropped first when a kept one covers a superset of its
    part of target for no more cost.  Branch and bound on the uncovered
    element with the fewest options, trying the cheapest option first
    and the widest among equal costs; the bound is the cost spent plus
    ceil(|uncovered| x the least cost per element).  lower is a known
    lower bound on the answer: the search stops at a cover costing it.
    Raises Uncolorable when some element of target lies in no option,
    and DomainError on a negative cost.
    """
    # In cost order, every kept option costs no more than the next one.
    kept = _undominated(
        options,
        lambda o: (o[1], -(o[0] & target).bit_count()),
        lambda o, k: o[0] & target & ~k[0] == 0,
    )
    if kept and kept[0][1] < 0:  # the first option kept is the cheapest
        mask, cost = kept[0]
        raise DomainError(f"option costs must be non-negative: {mask:#b} costs {cost}")
    by_elem = [[o for o in kept if (o[0] >> v) & 1] for v in range(target.bit_length())]
    missing = [v for v in iter_bits(target) if not by_elem[v]]
    if missing:
        raise Uncolorable(f"element {missing[-1]} lies in no option")
    best = [sum(cost for _, cost in kept) + 1, []]
    _cover(kept, by_elem, target, 0, [], best, lower)
    return best[0], best[1]


def _cover(kept, by_elem, uncov: int, spent: int, chosen: list[int], best: list, lower: int):
    """Branch and bound for min_cover; best is [cost, masks], improved in place."""
    if uncov == 0:
        if spent < best[0]:
            best[0] = spent
            best[1] = chosen[:]
        return
    left = uncov.bit_count()
    bound = spent + min(
        -(-left * cost // (mask & uncov).bit_count()) for mask, cost in kept if mask & uncov
    )
    if max(bound, lower) >= best[0]:
        return
    v = min(iter_bits(uncov), key=lambda w: len(by_elem[w]))
    for mask, cost in sorted(by_elem[v], key=lambda o: (o[1], -(o[0] & uncov).bit_count())):
        chosen.append(mask)
        _cover(kept, by_elem, uncov & ~mask, spent + cost, chosen, best, lower)
        chosen.pop()


def chi(c: Complex) -> int:
    """Exact minimum number of faces covering [0, n).

    A cover by maximal faces at unit cost; raises Uncolorable when some
    ground element lies in no face.
    """
    return _face_cover(c)[0]


def _face_cover(c: Complex) -> tuple[int, list[int]]:
    """chi(c) and the maximal faces of one least cover, searched from the
    root lower bound: the simplicial expansion number, cheap sizes only."""
    full = (1 << c.n) - 1
    missing = full & ~c.vertices_mask()
    if missing:
        raise Uncolorable(f"vertex {missing.bit_length() - 1} lies in no face")
    if (1 << c.n) <= (1 << 16):
        lower = math.ceil(max_ratio(c.rank_of, full))
    else:
        lower = -(-c.n // c.rank())
    return min_cover([(f, 1) for f in c.maximal_faces], full, lower)


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

    Solves max h.y subject to y[F] <= 1 over maximal faces F (the LP
    dual); the dual values of that program are the face weights of an
    optimal fractional coloring.  Raises Infeasible when some element
    of positive weight lies in no face.
    """
    h = check_weights(h, c.n)
    covered = c.vertices_mask()
    for v in range(c.n):
        if h[v] > 0 and not (covered >> v) & 1:
            raise Infeasible(f"element {v} has positive weight but no face")
    faces = list(c.maximal_faces)
    amat = [[ONE if (f >> v) & 1 else ZERO for v in range(c.n)] for f in faces]
    bvec = [ONE] * len(faces)
    value, _, _ = solve_max_slack(amat, bvec, h)
    return value


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


def _b_fold_colorable(c: Complex, system, b: int) -> bool:
    """Is there a b-fold coloring respecting a canonical system of lists?

    system: tuple of (vertex-mask F, multiplicity), one color instance
    per unit of multiplicity.  Each vertex takes b distinct instances
    whose F contains it, and every instance's class must be a face.
    Instances of one group whose classes agree are interchangeable, so
    at each pick only the first of them is tried.
    """
    groups = [fmask for fmask, _ in system]
    classes = [[0] * mult for _, mult in system]
    return c.n == 0 or _pick(c, groups, classes, b, 0, 0, 0, b)


def _pick(c: Complex, groups, classes, b: int, v: int, g: int, i: int, left: int) -> bool:
    """Give v its remaining `left` instances, from (g, i) onwards, and
    every later vertex its b; classes[g][i] is instance (g, i)'s class."""
    if left == 0:
        return v + 1 == c.n or _pick(c, groups, classes, b, v + 1, 0, 0, b)
    bit = 1 << v
    for gi in range(g, len(groups)):
        if not (groups[gi] >> v) & 1:
            continue
        inst = classes[gi]
        tried: set[int] = set()
        for ii in range(i if gi == g else 0, len(inst)):
            cls = inst[ii]
            if cls in tried:
                continue
            tried.add(cls)
            nxt = cls | bit
            if c.is_face(nxt):
                inst[ii] = nxt
                if _pick(c, groups, classes, b, v, gi, ii + 1, left - 1):
                    return True
                inst[ii] = cls
    return False


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
    for system in _canonical_systems(c.n, p, b * c.n - 1, budget, singletons=b > 1):
        if not _b_fold_colorable(c, system, b):
            return system
    return None


def chi_list(c: Complex, p: int, budget: int = LIST_ENUM_BUDGET):
    """True iff every size-p list system admits a c-respecting coloring.

    Returns (verdict, witness): witness is a bad canonical system when
    the verdict is False.  Raises CapExceeded past n = LIST_MAX_N or
    past `budget` enumeration nodes.
    """
    full = (1 << c.n) - 1
    if c.vertices_mask() != full or chi(c) > p:
        # p colors on every vertex: a coloring would cover by p faces
        return False, ((full, p),)
    # With p >= n and all singletons present, a system of distinct reps
    # always exists: lists are size p >= n, so Hall's condition holds.
    if p >= c.n:
        return True, None
    if c.n > LIST_MAX_N:
        raise CapExceeded(f"chi_list search limited to n <= {LIST_MAX_N}")
    bad = _first_uncolorable(c, p, 1, budget)
    return bad is None, bad


def chi_list_number(c: Complex, budget: int = LIST_ENUM_BUDGET) -> tuple[int, int]:
    """Bracket (lo, hi) on the least p for which every size-p system is
    colorable.

    The search climbs p = chi, chi + 1, ...; the first choosable p gives
    (p, p).  A size the node budget cannot decide gives (p, n): every
    smaller size failed, and size n is choosable by the SDR shortcut.
    Past chi_list's cap n <= LIST_MAX_N no size below n can be searched,
    and the CapExceeded propagates.
    """
    p = chi(c)
    while True:
        try:
            ok, _ = chi_list(c, p, budget)
        except CapExceeded:
            if c.n > LIST_MAX_N:
                raise
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
        self.colors = sorted({col for _, col in pairs})

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
    violates the Edmonds bound.  The failure path sweeps all 2^n sets T,
    so n past the sweep cap is refused up front.
    """
    check_sweep(m.n)
    lists = [sorted(set(lst)) for lst in lists]
    if len(lists) != m.n:
        raise ValueError("one list per ground element required")
    sizes = {len(lst) for lst in lists}
    if len(sizes) != 1:
        raise ValueError("lists must share one size")
    pairs = [(v, col) for v in range(m.n) for col in lists[v]]
    colors = sorted({col for _, col in pairs})
    fmask = {col: 0 for col in colors}
    for v, col in pairs:
        fmask[col] |= 1 << v
    star_parts = []
    idx = 0
    for v in range(m.n):
        star = 0
        for _ in lists[v]:
            star |= 1 << idx
            idx += 1
        star_parts.append(star)
    p_matroid = GenPartitionMatroid(len(pairs), star_parts, [1] * m.n)
    q_matroid = _ColorwiseMatroid(m, pairs)
    common = max_common_independent(p_matroid, q_matroid)
    if common.bit_count() == m.n:
        assignment = [0] * m.n
        for i in iter_bits(common):
            v, col = pairs[i]
            assignment[v] = col
        return Coloring(tuple(assignment))
    # Violated partition: brute-force the minimizing T, then shrink.
    full = m.full

    def lhs_of(t: int) -> int:
        return t.bit_count() + sum(
            m.rank(fmask[col] & ~t) for col in colors
        )

    worst = min(range(full + 1), key=lhs_of)
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
    if not (1 <= b <= a):
        raise ValueError("need a >= b >= 1")
    if a > 6 or b > 3 or c.n > 6:
        raise CapExceeded("ab_check limited to a <= 6, b <= 3, n <= 6")
    if mode not in ("colorable", "choosable"):
        raise ValueError(f"unknown mode {mode!r}")
    if not _b_fold_colorable(c, (((1 << c.n) - 1, a),), b):
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
    # minimum cover of E(nf) by matchings is chi of that complex.
    mc = matching_complex(nf)
    k, classes = _face_cover(mc)
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
