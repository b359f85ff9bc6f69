"""Chromatic, list-chromatic, and fractional-chromatic computation.

A coloring of a complex covers the ground set by faces; chi is the
least number of faces needed.  chi_list quantifies over all equal-size
list systems (canonicalized up to renaming colors), and chi_star is the
weighted fractional relaxation, solved as an exact LP over maximal-face
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Complex, bit_count, check_sweep, iter_bits
from .errors import CapExceeded, DomainError, Infeasible, Uncolorable
from .extval import INF, XRat, max_ratio
from .lp import solve_max_slack
from .matroid import (
    GenPartitionMatroid,
    Matroid,
    max_common_independent,
)

ZERO = Fraction(0)
ONE = Fraction(1)

LIST_ENUM_BUDGET = 4_000_000


def chi(c: Complex, return_cover: bool = False):
    """Exact minimum number of faces covering [0, n).

    Branch and bound over maximal faces; raises Uncolorable when some
    ground element lies in no face.
    """
    full = (1 << c.n) - 1
    if c.n == 0:
        return (0, []) if return_cover else 0
    if c.vertices_mask() != full:
        raise Uncolorable("some element lies in no face")
    faces = list(c.maximal_faces)

    # Greedy upper bound.
    uncov = full
    greedy: list[int] = []
    while uncov:
        f = max(faces, key=lambda g: bit_count(g & uncov))
        greedy.append(f)
        uncov &= ~f
    best = len(greedy)
    best_cover = greedy

    # Root lower bound (the simplicial expansion number, cheap sizes only).
    if (1 << c.n) <= (1 << 16):
        lower = max_ratio(c.rank_of, full).ceil()
    else:
        lower = max(1, -(-c.n // c.rank()))
    if best == lower:
        if return_cover:
            return best, list(best_cover)
        return best

    cover_by = [[f for f in faces if (f >> v) & 1] for v in range(c.n)]
    incumbent = [best, best_cover]
    _smallest_cover(faces, cover_by, full, 0, [], incumbent)
    best, best_cover = incumbent
    if return_cover:
        return best, best_cover
    return best


def _smallest_cover(faces, cover_by, uncov: int, count: int, chosen: list[int], incumbent: list):
    """Branch and bound for chi; incumbent is [size, cover], improved in place."""
    if uncov == 0:
        if count < incumbent[0]:
            incumbent[0] = count
            incumbent[1] = chosen[:]
        return
    biggest = max(bit_count(f & uncov) for f in faces)
    if count + -(-bit_count(uncov) // biggest) >= incumbent[0]:
        return
    v = min(iter_bits(uncov), key=lambda w: len(cover_by[w]))
    for f in sorted(cover_by[v], key=lambda g: -bit_count(g & uncov)):
        chosen.append(f)
        _smallest_cover(faces, cover_by, uncov & ~f, count + 1, chosen, incumbent)
        chosen.pop()


def delta_rank(m: Matroid, h=None, sub: int | None = None) -> XRat:
    """max over non-empty S of h[S]/rank(S); the matroid expansion number.

    With h = None the all-ones weighting is used; sub restricts the
    enumeration to subsets of the given mask.
    """
    return max_ratio(m.rank, m.full if sub is None else sub, h)


def chi_matroid(m: Matroid) -> int:
    """ceil of the expansion number; equals chi of the matroid complex."""
    if m.loops():
        raise Uncolorable("matroid has a loop")
    return delta_rank(m).ceil()


def chi_matroid_restricted(m: Matroid, fmask: int):
    """chi of m restricted to fmask (int, or inf when a loop is inside)."""
    if fmask == 0:
        return 0
    if m.loops() & fmask:
        return INF
    return delta_rank(m, sub=fmask).ceil()


# -- fractional ----------------------------------------------------------


def chi_star(c: Complex, h) -> Fraction:
    """Weighted fractional chromatic number, exact.

    Solves max h.y subject to y[F] <= 1 over maximal faces F (the LP
    dual); the dual values of that program are the face weights of an
    optimal fractional coloring.  Raises Infeasible when some element
    of positive weight lies in no face.
    """
    h = [Fraction(x) for x in h]
    if len(h) != c.n:
        raise DomainError("weight vector length mismatch")
    if any(x < 0 for x in h):
        raise DomainError("weights must be non-negative")
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


def _canonical_systems(n: int, p: int, budget: int):
    """Canonical size-p list systems: multisets {(F_c, mult)} with every
    vertex covered exactly p times.

    Up to renaming colors, a list system is exactly such a multiset
    (F_c = vertices whose list holds color c).  Masks are tried in
    ascending order; a mask is usable only while all its vertices still
    need coverage.
    """
    masks = list(range(1, 1 << n))
    suffix_union = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[i]
    out_deg = [p] * n
    state = {"nodes": 0}

    def dfs(i: int, chosen: tuple):
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise CapExceeded("list-system enumeration beyond budget")
        live = 0
        for v in range(n):
            if out_deg[v]:
                live |= 1 << v
        if live == 0:
            yield chosen
            return
        if i == len(masks) or live & ~suffix_union[i]:
            return
        mask = masks[i]
        maxmult = 0
        if mask & ~live == 0:
            maxmult = min(out_deg[v] for v in iter_bits(mask))
        yield from dfs(i + 1, chosen)
        for mult in range(1, maxmult + 1):
            for v in iter_bits(mask):
                out_deg[v] -= 1
            yield from dfs(i + 1, chosen + ((mask, mult),))
        for v in iter_bits(mask):
            out_deg[v] += maxmult

    yield from dfs(0, ())


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
    n = c.n

    def pick(v: int, g: int, i: int, left: int) -> bool:
        """Give v its remaining `left` instances, from (g, i) onwards."""
        if left == 0:
            return v + 1 == n or pick(v + 1, 0, 0, b)
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
                    if pick(v, gi, ii + 1, left - 1):
                        return True
                    inst[ii] = cls
        return False

    return n == 0 or pick(0, 0, 0, b)


def _first_uncolorable(c: Complex, p: int, b: int, budget: int):
    """The first canonical size-p system with no b-fold coloring, or None."""
    for system in _canonical_systems(c.n, p, budget):
        if not _b_fold_colorable(c, system, b):
            return system
    return None


def chi_list(c: Complex, p: int, budget: int = LIST_ENUM_BUDGET):
    """True iff every size-p list system admits a c-respecting coloring.

    Returns (verdict, witness): witness is a bad canonical system when
    the verdict is False.
    """
    full = (1 << c.n) - 1
    if c.vertices_mask() != full:
        return False, (((full & ~c.vertices_mask()).bit_length() - 1,))
    if chi(c) > p:
        return False, tuple((full, 1) for _ in range(p))
    # With p >= n and all singletons present, a system of distinct reps
    # always exists: lists are size p >= n, so Hall's condition holds.
    if p >= c.n:
        return True, None
    if c.n > 8 or p > 4:
        raise CapExceeded("chi_list search limited to n <= 8, p <= 4")
    bad = _first_uncolorable(c, p, 1, budget)
    return bad is None, bad


def chi_list_number(c: Complex, budget: int = LIST_ENUM_BUDGET) -> int:
    """Least p for which every size-p system is colorable.

    The search starts at p = chi and ends by p = n (the SDR shortcut);
    a size that needs the full enumeration past chi_list's caps
    (n <= 8, p <= 4) raises CapExceeded.
    """
    p = max(1, chi(c))
    while True:
        ok, _ = chi_list(c, p, budget)
        if ok:
            return p
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
    if bit_count(common) == m.n:
        assignment = [0] * m.n
        for i in iter_bits(common):
            v, col = pairs[i]
            assignment[v] = col
        return Coloring(tuple(assignment))
    # Violated partition: brute-force the minimizing T, then shrink.
    full = m.full

    def lhs_of(t: int) -> int:
        return bit_count(t) + sum(
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


def ab_check(c: Complex, a: int, b: int, mode: str, budget: int = LIST_ENUM_BUDGET) -> bool:
    """(a, b)-colorable or (a, b)-choosable, by exhaustive search.

    Colorable: the one system of a colors on every vertex has a b-fold
    coloring.  Choosable: every size-a list system has one.
    """
    if not (1 <= b <= a):
        raise ValueError("need a >= b >= 1")
    if a > 6 or b > 3 or c.n > 6:
        raise CapExceeded("ab_check limited to a <= 6, b <= 3, n <= 6")
    if mode == "colorable":
        return _b_fold_colorable(c, (((1 << c.n) - 1, a),), b)
    if mode == "choosable":
        return _first_uncolorable(c, a, b, budget) is None
    raise ValueError(f"unknown mode {mode!r}")
