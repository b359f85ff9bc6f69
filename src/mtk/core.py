"""Ground sets, subset masks, hypergraphs, and simplicial complexes.

Subsets of the ground set [0, n) are stored as integer bitmasks
(element i is present iff bit i is set).  All values are immutable and
every operation is pure.

complex_of is the one builder of a complex from a membership test:
independence_complex, the matroid complex and the intersection complex
of a matroid system all go through it, and min_nonfaces reads the
minimal non-faces off the same search.  It searches depth first from the
empty set, so its member must be down-closed; member is asked at most
once per set, never on the empty set, and only on a set whose part below
its top element is a face.  SWEEP_CAP bounds every 2^n sweep in mtk,
and complex_of refuses the same n before calling member.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import CapExceeded, EmptyEdge

# Every sweep over all subsets, and full face enumeration, is refused
# above this many sets.
SWEEP_CAP = 1 << 20


def check_sweep(n: int) -> None:
    """Refuse, with CapExceeded, a sweep over the 2^n subsets of n elements
    above SWEEP_CAP."""
    if (1 << n) > SWEEP_CAP:
        raise CapExceeded(f"2^{n} subsets exceed the sweep cap {SWEEP_CAP}")


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coerce_masks(edges: Iterable[int | Iterable[int]]) -> list[int]:
    return [e if isinstance(e, int) else mask_of(e) for e in edges]


@dataclass(frozen=True)
class Hypergraph:
    """A set of subsets (edges) of the ground set [0, n)."""

    n: int
    edges: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[int | Iterable[int]] = ()):
        masks = _coerce_masks(edges)
        full = (1 << n) - 1
        for e in masks:
            if e & ~full:
                raise ValueError(f"edge {bin(e)} not within ground set of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(set(masks))))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={self.edge_sets()})"

    def edge_sets(self) -> list[list[int]]:
        return [sorted(iter_bits(e)) for e in self.edges]

    def is_uniform(self, k: int) -> bool:
        return all(e.bit_count() == k for e in self.edges)


def _relabel_map(kept_mask: int) -> tuple[dict[int, int], list[int]]:
    """Dense re-index of the kept vertices, ascending order.

    Returns (old->new, new->old).
    """
    new_to_old = list(iter_bits(kept_mask))
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    return old_to_new, new_to_old


def _relabel_mask(mask: int, old_to_new: dict[int, int]) -> int:
    out = 0
    for v in iter_bits(mask):
        out |= 1 << old_to_new[v]
    return out


def induced(h: Hypergraph, u: int) -> tuple[Hypergraph, list[int]]:
    """Subhypergraph on the vertex set u, densely re-indexed.

    Returns the re-indexed hypergraph and the new->old vertex map.
    """
    old_to_new, new_to_old = _relabel_map(u)
    kept = [_relabel_mask(e, old_to_new) for e in h.edges if e & ~u == 0]
    return Hypergraph(len(new_to_old), kept), new_to_old


def contract(h: Hypergraph, x: int) -> tuple[Hypergraph, list[int]]:
    """Contract the vertex set x: keep f \\ x for every edge f not inside x.

    The ground set becomes [0, n) \\ x, densely re-indexed; duplicates
    merge.  Returns the hypergraph and the new->old vertex map.
    """
    keep = ((1 << h.n) - 1) & ~x
    old_to_new, new_to_old = _relabel_map(keep)
    out = [_relabel_mask(e & ~x, old_to_new) for e in h.edges if e & ~x]
    return Hypergraph(len(new_to_old), out), new_to_old


def line_graph(h: Hypergraph) -> Hypergraph:
    """2-uniform hypergraph on E(h); i~j iff edges i and j intersect."""
    if any(e == 0 for e in h.edges):
        raise EmptyEdge("line graph undefined with an empty edge present")
    m = len(h.edges)
    pairs = [
        (1 << i) | (1 << j)
        for i in range(m)
        for j in range(i + 1, m)
        if h.edges[i] & h.edges[j]
    ]
    return Hypergraph(m, pairs)


@dataclass(frozen=True)
class Complex:
    """An abstract simplicial complex stored by its maximal faces.

    The empty set is always a face; a complex with no vertices has
    maximal_faces == (0,).  Membership of S means S is contained in
    some maximal face.
    """

    n: int
    maximal_faces: tuple[int, ...]

    def __init__(self, n: int, faces: Iterable[int | Iterable[int]] = ()):
        # Larger faces first: no face follows one it lies inside.
        masks = set(_coerce_masks(faces))
        maximal = _undominated(masks, lambda f: -f.bit_count(), lambda f, g: f & ~g == 0) or [0]
        full = (1 << n) - 1
        # A face outside [0, n) lies in a maximal face outside it too.
        for f in maximal:
            if f & ~full:
                raise ValueError(f"face {bin(f)} not within ground set of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "maximal_faces", tuple(sorted(maximal)))

    def __repr__(self) -> str:
        sets = [sorted(iter_bits(f)) for f in self.maximal_faces]
        return f"Complex(n={self.n}, maximal_faces={sets})"

    def is_face(self, s: int) -> bool:
        return any(s & ~f == 0 for f in self.maximal_faces)

    def vertices_mask(self) -> int:
        m = 0
        for f in self.maximal_faces:
            m |= f
        return m

    def rank_of(self, s: int) -> int:
        """max |T| over faces T contained in s."""
        return max((f & s).bit_count() for f in self.maximal_faces)

    def rank(self) -> int:
        return max(f.bit_count() for f in self.maximal_faces)

    def faces(self) -> list[int]:
        """All faces, ascending as masks.  Raises CapExceeded above
        SWEEP_CAP faces."""
        seen = {0}
        for f in self.maximal_faces:
            check_sweep(f.bit_count())
            s = f & -f
            while s:  # the non-empty submasks of f, ascending
                seen.add(s)
                if len(seen) > SWEEP_CAP:
                    raise CapExceeded(f"face enumeration beyond cap {SWEEP_CAP}")
                s = (s - f) & f
        return sorted(seen)


def _undominated(items, key, below) -> list:
    """The items below no item kept before them, sorted by key: the one
    prune of dominated items in mtk.  below(a, b) says b dominates a and
    holds when a == b, so of equal items the first is kept; key must
    never put an item after one it lies below."""
    kept: list = []
    for item in sorted(items, key=key):
        for k in kept:
            if below(item, k):
                break
        else:
            kept.append(item)
    return kept


def complex_of(n: int, member) -> Complex:
    """The complex of the subsets s of [0, n) with member(s), by a depth-first
    search from the empty set (the include/extend scheme of Lawler, Lenstra
    and Rinnooy Kan, SIAM J. Comput. 9, 1980).

    member must be down-closed.  Each face s tries s | 1 << v for every v
    above its top element, so member is asked at most once per set, never
    on the empty set, and only on a set whose part below its top element
    is a face.  Every maximal face has no such extension; only these
    leaves go to Complex, which keeps the maximal ones.  Raises
    CapExceeded above SWEEP_CAP subsets, before calling member."""
    check_sweep(n)
    leaves = []
    stack = [0]
    while stack:
        s = stack.pop()
        leaf = True
        for v in range(s.bit_length(), n):
            t = s | 1 << v
            if member(t):
                stack.append(t)
                leaf = False
        if leaf:
            leaves.append(s)
    return Complex(n, leaves)


def min_nonfaces(c: Complex) -> Hypergraph:
    """The containment-minimal subsets of [0, n) that are not faces.

    complex_of's search asks member on every t whose part below its top
    element is a face, so on every minimal non-face; a rejected t is one
    iff t minus each v below its top element is a face too.  Raises
    CapExceeded above SWEEP_CAP subsets, before asking is_face.
    """
    face = c.is_face
    out = []

    def member(t: int) -> bool:
        if face(t):
            return True
        below = t & ~(1 << (t.bit_length() - 1))
        if all(face(t & ~(1 << v)) for v in iter_bits(below)):
            out.append(t)
        return False

    complex_of(c.n, member)
    return Hypergraph(c.n, out)


def independence_complex(h: Hypergraph) -> Complex:
    """Complex of vertex sets containing no edge of h.

    An empty edge makes every set dependent; the result is then the
    void complex {∅}... which the Complex type cannot represent (∅ is
    always a face), so an empty edge raises EmptyEdge.
    """
    edges = h.edges
    if any(e == 0 for e in edges):
        raise EmptyEdge("independence complex undefined with an empty edge")
    return complex_of(h.n, lambda s: all(e & ~s for e in edges))


def matching_complex(h: Hypergraph) -> Complex:
    """Complex of matchings of h, on the ground set E(h)."""
    return independence_complex(line_graph(h))
