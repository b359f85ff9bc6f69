"""Ground sets, subset masks, hypergraphs, and simplicial complexes.

Subsets of the ground set [0, n) are stored as integer bitmasks
(element i is present iff bit i is set).  All values are immutable and
every operation is pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import CapExceeded, EmptyEdge

# Full face enumeration is refused above this many faces.
FACE_CAP = 1 << 20


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


def bit_count(mask: int) -> int:
    return mask.bit_count()


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _coerce_masks(edges: Iterable[int | Iterable[int]]) -> list[int]:
    out = []
    for e in edges:
        out.append(e if isinstance(e, int) else mask_of(e))
    return out


class Hypergraph:
    """A set of subsets (edges) of the ground set [0, n)."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[int | Iterable[int]] = ()):
        masks = _coerce_masks(edges)
        full = (1 << n) - 1
        for e in masks:
            if e & ~full:
                raise ValueError(f"edge {bin(e)} not within ground set of size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(set(masks))))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        sets = [sorted(iter_bits(e)) for e in self.edges]
        return f"Hypergraph(n={self.n}, edges={sets})"

    def edge_sets(self) -> list[list[int]]:
        return [sorted(iter_bits(e)) for e in self.edges]

    def is_uniform(self, k: int) -> bool:
        return all(bit_count(e) == k for e in self.edges)

    def degree(self, v: int) -> int:
        b = 1 << v
        return sum(1 for e in self.edges if e & b)


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


class Complex:
    """An abstract simplicial complex stored by its maximal faces.

    The empty set is always a face; a complex with no vertices has
    maximal_faces == (0,).  Membership of S means S is contained in
    some maximal face.
    """

    __slots__ = ("n", "maximal_faces")

    def __init__(self, n: int, faces: Iterable[int | Iterable[int]] = ()):
        masks = _coerce_masks(faces)
        full = (1 << n) - 1
        for f in masks:
            if f & ~full:
                raise ValueError(f"face {bin(f)} not within ground set of size {n}")
        maximal = _antichain_max(masks)
        if not maximal:
            maximal = [0]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "maximal_faces", tuple(sorted(maximal)))

    def __setattr__(self, *a):
        raise AttributeError("Complex is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Complex)
            and self.n == other.n
            and self.maximal_faces == other.maximal_faces
        )

    def __hash__(self) -> int:
        return hash((self.n, self.maximal_faces))

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
        return max(bit_count(f & s) for f in self.maximal_faces)

    def rank(self) -> int:
        return max(bit_count(f) for f in self.maximal_faces)

    def dim(self) -> int:
        """Dimension: largest face size minus one (-1 for the void point)."""
        return self.rank() - 1

    def faces(self, cap: int = FACE_CAP) -> list[int]:
        """All faces, ascending as masks.  Raises CapExceeded if too many."""
        seen = {0}
        for f in self.maximal_faces:
            if (1 << bit_count(f)) > cap:
                raise CapExceeded(f"face enumeration beyond cap {cap}")
            for sub in iter_submasks(f):
                seen.add(sub)
                if len(seen) > cap:
                    raise CapExceeded(f"face enumeration beyond cap {cap}")
        return sorted(seen)

    def induced(self, s: int) -> tuple["Complex", list[int]]:
        """Induced subcomplex on s, densely re-indexed; new->old map returned."""
        old_to_new, new_to_old = _relabel_map(s)
        faces = [_relabel_mask(f & s, old_to_new) for f in self.maximal_faces]
        return Complex(len(new_to_old), faces), new_to_old

    def restriction(self, s: int) -> "Complex":
        """Induced subcomplex on s, keeping the original indexing and n."""
        return Complex(self.n, [f & s for f in self.maximal_faces])


def _antichain_max(masks: list[int]) -> list[int]:
    """Containment-maximal elements of the given list."""
    uniq = sorted(set(masks), key=bit_count, reverse=True)
    out: list[int] = []
    for m in uniq:
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return out


def _antichain_min(masks: list[int]) -> list[int]:
    """Containment-minimal elements of the given list."""
    uniq = sorted(set(masks), key=bit_count)
    out: list[int] = []
    for m in uniq:
        if not any(kept & ~m == 0 for kept in out):
            out.append(m)
    return out


def min_nonfaces(c: Complex) -> Hypergraph:
    """The containment-minimal subsets of [0, n) that are not faces.

    A non-face is minimal iff all its one-element-smaller subsets are
    faces, so a single sweep over all subsets suffices.
    """
    if (1 << c.n) > FACE_CAP:
        raise CapExceeded("ground set too large for non-face enumeration")
    out = []
    for s in range(1, 1 << c.n):
        if c.is_face(s):
            continue
        minimal = True
        for v in iter_bits(s):
            if not c.is_face(s & ~(1 << v)):
                minimal = False
                break
        if minimal:
            out.append(s)
    return Hypergraph(c.n, out)


def join(c: Complex, d: Complex) -> Complex:
    """Join of two complexes; d's ground set is shifted up by c.n."""
    faces = [a | (b << c.n) for a in c.maximal_faces for b in d.maximal_faces]
    return Complex(c.n + d.n, faces)


def independence_complex(h: Hypergraph) -> Complex:
    """Complex of vertex sets containing no edge of h.

    An empty edge makes every set dependent; the result is then the
    void complex {∅}... which the Complex type cannot represent (∅ is
    always a face), so an empty edge raises EmptyEdge.
    """
    if any(e == 0 for e in h.edges):
        raise EmptyEdge("independence complex undefined with an empty edge")
    if (1 << h.n) > FACE_CAP:
        raise CapExceeded("ground set too large for independence enumeration")
    ind = []
    for s in range(1 << h.n):
        if not any(e & ~s == 0 for e in h.edges):
            ind.append(s)
    return Complex(h.n, _antichain_max(ind))


def matching_complex(h: Hypergraph) -> Complex:
    """Complex of matchings of h, on the ground set E(h)."""
    return independence_complex(line_graph(h))
