"""Matroid oracles, derived structure, and matroid intersection.

Every matroid lives on the ground set [0, n).  Derived quantities all
route through a single memoized rank oracle per instance.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import Complex, check_sweep, complex_of, iter_bits, mask_of
from .errors import CapExceeded

# check_matroid_axioms is refused above this ground-set size.
AXIOMS_MAX_N = 12


class Matroid:
    """Base class: subclasses implement _rank(mask)."""

    kind = "abstract"

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n) - 1
        self._rank_memo: dict[int, int] = {}
        self._flats_memo: list[int] | None = None

    # -- oracle ------------------------------------------------------

    def _rank(self, s: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def rank(self, s: int) -> int:
        if s & ~self.full:
            raise ValueError("subset outside ground set")
        memo = self._rank_memo
        r = memo.get(s)
        if r is None:
            r = self._rank(s)
            memo[s] = r
        return r

    def is_independent(self, s: int) -> bool:
        return self.rank(s) == s.bit_count()

    def full_rank(self) -> int:
        return self.rank(self.full)

    def span(self, a: int) -> int:
        """a together with every x whose addition leaves the rank fixed."""
        ra = self.rank(a)
        out = a
        for x in iter_bits(self.full & ~a):
            if self.rank(a | (1 << x)) == ra:
                out |= 1 << x
        return out

    def loops(self) -> int:
        return self.span(0)

    def coloops(self) -> int:
        """Elements in every base: x with rank(V - x) < rank(V)."""
        r = self.full_rank()
        out = 0
        for x in iter_bits(self.full):
            if self.rank(self.full & ~(1 << x)) < r:
                out |= 1 << x
        return out

    # -- enumeration -------------------------------------------------

    def to_complex(self) -> Complex:
        return complex_of(self.n, self.is_independent)

    def flats(self) -> list[int]:
        """All closed sets, by one span computation per subset."""
        if self._flats_memo is None:
            check_sweep(self.n)
            self._flats_memo = sorted({self.span(s) for s in range(1 << self.n)})
        return self._flats_memo


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, r: int, n: int):
        if not 0 <= r <= n:
            raise ValueError("uniform rank out of range")
        super().__init__(n)
        self.r = r

    def _rank(self, s: int) -> int:
        return min(s.bit_count(), self.r)

    def __repr__(self):
        return f"UniformMatroid(r={self.r}, n={self.n})"


class GenPartitionMatroid(Matroid):
    """Disjoint parts covering [0, n), each with a cap on intersection size."""

    kind = "gen_partition"

    def __init__(self, n: int, parts: Iterable[int | Iterable[int]], caps: Iterable[int]):
        super().__init__(n)
        masks = [p if isinstance(p, int) else mask_of(p) for p in parts]
        caps = list(caps)
        if len(masks) != len(caps):
            raise ValueError("parts/caps length mismatch")
        union = 0
        for p in masks:
            if union & p:
                raise ValueError("parts overlap")
            union |= p
        if union != self.full:
            raise ValueError("parts must cover the ground set")
        for p, c in zip(masks, caps):
            if not 0 <= c <= p.bit_count():
                raise ValueError("cap out of range for its part")
        self.parts = tuple(masks)
        self.caps = tuple(caps)

    def _rank(self, s: int) -> int:
        return sum(
            min((s & p).bit_count(), c) for p, c in zip(self.parts, self.caps)
        )

    def __repr__(self):
        ps = [sorted(iter_bits(p)) for p in self.parts]
        return f"GenPartitionMatroid(n={self.n}, parts={ps}, caps={list(self.caps)})"


class GraphicMatroid(Matroid):
    """Elements are the edges of a multigraph; independent = acyclic."""

    kind = "graphic"

    def __init__(self, vertices: int, edge_list: Iterable[tuple[int, int]]):
        edge_list = [tuple(e) for e in edge_list]
        super().__init__(len(edge_list))
        for u, v in edge_list:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError("edge endpoint out of range")
        self.vertices = vertices
        self.edge_list = tuple(edge_list)

    def _rank(self, s: int) -> int:
        parent = list(range(self.vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for i in iter_bits(s):
            u, v = self.edge_list[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def __repr__(self):
        return f"GraphicMatroid(vertices={self.vertices}, edges={list(self.edge_list)})"


class ExplicitMatroid(Matroid):
    """Given by its independent sets; the axioms are validated eagerly."""

    kind = "explicit"

    def __init__(self, complex_: Complex):
        super().__init__(complex_.n)
        if not check_matroid_axioms(complex_):
            raise ValueError("explicit family fails the matroid axioms")
        self.complex = complex_

    def _rank(self, s: int) -> int:
        return self.complex.rank_of(s)

    def __repr__(self):
        return f"ExplicitMatroid({self.complex!r})"


class DualMatroid(Matroid):
    kind = "dual"

    def __init__(self, inner: Matroid):
        super().__init__(inner.n)
        self.inner = inner

    def _rank(self, s: int) -> int:
        return (
            s.bit_count()
            + self.inner.rank(self.full & ~s)
            - self.inner.full_rank()
        )

    def __repr__(self):
        return f"DualMatroid({self.inner!r})"


def check_matroid_axioms(c: Complex) -> bool:
    """True iff c is a matroid: its maximal faces pass basis exchange."""
    if c.n > AXIOMS_MAX_N:
        raise CapExceeded(f"axiom check limited to n <= {AXIOMS_MAX_N}")
    return _is_basis_family(set(c.maximal_faces))


def _is_basis_family(bases: set[int]) -> bool:
    """Basis exchange: for B1, B2 and x in B1-B2 some B1-x+y, y in B2-B1,
    is in bases.

    On an antichain, such as the maximal faces of a complex, exchange
    alone forces equal sizes, so the family is the bases of a matroid.
    """
    for b1 in bases:
        for b2 in bases:
            out, into = b1 & ~b2, b2 & ~b1  # both 0 when b1 == b2
            while out:  # x, then y, run over single bits, lowest first
                x = out & -out
                out ^= x
                left = into
                while left:
                    y = left & -left
                    if (b1 ^ x) | y in bases:
                        break
                    left ^= y
                else:
                    return False
    return True


class MatroidSystem:
    """An ordered k-tuple of matroids sharing one ground set."""

    def __init__(self, matroids: Iterable[Matroid]):
        ms = list(matroids)
        if not ms:
            raise ValueError("a system needs at least one matroid")
        n = ms[0].n
        if any(m.n != n for m in ms):
            raise ValueError("matroids must share the ground-set size")
        self.matroids = tuple(ms)
        self.n = n
        self.k = len(ms)
        self._complex_memo: Complex | None = None

    def __iter__(self):
        return iter(self.matroids)

    def __len__(self):
        return self.k

    def intersection_complex(self) -> Complex:
        """The common independent sets, built once per system by the face
        search of complex_of."""
        if self._complex_memo is None:
            ms = self.matroids
            self._complex_memo = complex_of(
                self.n, lambda s: all(m.is_independent(s) for m in ms)
            )
        return self._complex_memo


def max_common_independent(m1: Matroid, m2: Matroid) -> int:
    """A maximum-cardinality common independent set, as a mask: augment
    along shortest paths of the exchange graph until _exchange_search
    finds none."""
    if m1.n != m2.n:
        raise ValueError("ground sets differ")
    cur = 0
    while True:
        found, path = _exchange_search(m1, m2, cur)
        if not found:
            return cur
        cur ^= path


def _exchange_search(m1: Matroid, m2: Matroid, cur: int) -> tuple[bool, int]:
    """Breadth-first search of the exchange graph of the common
    independent set cur, backward from the sinks {y : cur + y in m2}.

    For x in cur and y outside it the arc is x -> y when cur - x + y is
    independent in m1 and y -> x when it is in m2.  Returns (True, P),
    P a shortest path from a source {y : cur + y in m1} to a sink, so
    cur ^ P is a common independent set one larger.  Else cur is
    maximum and it returns (False, U), U the elements that reach a sink:
    U lies in every minimizer A of r1(A) + r2(E - A) and attains |cur|
    (Edmonds), so it is the least one.
    """
    outside = m1.full & ~cur
    order = [y for y in iter_bits(outside) if m2.is_independent(cur | (1 << y))]
    succ: dict[int, int | None] = dict.fromkeys(order)  # next step to a sink
    for node in order:  # order grows as the search reaches new elements
        nb = 1 << node
        if cur & nb:  # arcs y -> node
            m, ends = m2, outside
        elif m1.is_independent(cur | nb):  # a source
            path = 0
            step: int | None = node
            while step is not None:
                path |= 1 << step
                step = succ[step]
            return True, path
        else:  # arcs x -> node
            m, ends = m1, cur
        # either way cur ^ nb ^ (1 << p) is cur - x + y
        preds = [
            p for p in iter_bits(ends)
            if p not in succ and m.is_independent(cur ^ nb ^ (1 << p))
        ]
        succ.update(dict.fromkeys(preds, node))
        order.extend(preds)
    return False, mask_of(succ)
