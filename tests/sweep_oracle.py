"""The oracles that ask about every subset.

`complex_by_sweep(n, member)` keeps every subset s of [0, n) with
member(s), all 2^n of them asked, and lets `Complex` prune them to the
maximal ones.  `min_nonfaces_by_sweep(c)` keeps every subset that is no
face while each of its one-element-smaller subsets is one.  Tests check
the depth-first search of `mtk.core.complex_of`, and `min_nonfaces` built
on it, against them.
"""

from mtk.core import Complex, Hypergraph, iter_bits


def complex_by_sweep(n, member):
    """The complex of the subsets s of [0, n) with member(s)."""
    return Complex(n, [s for s in range(1 << n) if member(s)])


def min_nonfaces_by_sweep(c):
    """The containment-minimal non-faces of c, from a sweep of all 2^n
    subsets."""
    face = c.is_face
    return Hypergraph(
        c.n,
        [
            s
            for s in range(1, 1 << c.n)
            if not face(s) and all(face(s & ~(1 << v)) for v in iter_bits(s))
        ],
    )
