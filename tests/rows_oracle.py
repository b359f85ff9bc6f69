"""The three row builders that `mtk.polytopes._rank_rows` replaced, kept
as the oracle for it.

`reduced_rows_matroid(m)` keeps the non-trivial flats of one matroid and
its singletons; `system_rows(system)` merges them over the system's
matroids, with the least rank kept per mask, and cuts R(L);
`reduced_rows_complex(c)` keeps the singletons and every S with
rank(S) < |S| that no split S - v, v makes redundant, and cuts Q(C).
Each returns (mask, rank) rows ascending by mask.
"""

from mtk.core import iter_bits


def reduced_rows_matroid(m):
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


def system_rows(system):
    """(mask, rank) rows cutting R(L): every matroid's reduced rows, with
    the least rank kept per mask."""
    merged = {}
    for m in system:
        for mask, r in reduced_rows_matroid(m):
            if mask not in merged or r < merged[mask]:
                merged[mask] = r
    return sorted(merged.items())


def reduced_rows_complex(c):
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
