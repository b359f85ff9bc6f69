"""The two searches that `mtk.coloring.min_cover` and the maximal faces
replaced.

`hyper_tau_by_multicover(h, demands)` is the least total of vertex
multiplicities t with t(e) >= demands[e] for every edge e, found by a
branch and bound whose only bound is the incumbent: it raises one
vertex of the first edge still short at a time.  `rainbow_face(c,
subsets)` is the least tuple of picks phi(i) in subsets[i] whose image
is a face of c, or None, found by a depth-first search over the picks
that remembers each (i, image) that failed.  Tests check
`mtk.polytopes.hyper_tau_w` and the witness of
`mtk.topology.topological_hall_check` against them.
"""

from mtk.core import iter_bits


def hyper_tau_by_multicover(h, demands):
    """min sum t over t >= 0 on the vertices with t(e) >= demands[e]."""
    # sum(demands) is attained by one vertex of each edge, so one more
    # is an incumbent every optimum beats.
    best = [sum(demands) + 1]
    _smallest_multicover(h.edges, demands, [0] * h.n, 0, best)
    return best[0]


def _smallest_multicover(edges, demands, t, spent, best):
    """Branch and bound over the multiplicities t; best[0] is the incumbent."""
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


def rainbow_face(c, subsets):
    """The least picks phi(i) in subsets[i] whose image is a face of c."""
    return _rainbow_face(c, subsets, set(), 0, 0, ())


def _rainbow_face(c, subsets, seen, i, image, picks):
    """Picks for subsets[i:] that extend `picks`, whose vertices make up
    `image`, to a rainbow face; seen holds the (i, image) already failed."""
    if i == len(subsets):
        return picks
    key = (i, image)
    if key in seen:
        return None
    seen.add(key)
    for v in iter_bits(subsets[i]):
        nxt = image | (1 << v)
        if c.is_face(nxt):
            got = _rainbow_face(c, subsets, seen, i + 1, nxt, picks + (v,))
            if got is not None:
                return got
    return None
