"""The searches that `mtk.coloring.min_cover`, the maximal faces and the
iterative searches replaced.

`hyper_tau_by_multicover(h, demands)` is the least total of vertex
multiplicities t with t(e) >= demands[e] for every edge e, found by a
branch and bound whose only bound is the incumbent: it raises one
vertex of the first edge still short at a time.  `rainbow_face(c,
subsets)` is the least tuple of picks phi(i) in subsets[i] whose image
is a face of c, or None, found by a depth-first search over the picks
that remembers each (i, image) that failed.  `recursive_min_cover` and
`recursive_hyper_nu_w` are the recursive branch and bounds that
`mtk.coloring.min_cover` and `mtk.polytopes.hyper_nu_w` were before
they took an explicit stack; they recurse once per pick or per edge.
Tests check `mtk.polytopes.hyper_tau_w`, the witness of
`mtk.topology.topological_hall_check`, `min_cover` and `hyper_nu_w`
against them.
"""

from fractions import Fraction

from mtk.core import _undominated, iter_bits, mask_of
from mtk.errors import DomainError, Uncolorable
from mtk.extval import check_weights


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


def recursive_min_cover(options, demand):
    """min_cover's (cost, masks) by the recursive branch and bound."""
    target = mask_of(v for v, d in enumerate(demand) if d > 0)
    kept = _undominated(
        options,
        lambda o: (o[1], -(o[0] & target).bit_count()),
        lambda o, k: o[0] & target & ~k[0] == 0,
    )
    if kept and kept[0][1] < 0:
        mask, cost = kept[0]
        raise DomainError(f"option costs must be non-negative: {mask:#b} costs {cost}")
    by_elem = [[o for o in kept if (o[0] >> v) & 1] for v in range(len(demand))]
    missing = [v for v in iter_bits(target) if not by_elem[v]]
    if missing:
        raise Uncolorable(f"element {missing[-1]} lies in no option")
    best = [max([1, *demand]) * sum(cost for _, cost in kept) + 1, []]
    extra = {v: d - 1 for v, d in enumerate(demand) if d > 1}
    _cover(kept, by_elem, target, extra, set(), 0, [], best)
    return best[0], best[1]


def _cover(kept, by_elem, uncov, extra, barred, spent, chosen, best):
    """Branch and bound for recursive_min_cover; best is [cost, masks],
    improved in place.  uncov holds the elements still demanded, each
    once, and each u in extra extra[u] more times; no option in barred
    is taken in this branch."""
    if uncov == 0:
        if spent < best[0]:
            best[0] = spent
            best[1] = chosen[:]
        return
    left = uncov.bit_count() + sum(extra.values())
    bound = spent + min(
        -(-left * cost // (mask & uncov).bit_count()) for mask, cost in kept if mask & uncov
    )
    if bound >= best[0]:
        return
    v = min(iter_bits(uncov), key=lambda w: len(by_elem[w]))
    for o in sorted(by_elem[v], key=lambda o: (o[1], -(o[0] & uncov).bit_count())):
        if o in barred:
            continue
        mask, cost = o
        again = mask_of(u for u, e in extra.items() if e and (mask >> u) & 1)
        rest = {u: e - ((again >> u) & 1) for u, e in extra.items()}
        chosen.append(mask)
        _cover(kept, by_elem, uncov & ~mask | again, rest, barred, spent + cost, chosen, best)
        chosen.pop()
        barred = barred | {o}


def recursive_hyper_nu_w(h, w):
    """hyper_nu_w by the recursive branch and bound, leaving each edge
    out before taking it."""
    w = check_weights(w, len(h.edges))
    best = [Fraction(0)]
    _heaviest_matching(h.edges, w, 0, 0, Fraction(0), best)
    return best[0]


def _heaviest_matching(edges, w, i, used, val, best):
    """Branch and bound for recursive_hyper_nu_w; best[0] is the incumbent."""
    if val > best[0]:
        best[0] = val
    if i == len(edges):
        return
    rest = sum((w[j] for j in range(i, len(edges)) if w[j] > 0), Fraction(0))
    if val + rest <= best[0]:
        return
    _heaviest_matching(edges, w, i + 1, used, val, best)
    if edges[i] & used == 0:
        _heaviest_matching(edges, w, i + 1, used | edges[i], val + w[i], best)
