"""A list-system oracle that walks every canonical system by masks.

`systems_by_mask(n, p, budget)` lists every multiset {(F_c, mult)}
covering each of n vertices exactly p times, trying masks in ascending
order with no bound on the number of colors, and raises CapExceeded past
`budget` nodes; `first_uncolorable` searches those systems for one with
no b-fold coloring.  Tests check the Hall-bounded generator and search
of `mtk.coloring` against them.
"""

from mtk.coloring import _b_fold_colorable
from mtk.core import iter_bits
from mtk.errors import CapExceeded


def systems_by_mask(n, p, budget=10**7):
    """Every canonical size-p list system on n vertices, masks ascending."""
    yield from _extend((1 << n) - 1, [p] * n, [budget], 1, ())


def _extend(full, out_deg, left, mask, chosen):
    """The systems extending `chosen` by masks from `mask` up to full;
    out_deg[v] is the coverage vertex v still needs and left[0] the
    nodes the budget allows."""
    left[0] -= 1
    if left[0] < 0:
        raise CapExceeded("list-system enumeration beyond budget")
    if not any(out_deg):
        yield chosen
        return
    if mask > full:
        return
    maxmult = 0
    if all(out_deg[v] for v in iter_bits(mask)):
        maxmult = min(out_deg[v] for v in iter_bits(mask))
    yield from _extend(full, out_deg, left, mask + 1, chosen)
    for mult in range(1, maxmult + 1):
        for v in iter_bits(mask):
            out_deg[v] -= 1
        yield from _extend(full, out_deg, left, mask + 1, chosen + ((mask, mult),))
    for v in iter_bits(mask):
        out_deg[v] += maxmult


def first_uncolorable(c, p, b, budget=10**7):
    """The first system of systems_by_mask(c.n, p, budget) with no
    b-fold coloring, or None."""
    for system in systems_by_mask(c.n, p, budget):
        if not _b_fold_colorable(c, system, b):
            return system
    return None
