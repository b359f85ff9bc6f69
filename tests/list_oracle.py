"""A list-system oracle that walks every canonical system by masks.

`systems_by_mask(n, p, budget)` lists every multiset {(F_c, mult)}
covering each of n vertices exactly p times, trying masks in ascending
order with no bound on the number of colors, and raises CapExceeded past
`budget` nodes; `first_uncolorable` searches those systems for one with
no b-fold coloring.  `pick_colorable(c, system, b)` is the recursive
b-fold search that the face-table search of `mtk.coloring` replaced: it
asks `Complex.is_face` at every pick and keeps a set of tried classes
per group.  Tests check the Hall-bounded generator and search of
`mtk.coloring` against them.
"""

from mtk.coloring import _b_fold_colorable, _face_table
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
    face = _face_table(c)
    for system in systems_by_mask(c.n, p, budget):
        if not _b_fold_colorable(face, system, b):
            return system
    return None


def pick_colorable(c, system, b):
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


def _pick(c, groups, classes, b, v, g, i, left):
    """Give v its remaining `left` instances, from (g, i) onwards, and
    every later vertex its b; classes[g][i] is instance (g, i)'s class."""
    if left == 0:
        return v + 1 == c.n or _pick(c, groups, classes, b, v + 1, 0, 0, b)
    bit = 1 << v
    for gi in range(g, len(groups)):
        if not (groups[gi] >> v) & 1:
            continue
        inst = classes[gi]
        tried = set()
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
