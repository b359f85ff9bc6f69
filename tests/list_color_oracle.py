"""The list-coloring failure oracle that sweeps every vertex set T.

`failure_by_sweep(m, lists)` minimizes lhs(T) = |T| + sum_c r(F_c - T)
over all 2^n sets T, F_c the vertices whose list holds color c, takes
the first minimizer in ascending mask order and shrinks it one vertex
at a time while lhs stays below n, as `mtk.coloring.matroid_list_color`
does from the least minimizer its exchange-graph search finds.  It
returns None when no T violates the bound; `lhs_function(m, lists)`
is that lhs.  Tests check the search against them.
"""

from mtk.coloring import ListColorFailure
from mtk.core import iter_bits


def lhs_function(m, lists):
    """t -> |t| + sum_c r(F_c - t) for the list system lists on m."""
    fmask = {}
    for v, lst in enumerate(lists):
        for col in set(lst):
            fmask[col] = fmask.get(col, 0) | 1 << v
    return lambda t: t.bit_count() + sum(m.rank(f & ~t) for f in fmask.values())


def failure_by_sweep(m, lists):
    """The ListColorFailure of matroid_list_color(m, lists), or None."""
    lhs_of = lhs_function(m, lists)
    worst = min(range(m.full + 1), key=lhs_of)
    if lhs_of(worst) >= m.n:
        return None
    t = worst
    for v in iter_bits(worst):
        cand = t & ~(1 << v)
        if lhs_of(cand) < m.n:
            t = cand
    return ListColorFailure(t_mask=t, lhs=lhs_of(t), required=m.n)
