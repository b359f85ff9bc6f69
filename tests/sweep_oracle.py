"""The complex oracle that asks member on every subset.

`complex_by_sweep(n, member)` keeps every subset s of [0, n) with
member(s), all 2^n of them asked, and lets `Complex` prune them to the
maximal ones.  Tests check the depth-first search of
`mtk.core.complex_of` against it.
"""

from mtk.core import Complex


def complex_by_sweep(n, member):
    """The complex of the subsets s of [0, n) with member(s)."""
    return Complex(n, [s for s in range(1 << n) if member(s)])
