"""The two values of mtk that are not rationals, EPS and INF, the one
ratio sweep, and the one check of a weight vector.

Every finite value mtk computes is a plain int or Fraction.  The
expansion-number arithmetic adds two more: c/0 = INF for c > 0, and
c/inf is the positive infinitesimal EPS, with ceil(EPS) = 1 (and
0/inf = 0).  They are the only XRat objects; test for infinity with
`x is INF`, and take ceilings with math.ceil, which gives 1 on EPS and
INF on INF.

max_ratio is the one sweep for max over S of h(S)/den(S): the matroid
expansion number delta_rank, the expansion numbers of a complex, and
the gauges (hence membership) of the rank polytopes Q and R all go
through it.

check_weights checks every weight vector or polytope point a public
function takes: one non-negative int or Fraction per ground element (or
per edge), returned as a tuple of Fractions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import check_sweep
from .errors import DomainError


def _key_of(x):
    # EPS sits strictly between 0 and every positive rational.
    if isinstance(x, XRat):
        return x._key
    if isinstance(x, (int, Fraction)):
        return (1, x, 0) if x > 0 else (0, x, 0)
    return None


class XRat:
    """EPS or INF: each compares with ints, Fractions and the other;
    anything else is NotImplemented."""

    __slots__ = ("_key", "_text")

    def __init__(self, key: tuple, text: str):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_text", text)

    def __setattr__(self, *a):
        raise AttributeError("XRat is immutable")

    def __eq__(self, other):
        k = _key_of(other)
        return NotImplemented if k is None else self._key == k

    def __lt__(self, other):
        k = _key_of(other)
        return NotImplemented if k is None else self._key < k

    def __le__(self, other):
        k = _key_of(other)
        return NotImplemented if k is None else self._key <= k

    def __gt__(self, other):
        k = _key_of(other)
        return NotImplemented if k is None else self._key > k

    def __ge__(self, other):
        k = _key_of(other)
        return NotImplemented if k is None else self._key >= k

    def __hash__(self):
        return hash(self._key)

    def __ceil__(self):
        return 1 if self is EPS else self

    def __str__(self):
        return self._text

    def __repr__(self):
        return f"XRat({self})"


EPS = XRat((0, 0, 1), "0+")
INF = XRat((2, 0, 0), "inf")


def check_weights(h: Sequence, n: int) -> tuple[Fraction, ...]:
    """h as a tuple of n Fractions, after refusing with DomainError a
    length other than n, an entry that is not an int or a Fraction (a
    float is rarely the rational it was written as; bools are refused
    too), and a negative entry."""
    if len(h) != n:
        raise DomainError(f"weight vector length mismatch: {n} entries needed, {len(h)} given")
    for i, x in enumerate(h):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise DomainError(f"weights must be ints or Fractions: entry {i} is {x!r}")
        if x < 0:
            raise DomainError(f"weights must be non-negative: entry {i} is {x}")
    return tuple(x if type(x) is Fraction else Fraction(x) for x in h)


def max_ratio(den, universe: int, h=None) -> Fraction | XRat:
    """max over non-empty S within the mask universe of h(S)/den(S).

    den(S) is a non-negative int or INF; h gives a non-negative int or
    Fraction weight per element, and None counts |S|.  0/d = 0,
    c/INF = EPS and c/0 = INF; the sweep returns INF at the first S with
    h(S) > 0 = den(S), and never calls den on an S with h(S) = 0.
    Subset sums are built incrementally over the submasks, as integers
    over the weights' common denominator.  Raises CapExceeded above
    SWEEP_CAP subsets, before calling den.
    """
    check_sweep(universe.bit_count())
    scale = 1
    if h is not None:
        scale = math.lcm(*(v.denominator for v in h))
        weights = [v.numerator * (scale // v.denominator) for v in h]
        sums = [0] * (universe + 1)
    best_num, best_den, eps = 0, 1, False
    s = universe & -universe
    while s:
        if h is None:
            num = s.bit_count()
        else:
            low = s & -s
            num = sums[s] = sums[s ^ low] + weights[low.bit_length() - 1]
        if num:
            d = den(s)
            if d is INF:
                eps = True
            elif d == 0:
                return INF
            elif num * best_den > best_num * d:
                best_num, best_den = num, d
        s = (s - universe) & universe
    if best_num:
        return Fraction(best_num, best_den * scale)
    return EPS if eps else Fraction(0)
