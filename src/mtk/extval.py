"""Rationals extended with +infinity and a positive infinitesimal, and
the one ratio sweep.

The conventions follow the expansion-number arithmetic: 0/inf = 0,
ceil(c/inf) = 1 for c > 0 (so c/inf is kept as a positive
infinitesimal EPS), and c/0 = inf for c > 0.  INF is the only infinite
value mtk builds; test for it with `x is INF`.

max_ratio is the one sweep for max over S of h(S)/den(S): the root
bound of chi, the matroid expansion number delta_rank, the expansion
numbers of a complex, and the gauges (hence membership) of the rank
polytopes Q and R all go through it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import check_sweep

_FIN, _EPS, _INF = 0, 1, 2


def _finite_key(v):
    # EPS sits strictly between 0 and every positive fraction.
    return (1, v, 0) if v > 0 else (0, v, 0)


class XRat:
    __slots__ = ("kind", "value", "_key")

    def __init__(self, kind: int, value):
        value = Fraction(value)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        if kind == _INF:
            key = (2, 0, 0)
        elif kind == _EPS:
            key = (0, 0, 1)
        else:
            key = _finite_key(value)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, *a):
        raise AttributeError("XRat is immutable")

    @staticmethod
    def of(x) -> "XRat":
        if isinstance(x, XRat):
            return x
        return XRat(_FIN, x)

    @staticmethod
    def eps() -> "XRat":
        return XRat(_EPS, 0)

    # -- ordering ----------------------------------------------------
    # Finite values compare and hash like the int or Fraction they hold;
    # anything that is not a rational is NotImplemented.

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
        return hash(self.value) if self.kind == _FIN else hash(self._key)

    # -- arithmetic helpers -----------------------------------------

    def ceil(self):
        """Ceiling as int, or INF."""
        if self.kind == _INF:
            return self
        if self.kind == _EPS:
            return 1
        return -((-self.value.numerator) // self.value.denominator)

    def times(self, c) -> "XRat":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scaling by a negative constant is unsupported")
        if self.kind == _FIN:
            return XRat(_FIN, self.value * c)
        if c == 0:
            return XRat(_FIN, 0)
        return self

    def finite_value(self) -> Fraction:
        if self.kind != _FIN:
            raise ValueError(f"not a finite value: {self}")
        return self.value

    def __str__(self):
        if self.kind == _INF:
            return "inf"
        if self.kind == _EPS:
            return "0+"
        return str(self.value)

    def __repr__(self):
        return f"XRat({self})"


def _key_of(x):
    if isinstance(x, XRat):
        return x._key
    if isinstance(x, (int, Fraction)):
        return _finite_key(x)
    return None


INF = XRat(_INF, 0)


def max_ratio(den, universe: int, h=None) -> XRat:
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
        return XRat(_FIN, Fraction(best_num, best_den * scale))
    return XRat.eps() if eps else XRat(_FIN, 0)
