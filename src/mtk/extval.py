"""Rationals extended with +infinity and a positive infinitesimal.

The conventions follow the expansion-number arithmetic: 0/inf = 0,
ceil(c/inf) = 1 for c > 0 (so c/inf is kept as a positive
infinitesimal EPS), and c/0 = inf for c > 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

_FIN, _EPS, _INF = 0, 1, 2


class XRat:
    __slots__ = ("kind", "value")

    def __init__(self, kind: int, value: Fraction):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("XRat is immutable")

    @staticmethod
    def of(x) -> "XRat":
        if isinstance(x, XRat):
            return x
        if x == INF:
            return XRat(_INF, Fraction(0))
        return XRat(_FIN, Fraction(x))

    @staticmethod
    def eps() -> "XRat":
        return XRat(_EPS, Fraction(0))

    @staticmethod
    def inf() -> "XRat":
        return XRat(_INF, Fraction(0))

    @staticmethod
    def ratio(numer, denom) -> "XRat":
        """numer/denom with the extended conventions (numer >= 0)."""
        numer = Fraction(numer)
        if denom == INF:
            return XRat(_FIN, Fraction(0)) if numer == 0 else XRat(_EPS, Fraction(0))
        denom = Fraction(denom)
        if denom == 0:
            return XRat(_FIN, Fraction(0)) if numer == 0 else XRat(_INF, Fraction(0))
        return XRat(_FIN, numer / denom)

    # -- ordering ----------------------------------------------------

    def _key(self):
        # EPS sits strictly between 0 and every positive fraction.
        if self.kind == _INF:
            return (2, Fraction(0), 0)
        if self.kind == _EPS:
            return (0, Fraction(0), 1)
        v = self.value
        if v > 0:
            return (1, v, 0)
        return (0, v, 0) if v < 0 else (0, Fraction(0), 0)

    def __eq__(self, other):
        return self._key() == XRat.of(other)._key()

    def __lt__(self, other):
        return self._key() < XRat.of(other)._key()

    def __le__(self, other):
        return self._key() <= XRat.of(other)._key()

    def __gt__(self, other):
        return self._key() > XRat.of(other)._key()

    def __ge__(self, other):
        return self._key() >= XRat.of(other)._key()

    def __hash__(self):
        return hash(self._key())

    # -- arithmetic helpers -----------------------------------------

    def ceil(self):
        """Ceiling as int, or math.inf."""
        if self.kind == _INF:
            return INF
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
            return XRat(_FIN, Fraction(0))
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


def xmax(values) -> XRat:
    """Maximum of an iterable of XRat/Fraction values (at least one)."""
    vals = [XRat.of(v) for v in values]
    if not vals:
        raise ValueError("empty maximum")
    best = vals[0]
    for v in vals[1:]:
        if v > best:
            best = v
    return best

