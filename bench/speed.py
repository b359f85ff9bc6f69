"""Host-speed reference: a fixed pure-Python kernel timed between rounds.

On a shared host the speed of one vCPU drifts by tens of percent within
minutes: one fixed `queries` round, repeated for 5 minutes, had 30 s
medians from 0.28 s to 0.53 s.  The drift hits this kernel and mtk alike
(their 30 s medians moved together to within 4%), so the benchmark times
the kernel every half second of rounds and scales the rounds' times by
`REFERENCE_S / kernel time`.  A reported time then reads as seconds at
the reference speed.  The kernel calls no mtk code, so a change to mtk
moves the scaled times exactly as much as the raw ones.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# The kernel's time on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest
# under CPython 3.11.  Any constant would do: it cancels when two runs
# are compared.
REFERENCE_S = 0.045


def kernel() -> tuple:
    """Exact-rational arithmetic, frozenset keys and bitmask sets: the
    operations mtk's LP, complexes and rank sweeps are made of."""
    rng = random.Random(7)
    acc = Fraction(0)
    counts: dict = {}
    for _ in range(1500):
        a = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        acc += a * a - acc / 3
        acc = Fraction(acc.numerator % 10007, acc.denominator % 10007 + 1)
        key = frozenset(rng.sample(range(20), 5))
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    x = 12345
    for _ in range(30000):
        x = (x * 1103515245 + 12345) & 0xFFFFF
        m = x & (x >> 3)
        seen.add(m)
        counts[m & 0xFFF] = counts.get(m & 0xFFF, 0) + bin(m).count("1")
    return acc, len(seen), len(counts)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """The factor from raw seconds to seconds at the reference speed, for
    work timed between two kernel runs."""
    return REFERENCE_S / ((before + after) / 2)
