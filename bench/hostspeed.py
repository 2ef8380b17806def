"""Host speed, measured by a fixed reference kernel run between ops.

On a shared host the same code runs up to about twice as slowly for
stretches of a second to a minute, depending on what else the host is
doing, and no statistic taken within one run removes that.  A stdlib-only
kernel with the library's mix of work (small objects with __slots__,
integer gcd, Fraction construction, bisect over tuple keys, dict lookups by
str) slows down by nearly the same factor at the same moments.  The
benchmark runs it in short chunks between ops and scales measured times by
CHUNK_S / (the chunks' mean time); on an undisturbed core the scale is
close to 1.  The kernel never touches ietwords, so a change to the library
moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction
from math import gcd

# One chunk's time on an undisturbed core of the 2-core x86-64 VM the
# benchmark was tuned on (Python 3.11.7).
CHUNK_S = 0.006
CHUNK_STEPS = 750


class _Point:
    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        self.a, self.b, self.q = a, b, q


_KEYS = [(Fraction(i, 97), i & 1) for i in range(1, 97)]
_TABLE = {f"k{i}": i for i in range(64)}


def chunk():
    """Run one chunk of the reference kernel; returns its duration in seconds."""
    t0 = time.perf_counter()
    x = _Point(1, 2, 3)
    acc = 0
    for i in range(CHUNK_STEPS):
        g = gcd(x.a * 7 + i, x.q + i)
        x = _Point((x.a * 3 + g) % 1009 + 1, x.b + i, x.q)
        acc += bisect_right(_KEYS, (Fraction(x.a, 1009), 0))
        acc += _TABLE[f"k{i & 63}"]
    return time.perf_counter() - t0


def scale(durations):
    """Factor that turns times measured beside these chunks into reference time."""
    return CHUNK_S * len(durations) / sum(durations)
