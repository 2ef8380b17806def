"""Seeded random instances and a few named ones.

Everything draws from an explicit random.Random so identical seeds give
identical instances on any platform.  Endpoints are exact by construction:
rationals with small denominators plus golden-ratio combinations for the
quadratic contexts — never floats.  Both seeded map generators draw every
piece by one rule, _piece, on a grid of 16 steps or of steps 1/q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exactnum import ExactScalar, make_scalar, mod1
from .intervalsets import AT, BoundarySet, Component, interval, key
from .intervalmap import (
    IET,
    AffinePiece,
    HalfOpenInterval,
    PiecewiseMap,
    iet_to_map,
    rotation,
)
from .jsonio import InstanceSpec
from .subdivision import Subdivision


def golden_alpha():
    """(sqrt(5) - 1) / 2, the golden rotation angle."""
    return make_scalar(-1, 2, 1, 2, 5)


def golden_rotation():
    return rotation(golden_alpha())


def fibonacci_partition():
    """The two-letter partition whose golden-rotation coding is Fibonacci.

    The letter "1" colors [0, 1-alpha) and "0" colors [1-alpha, 1); with
    start point alpha this orients the letters so the coded word matches
    the substitution 0 -> 01, 1 -> 0 read from "0".
    """
    one = ExactScalar.one(5)
    cut = one - golden_alpha()
    return Subdivision({"1": interval(ExactScalar.zero(5), cut), "0": interval(cut, one)})


def fibonacci_instance(length):
    """A ready-to-run instance whose coding is the Fibonacci word prefix."""
    return InstanceSpec(5, golden_rotation(), fibonacci_partition(),
                        golden_alpha(), length)


@cache
def _golden_points():
    """The 12 points after 0 on its golden-rotation orbit, all in (0, 1)."""
    points = [golden_alpha()]
    while len(points) < 12:
        points.append(mod1(points[-1] + points[0]))
    return tuple(points)


def _point_pool(rng, d):
    """Sorted exact points in (0, 1) to draw cuts from."""
    points = set()
    for _ in range(24):
        den = rng.randint(2, 64)
        num = rng.randint(1, den - 1)
        points.add(ExactScalar.from_rational(Fraction(num, den), d))
    if d == 5:
        points.update(_golden_points())
    return sorted(points, key=lambda p: key(p, AT))


def _cuts(rng, d, count):
    pool = _point_pool(rng, d)
    if len(pool) < count:
        raise RuntimeError("point pool too small")
    return sorted(rng.sample(pool, count))


def _intervals_from_cuts(cuts, d):
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    bounds = [zero, *cuts, one]
    return list(zip(bounds, bounds[1:]))


def _piece(rng, lo, hi, steps):
    """A piece on [lo, hi) with a random slope, then an intercept c drawn in
    steps of slack / steps, slack = 1 + lo - hi, so that its image lies in
    [0, 1): c in [-lo, 1 - hi] for slope +1, and c in [hi, 1 + lo) for slope
    -1, whose image's top end c - lo is attained and must stay below 1."""
    slope = rng.choice((1, -1))
    slack = 1 + lo - hi
    if slope == 1:
        c = -lo + slack * Fraction(rng.randint(0, steps), steps)
    else:
        c = hi + slack * Fraction(rng.randint(0, steps - 1), steps)
    return AffinePiece(HalfOpenInterval(lo, hi), slope, c)


def random_piecewise_map(rng, d=5, max_pieces=6):
    """A valid (not necessarily bijective) map with slopes in {+1, -1}."""
    k = rng.randint(2, max_pieces)
    cells = _intervals_from_cuts(_cuts(rng, d, k - 1), d)
    return PiecewiseMap(_piece(rng, lo, hi, 16) for lo, hi in cells).require_valid()


def random_iet(rng, d=5):
    k = rng.randint(2, 5)
    cuts = _cuts(rng, d, k - 1)
    lengths = tuple(hi - lo for lo, hi in _intervals_from_cuts(cuts, d))
    permutation = list(range(k))
    rng.shuffle(permutation)
    return IET(lengths, tuple(permutation))


def random_subdivision(rng, d=5):
    colors = [chr(ord("A") + i) for i in range(rng.randint(2, 5))]
    labels = []
    for color in colors:
        labels.extend([color] * rng.randint(1, 4))
    for _ in range(40):
        rng.shuffle(labels)
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    segments = _intervals_from_cuts(_cuts(rng, d, len(labels) - 1), d)
    return _labelled_subdivision(rng, segments, labels)


def _labelled_subdivision(rng, segments, labels):
    """Color segment i with labels[i], drawing the endpoint flags from rng."""
    # default [lo, hi) everywhere; sometimes hand a boundary point to the
    # left segment instead, to exercise the endpoint flags
    flags = [[True, False] for _ in segments]
    for i in range(len(segments) - 1):
        if rng.random() < 0.25:
            flags[i][1] = True       # left segment takes the point
            flags[i + 1][0] = False
    classes = {}
    for (lo, hi), (lo_in, hi_in), label in zip(segments, flags, labels):
        classes.setdefault(label, []).append(Component(lo, lo_in, hi, hi_in))
    return Subdivision({c: BoundarySet(comps) for c, comps in classes.items()})


def random_point(rng, d=5):
    return rng.choice([ExactScalar.zero(d), *_point_pool(rng, d)])


def random_instance(rng, d=5):
    """(map, subdivision, x0) with mixed rational/quadratic endpoints."""
    return (
        random_piecewise_map(rng, d),
        random_subdivision(rng, d),
        random_point(rng, d),
    )


def random_translation_instance(rng, d=5):
    return (
        iet_to_map(random_iet(rng, d)),
        random_subdivision(rng, d),
        random_point(rng, d),
    )


def random_rational_instance(rng):
    """All endpoints and intercepts on one grid of denominator q <= 24.

    Returns (map, subdivision, x0, q).  Keeping every datum a multiple of
    1/q means a scan over the half-grid 1/(2q) sees a point of every
    nonempty color-class intersection, which is what makes a grid pair
    scan equivalent to the exact condition-2 check.
    """
    q = rng.randint(4, 24)

    def distinct_cuts(count):
        nums = rng.sample(range(1, q), count)
        return sorted(ExactScalar.from_rational(Fraction(n, q), 0) for n in nums)

    k = rng.randint(2, min(6, q - 1))
    cells = _intervals_from_cuts(distinct_cuts(k - 1), 0)
    pmap = PiecewiseMap(_piece(rng, lo, hi, int((1 + lo - hi).rational_part * q))
                        for lo, hi in cells).require_valid()

    m = rng.randint(2, min(8, q - 1))
    labels = [chr(ord("A") + (i % 4)) for i in range(m)]
    rng.shuffle(labels)
    segments = _intervals_from_cuts(distinct_cuts(m - 1), 0)
    sub = _labelled_subdivision(rng, segments, labels)

    x0 = ExactScalar.from_rational(Fraction(rng.randint(0, q - 1), q), 0)
    return pmap, sub, x0, q
