"""Exact set algebra for finite unions of intervals with endpoint flags.

A component (lo, lo_in, hi, hi_in) denotes the interval from lo to hi with
each endpoint included iff its flag is set; lo == hi with both flags set is
a singleton point.  Endpoints are ExactScalar values from one field
context, so every operation here is decided exactly.

Positions are compared through keys (k, x, eps) with eps in {-1, 0, +1}
standing for "just below x", "x itself", "just above x", and k the integer
floor(x * 2**64), computed exactly in integers (exactnum._floor64); key()
builds every key.  The floor is monotone, so k(x) < k(y) implies x < y,
and the tuple order is the order of positions: two keys are settled on
their integers k alone, and only when the k tie (x and y equal, or closer
than 2**-64) is x compared exactly, then eps.  Comparing keys therefore
never checks field contexts or types; the sets and tables here check
those once per set or point they are given, and key_range() once per
interval.

key_range() is the one rule for which (lo, lo_in, hi, hi_in) make an
interval: lo_key <= hi_key, and for a map's domain also [lo, hi), with
keys within those of 0 and 1.  Component, HalfOpenInterval and the document
reader call it, and a Component keeps its key range.  A BoundarySet is
stored as its merged, sorted key ranges, so set operations are tuple
comparisons on keys; it builds Components only on request, from those
ranges and unchecked (_from_keys).  A CellTable holds key ranges sorted by
start, each with a value: map domains, map images and subdivision cells
are each one table, and every single-point lookup, range lookup and tiling
check on [0, 1) goes through it; overlay() meets two tilings into one in
a single ordered walk over both, with no lookup per cell.
A LatticeTable is compiled from a list of overlay cells that tiles [0, 1),
for the integer lattice of one orbit walk, where floats only filter: each
walk compiles one, from the overlay of its map's domains and the cells it
reads, and looks each point up once, by its two lattice integers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from math import nan, sqrt
from operator import itemgetter

from .exactnum import ExactScalar, FieldMismatch, _canonical, _floor64, _sign_of

BELOW, AT, ABOVE = -1, 0, 1


def key(x, eps):
    """The key of the position eps (BELOW, AT or ABOVE) at x; TypeError
    unless x is an ExactScalar, int or Fraction."""
    return (_floor64(x), x, eps)


def _succ(k):
    # next representable position: x- -> x -> x+; the floor stays
    return (k[0], k[1], k[2] + 1)


def _pred(k):
    return (k[0], k[1], k[2] - 1)


def _field(x):
    """The field context of a scalar; None for an int or a Fraction."""
    return x.d if isinstance(x, ExactScalar) else None


def _same_field(d, e):
    """Raise FieldMismatch for two different field contexts; None fits any."""
    if d is not None and e is not None and d != e:
        raise FieldMismatch(f"field contexts differ: sqrt({d}) vs sqrt({e})")


@lru_cache(maxsize=256)
def _unit_keys(d):
    """The keys of 0 and of 1 in field d, built once per field."""
    return key(ExactScalar.zero(d), AT), key(ExactScalar.one(d), AT)


def key_range(lo, lo_in, hi, hi_in, unit=None):
    """The key range (lo_key, hi_key) of the interval from lo to hi, each
    end included iff its flag is set, which must hold a point; with
    unit = d it must be [lo, hi) in [0, 1) of field d.  Raises FieldMismatch for
    ends from two field contexts, TypeError for an end that is not an
    ExactScalar, int or Fraction, and ValueError for a refused interval.
    """
    _same_field(_field(lo), _field(hi))
    lo_key, hi_key = key(lo, AT if lo_in else ABOVE), key(hi, AT if hi_in else BELOW)
    if unit is not None:
        _in_unit(lo_key, hi_key, unit)
    elif lo_key > hi_key:
        if lo == hi:
            raise ValueError("a single point needs both endpoints included")
        raise ValueError(f"empty component: lo {lo} > hi {hi}")
    return lo_key, hi_key


def _in_unit(lo_key, hi_key, d):
    """Raise ValueError unless the key range is [lo, hi) in [0, 1) of field d."""
    start, end = _unit_keys(d)
    if not (start <= lo_key <= hi_key < end and lo_key[2] == AT and hi_key[2] == BELOW):
        raise ValueError(f"need 0 <= lo < hi <= 1, got {_from_keys(lo_key, hi_key)}")


@dataclass(frozen=True)
class Component:
    """One interval, with the key range (lo_key, hi_key) it was checked by."""

    lo: ExactScalar
    lo_in: bool
    hi: ExactScalar
    hi_in: bool
    lo_key: tuple = field(init=False, repr=False, compare=False)
    hi_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = key_range(self.lo, self.lo_in, self.hi, self.hi_in)
        self.__dict__.update(lo_key=keys[0], hi_key=keys[1])

    def sample_point(self):
        """A representative point, preferring the left endpoint."""
        return _sample(self.lo_key, self.hi_key)

    def __str__(self):
        left = "[" if self.lo_in else "("
        right = "]" if self.hi_in else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _midpoint(a, b):
    s = a + b
    if isinstance(s, ExactScalar):
        # s is canonical, so (a + b sqrt d) / 2q is too unless a and b are even
        if (s._a | s._b) & 1:
            return _canonical(s._a, s._b, 2 * s._q, s._d)
        return _canonical(s._a >> 1, s._b >> 1, s._q, s._d)
    return s * Fraction(1, 2)


def _sample(lo_key, hi_key):
    """The sample_point of the component with these keys, without building it."""
    return lo_key[1] if lo_key[2] == AT else _midpoint(lo_key[1], hi_key[1])


def _affine_key(slope, intercept, k):
    """The image of the position k under x -> slope*x + intercept with slope
    +1 or -1, as a key; slope -1 turns "just below" into "just above"."""
    if slope == 1:
        return key(k[1] + intercept, k[2])
    return key(intercept - k[1], -k[2])


def affine_image(slope, intercept, lo_key, hi_key):
    """Image of the key range [lo_key, hi_key] under x -> slope*x + intercept
    with slope +1 or -1, as a key range; slope -1 swaps the two ends."""
    ends = _affine_key(slope, intercept, lo_key), _affine_key(slope, intercept, hi_key)
    return ends[::slope]


def _from_keys(lo_key, hi_key):
    """The Component of a checked key range, not checked again."""
    (_, lo, le), (_, hi, he) = lo_key, hi_key
    c = object.__new__(Component)
    c.__dict__.update(lo=lo, lo_in=le == AT, hi=hi, hi_in=he == AT, lo_key=lo_key, hi_key=hi_key)
    return c


class BoundarySet:
    """A canonical finite union of flagged intervals.

    Components are pairwise disjoint, sorted and non-adjacent; the empty
    set is allowed.  Instances are immutable and hold their components'
    key ranges (lo_key, hi_key), left to right.  The endpoints share one
    field context, kept as _d (None when every endpoint is an int or a
    Fraction).
    """

    __slots__ = ("_ranges", "_d")

    def __init__(self, components=()):
        canonical = self._from_ranges([(c.lo_key, c.hi_key) for c in components])
        self._ranges, self._d = canonical._ranges, canonical._d

    @classmethod
    def _from_ranges(cls, ranges):
        """The set of these key ranges, merged where they meet or touch;
        ranges with equal starts keep their order.  Its field context is
        that of the ranges' endpoints."""
        ranges = sorted(ranges, key=itemgetter(0))
        fields = {x.d for lo, hi in ranges for x in (lo[1], hi[1]) if isinstance(x, ExactScalar)}
        if len(fields) > 1:
            raise FieldMismatch("components from different field contexts")
        merged = []
        for lo, hi in ranges:
            if merged and lo <= _succ(merged[-1][1]):
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self = object.__new__(cls)
        self._ranges, self._d = tuple(merged), next(iter(fields), None)
        return self

    @property
    def components(self):
        return tuple(starmap(_from_keys, self._ranges))

    def is_empty(self):
        return not self._ranges

    def contains(self, x):
        at = key(x, AT)
        _same_field(self._d, _field(x))
        i = bisect_right(self._ranges, at, key=itemgetter(0))
        return i > 0 and at <= self._ranges[i - 1][1]

    __contains__ = contains

    def intersect(self, other):
        _same_field(self._d, other._d)
        meets = ((max(a[0], b[0]), min(a[1], b[1])) for a in self._ranges for b in other._ranges)
        meet = self._from_ranges((lo, hi) for lo, hi in meets if lo <= hi)
        if meet._d is None:
            # the kept ends are ints or Fractions: the operands' field still holds
            meet._d = self._d if self._d is not None else other._d
        return meet

    def sample_point(self):
        if self.is_empty():
            raise ValueError("empty set has no points")
        return _sample(*self._ranges[0])

    def transform(self, slope, intercept):
        """Image under x -> slope*x + intercept with slope +1 or -1."""
        return self._from_ranges(affine_image(slope, intercept, *r) for r in self._ranges)

    def __eq__(self, other):
        if not isinstance(other, BoundarySet):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self):
        return hash(self._ranges)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self._ranges)

    def __repr__(self):
        if not self._ranges:
            return "BoundarySet(empty)"
        return "BoundarySet(" + " u ".join(map(str, self.components)) + ")"


def interval(lo, hi, lo_in=True, hi_in=False):
    """Single flagged interval as a BoundarySet; [lo, hi) by default."""
    return BoundarySet([Component(lo, lo_in, hi, hi_in)])


class PointOutsideDomain(ValueError):
    """A point outside [0, 1) was fed to the dynamics."""


class CellTable:
    """Cells (lo_key, hi_key, value) in field d, sorted by start key.

    Cells with equal starts keep their order.  faults() says whether the
    cells tile [0, 1); meeting() and overlay() assume that they do.
    """

    __slots__ = ("cells", "d", "_starts", "_start", "_end")

    def __init__(self, cells, d):
        self.cells = sorted(cells, key=itemgetter(0))
        self.d = d
        self._starts = [cell[0] for cell in self.cells]
        self._start, self._end = _unit_keys(d)

    def index(self, x):
        """Index of the last cell starting at or before x; None if it ends before x."""
        at = key(x, AT)
        _same_field(self.d, _field(x))
        if not self._start <= at < self._end:
            raise PointOutsideDomain(f"{x} outside [0, 1)")
        i = bisect_right(self._starts, at) - 1
        if i < 0 or at > self.cells[i][1]:
            return None
        return i

    def meeting(self, lo_key, hi_key):
        """Each cell meeting the key range, clipped to it, left to right, as
        (lo_key, hi_key, value).  The cells must tile [0, 1) and the range
        must lie in it: then each cell ends just before the next begins,
        and the cell holding hi_key is the last one."""
        cells = self.cells
        i = bisect_right(self._starts, lo_key) - 1
        while cells[i][1] < hi_key:
            yield lo_key, cells[i][1], cells[i][2]
            i += 1
            lo_key = cells[i][0]
        yield lo_key, hi_key, cells[i][2]

    def overlay(self, other):
        """The common refinement of two tables that tile [0, 1), left to
        right, as (lo_key, hi_key, (value here, value in other)): one
        ordered walk over both, each piece from the later start to the
        earlier end, this table's on a tie."""
        theirs = other.cells
        j = 0
        for lo, hi, value in self.cells:
            _, their_hi, their_value = theirs[j]
            while their_hi < hi:
                yield lo, their_hi, (value, their_value)
                j += 1
                lo, their_hi, their_value = theirs[j]
            yield lo, hi, (value, their_value)
            if their_hi == hi:
                j += 1

    def faults(self):
        """Walk the cells across [0, 1) and yield every fault.

        Yields (kind, i, lo_key, hi_key) in walk order: "gap" for the keys
        of [0, 1) that nothing covers before cell i (i == len(cells) for
        the tail), "overlap" for the keys cell i shares with the cells
        before it, and "escape" with cell i's own keys when it reaches
        below 0 or up to 1.  The cells tile [0, 1) exactly when nothing is
        yielded.
        """
        start, end = self._start, self._end
        cursor = start                 # the first key not yet covered
        for i, (lo_key, hi_key, _) in enumerate(self.cells):
            if lo_key < start:
                yield "escape", i, lo_key, hi_key
            else:
                if cursor < end and lo_key > cursor:
                    yield "gap", i, cursor, min(_pred(lo_key), _pred(end))
                elif lo_key < cursor:
                    yield "overlap", i, lo_key, min(hi_key, _pred(cursor))
                if hi_key >= end:
                    yield "escape", i, lo_key, hi_key
            cursor = max(cursor, _succ(hi_key))
        if cursor < end:
            yield "gap", len(self.cells), cursor, _pred(end)


# The float filter of LatticeTable, after Shewchuk, Adaptive Precision
# Floating-Point Arithmetic and Fast Robust Geometric Predicates (1997).
# A lattice value x = A + B*sqrt(d), in units of 1/den, is approximated
# as xf = fl(af + bf) with af = fl(A), bf = fl(fl(B) * fl(sqrt d)); each
# operation is correctly rounded with unit roundoff u = 2**-53, and
# fl(d) = d for d < 2**53.  Then
#   |af - A| <= u|A|,  |bf - B sqrt d| <= ((1 + u)**3 - 1)|B| sqrt d,
#   |xf - (af + bf)| <= u(|af| + |bf|),
# and |A| <= |af|/(1 - u), |B| sqrt d <= |bf|/(1 - u)**3 give
#   |xf - x| <= 4.001 u m,  with m = |af| + |bf|.
# A cell start s is A + B sqrt d with A = a den/q, B = b den/q for
# s = (a + b sqrt d)/q; CPython's int/int true division is correctly
# rounded, so the same holds word for word (sf, m_s).  The filter
# accepts s < x when D = fl(xf - sf) exceeds T = fl(e_x + e_s),
# with e = K * fl(m) (K is a power of two, so that product is exact).
# Then T >= K (1 - u)**2 (m + m_s) and xf - sf >= D/(1 + u), so
#   x - s >= D/(1 + u) - 4.001 u (m + m_s)
#         > (K (1 - u)**2/(1 + u) - 4.001 u)(m + m_s) >= 0
# for any K >= 4.002 u; x < s is accepted symmetrically.  K = 16u leaves
# a factor of 4 of slack over the derived constant.  fl(A) and fl(B)
# raise OverflowError past float range, which gives nan for xf and e; a
# product past it gives inf or nan.  Every comparison with those is false,
# so such points and cells always go to the exact integer signs.  The
# bounds need results in the normal range, which a start's rational parts
# can leave: a start with a nonzero part below 2**-900 gets nan too.
_FILTER = 2.0**-49


class LatticeTable:
    """Overlay cells (lo_key, hi_key, value) in field d that tile [0, 1)
    left to right, as CellTable.overlay yields them, compiled for the
    lattice (1/den)(Z + Z sqrt d) of one orbit walk, whatever den is.

    index(A, B) takes the integers of a point x = (A + B sqrt d) / den in
    [0, 1) and gives the index of the cell that holds x.  A cell start
    (a + b sqrt d) / q is kept as (a den, b den, q, eps); a cell ends where
    the next one starts, or at 1.  The table keeps only what a lookup
    needs: the cells' values stay in the list it was compiled from.

    For d in {0, 1} every B is 0, each start becomes the least integer A
    with A/den at or after it, and a lookup is one bisect over those.
    Otherwise a lookup bisects the float starts and keeps the cell only
    when the filter above certifies start < x < end; every other case,
    and every coefficient past float range, is decided by exact signs.
    """

    __slots__ = ("_d", "_root", "_starts", "_lo", "_filter")

    def __init__(self, cells, d, den):
        self._d = d
        self._root = sqrt(d) if d < 2**53 else nan
        self._starts = [(*x.on_lattice(den * x.denominator), x.denominator, eps)
                        for (_, x, eps), _, _ in cells]
        if d <= 1:
            self._lo = [(a + q - 1 + eps) // q for a, _, q, eps in self._starts]
        else:
            lo = [self._float(a, b, q) for a, b, q, _ in self._starts]
            self._lo = [sf for sf, _ in lo]
            self._filter = [(*s, *e) for s, e in zip(lo, [*lo[1:], self._float(den, 0, 1)])]

    def _float(self, a, b, q):
        """(sf, e) for the start (a + b sqrt d) / q, in units of 1/den."""
        try:
            af, bf = a / q, b / q * self._root
        except OverflowError:
            return nan, nan
        if a and abs(af) < 2.0**-900 or b and abs(bf) < 2.0**-900:
            return nan, nan
        return af + bf, _FILTER * (abs(af) + abs(bf))

    def index(self, A, B):
        """Index of the cell holding (A + B sqrt d) / den, which must lie in
        [0, 1)."""
        if self._d <= 1:
            return bisect_right(self._lo, A) - 1
        try:
            af, bf = float(A), B * self._root
        except OverflowError:
            return self._exact(A, B)
        xf = af + bf
        i = bisect_right(self._lo, xf) - 1
        if i >= 0:
            e = _FILTER * (abs(af) + abs(bf))
            lo_f, lo_e, hi_f, hi_e = self._filter[i]
            if xf - lo_f > e + lo_e and hi_f - xf > e + hi_e:
                return i
        return self._exact(A, B)

    def _exact(self, A, B):
        def after(start):
            # the sign of the start's key minus the key of x itself
            a, b, q, eps = start
            return (_sign_of(a - q * A, b - q * B, self._d) or eps) > 0

        return bisect_left(self._starts, True, key=after) - 1
