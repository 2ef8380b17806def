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
those once per set or point they are given.

A component is the key range [lo_key, hi_key]; unions, intersections and
adjacency checks reduce to tuple comparisons on keys.  A CellTable holds
key ranges sorted by start: map domains, map images and subdivision cells
are each one table, and every single-point lookup, range lookup and
tiling check on [0, 1) goes through it.  A LatticeTable is a CellTable
that tiles [0, 1), compiled onto the integer lattice of one orbit walk,
where keys are integers and floats only filter; every orbit walk looks
its points up there.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import nan, sqrt

from .exactnum import ExactScalar, FieldMismatch, _floor64, _sign_of

BELOW, AT, ABOVE = -1, 0, 1


def key(x, eps):
    """The key of the position eps (BELOW, AT or ABOVE) at x; TypeError
    unless x is an ExactScalar, int or Fraction."""
    return (_floor64(x), x, eps)


def _lo_key(lo, lo_in):
    return key(lo, AT if lo_in else ABOVE)


def _hi_key(hi, hi_in):
    return key(hi, AT if hi_in else BELOW)


def _succ(k):
    # next representable position: x- -> x -> x+
    return key(k[1], k[2] + 1)


def _pred(k):
    return key(k[1], k[2] - 1)


def _field(x):
    """The field context of a scalar; None for an int or a Fraction."""
    return x.d if isinstance(x, ExactScalar) else None


def _same_field(d, e):
    """Raise FieldMismatch for two different field contexts; None fits any."""
    if d is not None and e is not None and d != e:
        raise FieldMismatch(f"field contexts differ: sqrt({d}) vs sqrt({e})")


@dataclass(frozen=True)
class Component:
    """One maximal interval of a BoundarySet."""

    lo: ExactScalar
    lo_in: bool
    hi: ExactScalar
    hi_in: bool

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty component: lo {self.lo} > hi {self.hi}")
        if self.lo == self.hi and not (self.lo_in and self.hi_in):
            raise ValueError("a single point needs both endpoints included")

    @property
    def lo_key(self):
        return _lo_key(self.lo, self.lo_in)

    @property
    def hi_key(self):
        return _hi_key(self.hi, self.hi_in)

    def is_singleton(self):
        return self.lo == self.hi

    def length(self):
        return self.hi - self.lo

    def sample_point(self):
        """A representative point, preferring the left endpoint."""
        if self.lo_in:
            return self.lo
        # open on the left: lo < hi here, so the midpoint is interior
        return _midpoint(self.lo, self.hi)

    def __str__(self):
        left = "[" if self.lo_in else "("
        right = "]" if self.hi_in else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _midpoint(a, b):
    return (a + b) * Fraction(1, 2)


def affine_image(slope, intercept, lo_key, hi_key):
    """Image of the key range [lo_key, hi_key] under x -> slope*x + intercept
    with slope +1 or -1, as a key range.  Slope -1 swaps the two ends and
    turns "just below" into "just above"."""
    if slope == 1:
        return key(lo_key[1] + intercept, lo_key[2]), key(hi_key[1] + intercept, hi_key[2])
    return key(intercept - hi_key[1], -hi_key[2]), key(intercept - lo_key[1], -lo_key[2])


def _from_keys(lo_key, hi_key):
    (_, lo, le), (_, hi, he) = lo_key, hi_key
    if le == BELOW or he == ABOVE:
        raise ValueError("keys do not bound a component")
    return Component(lo, le == AT, hi, he == AT)


class BoundarySet:
    """A canonical finite union of flagged intervals.

    Components are pairwise disjoint, sorted and non-adjacent; the empty
    set is allowed.  Instances are immutable.  The endpoints share one
    field context, kept as _d (None when every endpoint is an int or a
    Fraction).
    """

    __slots__ = ("_components", "_d")

    def __init__(self, components=()):
        components = tuple(components)
        fields = {x.d for c in components for x in (c.lo, c.hi)
                  if isinstance(x, ExactScalar)}
        if len(fields) > 1:
            raise FieldMismatch("components from different field contexts")
        self._d = next(iter(fields), None)
        self._components = _canonical_components(components)

    @property
    def components(self):
        return self._components

    def is_empty(self):
        return not self._components

    def contains(self, x):
        at = key(x, AT)
        _same_field(self._d, _field(x))
        for c in self._components:
            if c.lo_key > at:
                return False
            if at <= c.hi_key:
                return True
        return False

    __contains__ = contains

    def intersect(self, other):
        _same_field(self._d, other._d)
        out = []
        for a in self._components:
            for b in other._components:
                lo_key = max(a.lo_key, b.lo_key)
                hi_key = min(a.hi_key, b.hi_key)
                if lo_key <= hi_key:
                    out.append(_from_keys(lo_key, hi_key))
        return BoundarySet(out)

    def sample_point(self):
        if self.is_empty():
            raise ValueError("empty set has no points")
        return self._components[0].sample_point()

    def transform(self, slope, intercept):
        """Image under x -> slope*x + intercept with slope +1 or -1."""
        return BoundarySet(_from_keys(*affine_image(slope, intercept, c.lo_key, c.hi_key))
                           for c in self._components)

    def __eq__(self, other):
        if not isinstance(other, BoundarySet):
            return NotImplemented
        return self._components == other._components

    def __hash__(self):
        return hash(self._components)

    def __iter__(self):
        return iter(self._components)

    def __len__(self):
        return len(self._components)

    def __repr__(self):
        if not self._components:
            return "BoundarySet(empty)"
        return "BoundarySet(" + " u ".join(str(c) for c in self._components) + ")"


def interval(lo, hi, lo_in=True, hi_in=False):
    """Single flagged interval as a BoundarySet; [lo, hi) by default."""
    return BoundarySet([Component(lo, lo_in, hi, hi_in)])


def singleton(x):
    return BoundarySet([Component(x, True, x, True)])


def _canonical_components(components):
    comps = sorted(components, key=lambda c: c.lo_key)
    merged = []
    for c in comps:
        if merged and c.lo_key <= _succ(merged[-1].hi_key):
            last = merged[-1]
            if c.hi_key > last.hi_key:
                merged[-1] = _from_keys(last.lo_key, c.hi_key)
        else:
            merged.append(c)
    return tuple(merged)


@lru_cache(maxsize=256)
def _unit_keys(d):
    """The keys of 0 and of 1 in field d, built once per field."""
    return key(ExactScalar.zero(d), AT), key(ExactScalar.one(d), AT)


class PointOutsideDomain(ValueError):
    """A point outside [0, 1) was fed to the dynamics."""


class CellTable:
    """Cells (lo_key, hi_key, value) in field d, sorted by start key.

    Cells with equal starts keep their order.  faults() says whether the
    cells tile [0, 1); meeting() assumes that they do.
    """

    __slots__ = ("cells", "d", "_starts", "_start", "_end")

    def __init__(self, cells, d):
        self.cells = sorted(cells, key=lambda cell: cell[0])
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


# The float filter of LatticeTable.  A lattice value x = A + B*sqrt(d), in
# units of 1/den, is approximated as xf = fl(af + bf) with af = fl(A),
# bf = fl(fl(B) * fl(sqrt d)); each operation is correctly rounded with
# unit roundoff u = 2**-53, and fl(d) = d for d < 2**53.  Then
#   |af - A| <= u|A|,  |bf - B sqrt d| <= ((1 + u)**3 - 1)|B| sqrt d,
#   |xf - (af + bf)| <= u(|af| + |bf|),
# and |A| <= |af|/(1 - u), |B| sqrt d <= |bf|/(1 - u)**3 give
#   |xf - x| <= 4.001 u m,  with m = |af| + |bf|.
# Cell starts and ends s are approximated the same way (sf, m_s).  The
# filter accepts s < x when D = fl(xf - sf) exceeds T = fl(e_x + e_s),
# with e = K * fl(m) (K is a power of two, so that product is exact).
# Then T >= K (1 - u)**2 (m + m_s) and xf - sf >= D/(1 + u), so
#   x - s >= D/(1 + u) - 4.001 u (m + m_s)
#         > (K (1 - u)**2/(1 + u) - 4.001 u)(m + m_s) >= 0
# for any K >= 4.002 u; x < s is accepted symmetrically.  K = 16u leaves
# a factor of 4 of slack over the derived constant.  fl(A) and fl(B)
# raise OverflowError past float range, which gives nan for xf and e; a
# product past it gives inf or nan.  Every comparison with those is false,
# so such points and cells always go to the exact integer signs.
_FILTER = 2.0**-49


class LatticeTable:
    """A CellTable that tiles [0, 1), compiled onto the lattice
    (1/den)(Z + Z sqrt d).

    den must be a multiple of the denominator of every cell endpoint, and
    the cells must tile [0, 1), as the domains of a valid map and the
    cells of a subdivision do.  A point x = (A + B sqrt d) / den in [0, 1)
    is handed to index() in the form point(A, B) gives, and index() gives
    the cell that holds x, as CellTable.index(x) does.

    For d in {0, 1} every B is 0 and a key (E, eps) is the integer
    3E + eps, which orders keys as tuples do; the point's key is 3A, and a
    lookup is one bisect over integers.  Otherwise a lookup bisects the
    float starts and keeps the cell only when the filter above certifies
    start < x < end; every other case, and every coefficient past float
    range, is decided by exact integer signs.
    """

    __slots__ = ("values", "_d", "_den", "_root", "_starts", "_lo", "_filter")

    def __init__(self, table, den):
        cells = table.cells
        self.values = [value for _, _, value in cells]
        self._d, self._den = table.d, den
        self._root = sqrt(table.d) if table.d < 2**53 else nan
        self._starts = [(*lo[1].on_lattice(den), lo[2]) for lo, _, _ in cells]
        if table.d <= 1:
            self._lo = [3 * E + eps for E, _, eps in self._starts]
        else:
            lo = [self.point(E, F)[2:] for E, F, _ in self._starts]
            hi = [self.point(*end[1].on_lattice(den))[2:] for _, end, _ in cells]
            self._lo = [sf for sf, _ in lo]
            self._filter = [(*a, *b) for a, b in zip(lo, hi)]

    def point(self, A, B):
        """(A, B, xf, e): the point with its float value and error bound."""
        if self._d <= 1:
            return A, B, 0.0, 0.0
        try:
            af, bf = float(A), B * self._root
        except OverflowError:
            return A, B, nan, nan
        return A, B, af + bf, _FILTER * (abs(af) + abs(bf))

    def scalar(self, A, B):
        """The point (A + B sqrt d) / den as an ExactScalar."""
        return ExactScalar(A, B, self._den, self._d)

    def index(self, point):
        """Index of the cell holding the point, which must lie in [0, 1)."""
        A, B, xf, e = point
        if self._d <= 1:
            return bisect_right(self._lo, 3 * A) - 1
        i = bisect_right(self._lo, xf) - 1
        if i >= 0:
            lo_f, lo_e, hi_f, hi_e = self._filter[i]
            if xf - lo_f > e + lo_e and hi_f - xf > e + hi_e:
                return i
        return self._exact(A, B)

    def _exact(self, A, B):
        d = self._d
        lo, hi = 0, len(self._starts)
        while lo < hi:                 # bisect_right over the start keys
            mid = (lo + hi) // 2
            if _key_sign(self._starts[mid], A, B, d) > 0:
                hi = mid
            else:
                lo = mid + 1
        return lo - 1


def _key_sign(start, A, B, d):
    """Sign of the key (E, F, eps) minus the key of x = A + B sqrt d itself."""
    E, F, eps = start
    return _sign_of(E - A, F - B, d) or eps
