"""Piecewise-affine transformations of [0, 1) and interval exchanges.

A PiecewiseMap is a finite list of affine pieces with slope +1 or -1 whose
half-open domains tile [0, 1).  Validation is report-style: invalid maps
can be built and inspected, and apply and piece_at answer single points of
any map.  validate is the one step that derives what a map knows (the
report, each piece's image, the discontinuities), once per map; every
orbit walk, is_good and refine_to_good raise CorruptMap unless its report
is clean.  An IET, the special case of a translation bijection, is stored
as lengths plus a permutation.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .exactnum import ExactScalar, FieldMismatch, format_scalar
from .intervalsets import (CellTable, Component, PointOutsideDomain, _affine_key, _from_keys,
                           _in_unit, affine_image, key_range)


class CorruptMap(RuntimeError):
    """An operation that requires a validated map found it broken."""


class NotTranslationPiecewise(ValueError):
    """to_iet needs every slope to be +1."""


class NotBijective(ValueError):
    """to_iet needs the piece images to tile [0, 1) exactly."""


def HalfOpenInterval(lo, hi):
    """The domain [lo, hi), 0 <= lo < hi <= 1, as a Component; its ends
    must be ExactScalar values from one field context."""
    _scalar_ends(lo, hi)
    return _from_keys(*key_range(lo, True, hi, False, unit=lo.d))


def _scalar_ends(lo, hi):
    for name, x in (("lo", lo), ("hi", hi)):
        if not isinstance(x, ExactScalar):
            raise TypeError(f"domain end {name} must be an ExactScalar, got {type(x).__name__}")


@dataclass(frozen=True)
class AffinePiece:
    """x -> slope*x + intercept on a half-open domain, slope +1 or -1."""

    domain: Component
    slope: int
    intercept: ExactScalar

    def __post_init__(self):
        # the rule HalfOpenInterval checks, read from the domain's stored keys
        _scalar_ends(self.domain.lo, self.domain.hi)
        _in_unit(self.domain.lo_key, self.domain.hi_key, self.domain.lo.d)
        # bool is an int subclass and 1.0 == 1; neither is a slope
        if type(self.slope) is not int or self.slope not in (1, -1):
            raise ValueError(f"slope must be +1 or -1, got {self.slope!r}")
        if not isinstance(self.intercept, ExactScalar):
            raise TypeError(
                f"intercept must be an ExactScalar, got {type(self.intercept).__name__}")
        if self.intercept.d != self.domain.lo.d:
            raise FieldMismatch("intercept from a different field context")

    def __call__(self, x):
        if self.slope == 1:
            return x + self.intercept
        return -x + self.intercept


@dataclass(frozen=True)
class MapViolation:
    kind: str          # "domain-overlap" | "coverage-gap" | "image-escape"
    detail: str
    witness: ExactScalar | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[MapViolation, ...]
    bijective: bool

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            kind = "bijective" if self.bijective else "non-bijective"
            return f"valid ({kind})"
        return "; ".join(f"{v.kind}: {v.detail}" for v in self.violations)


class PiecewiseMap:
    """Affine pieces sorted by domain start; `table` holds their domains."""

    # _validated: (report, piece images, cut keys), filled by validate
    __slots__ = ("_pieces", "table", "_validated")

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a map needs at least one piece")
        d = pieces[0].domain.lo.d
        for p in pieces:
            if p.domain.lo.d != d:
                raise FieldMismatch("pieces from different field contexts")
        self.table = CellTable(((p.domain.lo_key, p.domain.hi_key, p) for p in pieces), d)
        self._pieces = tuple(p for _, _, p in self.table.cells)
        self._validated = None

    @property
    def pieces(self):
        return self._pieces

    @property
    def d(self):
        return self.table.d

    def __len__(self):
        return len(self._pieces)

    def piece_at(self, x):
        i = self.table.index(x)
        if i is None:
            raise CorruptMap(f"no piece contains {x}")
        return self._pieces[i]

    def apply(self, x):
        return self.piece_at(x)(x)

    __call__ = apply

    def _parts(self, lo_key, hi_key):
        """Each piece meeting the key range, clipped to it, left to right, as
        (lo_key, hi_key, piece, image key range of the clipped part).

        The map must be valid, so validate has kept its piece images.  A
        part's image is its piece's stored one, but for an end where the
        range clips the piece, so a range costs at most two image ends.
        """
        cells, images = self.table.cells, self._validated[1]
        first = bisect_right(self.table._starts, lo_key) - 1
        for i, (lo, hi, piece) in enumerate(self.table.meeting(lo_key, hi_key), first):
            start, end = images[i][::piece.slope]      # images of the piece's start, end
            if lo != cells[i][0]:
                start = _affine_key(piece.slope, piece.intercept, lo)
            if hi != cells[i][1]:
                end = _affine_key(piece.slope, piece.intercept, hi)
            yield lo, hi, piece, (start, end)[::piece.slope]

    def discontinuities(self):
        """Interior boundaries where the left piece's end value differs from
        the right piece's start value, as validate finds them.  On a valid
        map these are the points where the left limit differs from the
        value.  Each call returns a fresh list."""
        self.validate()
        return [cut[1] for cut in self._validated[2]]

    def validate(self):
        """Structural report: overlaps, gaps, escaping images, bijectivity.

        The one pass that derives what the map knows: it also keeps each
        piece's image key range, in table order, and the keys of the
        discontinuities, left to right, read off the image ends (slope -1
        maps a domain's end to its image's start).  Never raises.
        """
        if self._validated is not None:
            return self._validated[0]
        violations = []
        # domains lie inside [0, 1), so the walk finds only gaps and overlaps
        for kind, _, lo_key, hi_key in self.table.faults():
            lo = lo_key[1]
            if kind == "gap":
                violations.append(MapViolation(
                    "coverage-gap", f"nothing covers [{lo}, {hi_key[1]})", witness=lo))
            else:
                violations.append(MapViolation(
                    "domain-overlap", f"domains overlap from {lo}", witness=lo))

        images = [affine_image(p.slope, p.intercept, lo, hi) for lo, hi, p in self.table.cells]
        ends = [image[::p.slope] for image, p in zip(images, self._pieces)]
        cuts = [right.domain.lo_key for (_, left_end), (right_start, _), right
                in zip(ends, ends[1:], self._pieces[1:]) if left_end[1] != right_start[1]]
        # the images tile [0, 1) exactly when the map is a bijection
        img = CellTable(((*image, i) for i, image in enumerate(images)), self.d)
        faults = list(img.faults())
        for i in sorted(img.cells[j][2] for kind, j, _, _ in faults if kind == "escape"):
            p = self._pieces[i]
            violations.append(MapViolation(
                "image-escape", f"piece {i} maps {p.domain} outside [0, 1)",
                witness=p.domain.lo))

        self._validated = ValidationReport(tuple(violations), not faults), images, cuts
        return self._validated[0]

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise CorruptMap(str(report))
        return self

    def content_id(self):
        """Deterministic identity string derived from the pieces."""
        fields, hi, hi_text = [], None, None
        for (_, lo, _), (_, end, _), p in self.table.cells:
            # a piece mostly starts on the object the one before it ends on:
            # format that once (an equal object gives the same text)
            lo_text = hi_text if lo is hi else format_scalar(lo)
            hi, hi_text = end, format_scalar(end)
            fields.append(f"{lo_text},{hi_text},{p.slope},{format_scalar(p.intercept)}")
        text = ";".join(fields)
        return "map:" + hashlib.sha256(text.encode()).hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, PiecewiseMap):
            return NotImplemented
        return self._pieces == other._pieces

    def __hash__(self):
        return hash(self._pieces)

    def __repr__(self):
        parts = ", ".join(
            f"{p.domain} -> {'+x' if p.slope == 1 else '-x'}+{p.intercept}"
            for p in self._pieces
        )
        return f"PiecewiseMap({parts})"


@dataclass(frozen=True)
class IET:
    """Interval exchange: interval i (with the given length) moves to slot
    permutation[i], counted left to right in the image."""

    lengths: tuple
    permutation: tuple

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))
        object.__setattr__(self, "permutation", tuple(self.permutation))
        if len(self.lengths) != len(self.permutation):
            raise ValueError("lengths and permutation sizes differ")
        if sorted(self.permutation) != list(range(len(self.lengths))):
            raise ValueError(f"not a permutation of 0..{len(self.lengths) - 1}")
        if not self.lengths:
            raise ValueError("an IET needs at least one interval")
        for i, length in enumerate(self.lengths):
            if not isinstance(length, ExactScalar):
                raise TypeError(f"length {i} must be an ExactScalar, got {type(length).__name__}")
        d = self.lengths[0].d
        zero = ExactScalar.zero(d)
        total = zero
        for length in self.lengths:
            if length.d != d:
                raise FieldMismatch("lengths from different field contexts")
            if not length > zero:
                raise ValueError("lengths must be positive")
            total = total + length
        if total != ExactScalar.one(d):
            raise ValueError(f"lengths sum to {total}, expected 1")

    @property
    def d(self):
        return self.lengths[0].d


def iet_to_map(iet):
    """Embed an IET as its canonical translation PiecewiseMap."""
    zero = ExactScalar.zero(iet.d)
    # the lengths sum to 1 exactly, so the last start is 1
    starts = [*accumulate(iet.lengths[:-1], initial=zero), ExactScalar.one(iet.d)]
    # slot s is occupied by the interval i with permutation[i] == s, and its
    # image starts where the intervals in the slots before s end
    by_slot = sorted(range(len(iet.lengths)), key=iet.permutation.__getitem__)
    dest = dict(zip(by_slot, accumulate((iet.lengths[i] for i in by_slot), initial=zero)))
    return PiecewiseMap(AffinePiece(HalfOpenInterval(lo, hi), 1, dest[i] - lo)
                        for i, (lo, hi) in enumerate(zip(starts, starts[1:])))


def to_iet(pmap):
    """Recover the IET presentation of a translation bijection."""
    for p in pmap.pieces:
        if p.slope != 1:
            raise NotTranslationPiecewise("a piece has slope -1")
    report = pmap.validate()
    if not report.ok or not report.bijective:
        raise NotBijective(str(report))
    lengths = tuple(p.domain.hi - p.domain.lo for p in pmap.pieces)
    order = sorted(range(len(pmap)), key=pmap._validated[1].__getitem__)
    permutation = [0] * len(order)
    for slot, i in enumerate(order):
        permutation[i] = slot
    return IET(lengths, tuple(permutation))


def identity_map(d=0):
    return iet_to_map(IET((ExactScalar.one(d),), (0,)))


def rotation(angle):
    """Rotation x -> x + angle (mod 1) as a two-piece translation map."""
    if not isinstance(angle, ExactScalar):
        raise TypeError(f"angle must be an ExactScalar, got {type(angle).__name__}")
    if not 0 <= angle < 1:
        raise ValueError(f"angle must lie in [0, 1), got {angle}")
    if angle == 0:
        return identity_map(angle.d)
    return iet_to_map(IET((1 - angle, angle), (1, 0)))
