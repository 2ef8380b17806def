"""Piecewise-affine transformations of [0, 1) and interval exchanges.

A PiecewiseMap is a finite list of affine pieces with slope +1 or -1 whose
half-open domains tile [0, 1).  Validation is report-style: invalid maps
can be built and inspected, and apply and piece_at answer single points
of any map, but every orbit walk, is_good and refine_to_good check the
report first and raise CorruptMap unless it is clean.  An IET is the translation-bijection special case, stored
as lengths plus a permutation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .exactnum import ExactScalar, FieldMismatch, format_scalar
from .intervalsets import CellTable, Component, PointOutsideDomain, affine_image


class CorruptMap(RuntimeError):
    """An operation that requires a validated map found it broken."""


class NotTranslationPiecewise(ValueError):
    """to_iet needs every slope to be +1."""


class NotBijective(ValueError):
    """to_iet needs the piece images to tile [0, 1) exactly."""


@dataclass(frozen=True)
class HalfOpenInterval(Component):
    """[lo, hi) with 0 <= lo < hi <= 1, endpoints in one field context."""

    lo_in: bool = field(default=True, init=False, repr=False)
    hi_in: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        # replaces Component's check, which this one implies; endpoints
        # from different field contexts raise FieldMismatch when compared
        zero = ExactScalar.zero(self.lo.d)
        one = ExactScalar.one(self.lo.d)
        if not (zero <= self.lo < self.hi <= one):
            raise ValueError(f"need 0 <= lo < hi <= 1, got [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class AffinePiece:
    """x -> slope*x + intercept on a half-open domain, slope +1 or -1."""

    domain: HalfOpenInterval
    slope: int
    intercept: ExactScalar

    def __post_init__(self):
        # bool is an int subclass and 1.0 == 1; neither is a slope
        if type(self.slope) is not int or self.slope not in (1, -1):
            raise ValueError(f"slope must be +1 or -1, got {self.slope!r}")
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

    __slots__ = ("_pieces", "_d", "table", "_report", "_cuts")

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
        self._d = d
        self._report = None
        self._cuts = None

    @property
    def pieces(self):
        return self._pieces

    @property
    def d(self):
        return self._d

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

    def discontinuities(self):
        """Interior boundaries where the left limit differs from the value,
        computed once per map; each call returns a fresh list."""
        if self._cuts is None:
            self._cuts = []
            for left, right in zip(self._pieces, self._pieces[1:]):
                p = right.domain.lo
                left_limit = left(p)
                if left_limit != right(p):
                    self._cuts.append(p)
        return list(self._cuts)

    def validate(self):
        """Structural report: overlaps, gaps, escaping images, bijectivity."""
        if self._report is not None:
            return self._report
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

        # the images tile [0, 1) exactly when the map is a bijection
        img = CellTable(((*affine_image(p.slope, p.intercept, lo, hi), i)
                         for i, (lo, hi, p) in enumerate(self.table.cells)), self._d)
        faults = list(img.faults())
        for i in sorted(img.cells[j][2] for kind, j, _, _ in faults if kind == "escape"):
            p = self._pieces[i]
            violations.append(MapViolation(
                "image-escape", f"piece {i} maps {p.domain} outside [0, 1)",
                witness=p.domain.lo))
        bijective = not faults

        self._report = ValidationReport(tuple(violations), bijective)
        return self._report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise CorruptMap(str(report))
        return self

    def content_id(self):
        """Deterministic identity string derived from the pieces."""
        text = ";".join(
            f"{format_scalar(p.domain.lo)},{format_scalar(p.domain.hi)},"
            f"{p.slope},{format_scalar(p.intercept)}"
            for p in self._pieces
        )
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
    k = len(iet.lengths)
    zero = ExactScalar.zero(iet.d)

    src_starts = [zero]
    for length in iet.lengths[:-1]:
        src_starts.append(src_starts[-1] + length)

    # slot s is occupied by the interval i with permutation[i] == s
    by_slot = sorted(range(k), key=lambda i: iet.permutation[i])
    dest_starts = [None] * k
    cursor = zero
    for i in by_slot:
        dest_starts[i] = cursor
        cursor = cursor + iet.lengths[i]

    pieces = []
    for i in range(k):
        domain = HalfOpenInterval(src_starts[i], src_starts[i] + iet.lengths[i])
        pieces.append(AffinePiece(domain, 1, dest_starts[i] - src_starts[i]))
    return PiecewiseMap(pieces)


def to_iet(pmap):
    """Recover the IET presentation of a translation bijection."""
    for p in pmap.pieces:
        if p.slope != 1:
            raise NotTranslationPiecewise("a piece has slope -1")
    report = pmap.validate()
    if not report.ok or not report.bijective:
        raise NotBijective(str(report))
    lengths = tuple(p.domain.length() for p in pmap.pieces)
    image_starts = [p.domain.lo + p.intercept for p in pmap.pieces]
    order = sorted(range(len(image_starts)), key=lambda i: image_starts[i])
    permutation = [0] * len(order)
    for slot, i in enumerate(order):
        permutation[i] = slot
    return IET(lengths, tuple(permutation))


def identity_map(d=0):
    zero = ExactScalar.zero(d)
    one = ExactScalar.one(d)
    return PiecewiseMap([AffinePiece(HalfOpenInterval(zero, one), 1, zero)])


def rotation(angle):
    """Rotation x -> x + angle (mod 1) as a two-piece translation map."""
    d = angle.d
    zero = ExactScalar.zero(d)
    one = ExactScalar.one(d)
    if not (zero <= angle < one):
        raise ValueError(f"angle must lie in [0, 1), got {angle}")
    if angle == zero:
        return identity_map(d)
    cut = one - angle
    return PiecewiseMap(
        [
            AffinePiece(HalfOpenInterval(zero, cut), 1, angle),
            AffinePiece(HalfOpenInterval(cut, one), 1, angle - one),
        ]
    )
