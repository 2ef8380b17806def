"""Orbits and their symbolic codings.

The word of x0 under a map T and subdivision S is the color sequence of
T^0 x0, T^1 x0, T^2 x0, ...  Batch and streaming generation share one code
path, and the glue-back round trip is checked in a single orbit walk.

Every orbit is walked on the integer lattice (1/den)(Z + Z sqrt d): a
step is two integer updates and each lookup goes through an
intervalsets.LatticeTable, whose float filter decides only what a
certified error bound allows and sends every close case to exact integer
signs.  iter_orbit and orbit hand the points out as ExactScalar values;
iter_code, code and roundtrip_check read letters off the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count, islice
from math import lcm

from .exactnum import ExactScalar, FieldMismatch
from .intervalmap import CorruptMap
from .intervalsets import LatticeTable
from .subdivision import refine_to_good


@dataclass(frozen=True)
class WordOrigin:
    """Where a word came from: which map, subdivision, start point, length."""

    map_id: str
    subdivision_id: str
    x0: ExactScalar
    length: int
    projected: bool = False


class SymbolicWord:
    """An immutable finite letter sequence with its provenance.

    Equality compares letters only; the origin is metadata (a glued word
    can equal the directly generated one).
    """

    __slots__ = ("_letters", "_origin")

    def __init__(self, letters, origin=None):
        self._letters = tuple(str(l) for l in letters)
        if origin is not None and origin.length != len(self._letters):
            raise ValueError("origin length disagrees with letter count")
        self._origin = origin

    @property
    def letters(self):
        return self._letters

    @property
    def origin(self):
        return self._origin

    def projected(self, new_letters):
        """The same word seen through a gluing; origin marked as projected."""
        origin = None
        if self._origin is not None:
            origin = replace(self._origin, projected=True)
        return SymbolicWord(new_letters, origin)

    def text(self, wrap=None):
        """Whitespace-separated tokens, optionally wrapped every `wrap` tokens."""
        if wrap is None:
            return " ".join(self._letters)
        lines = [
            " ".join(self._letters[i : i + wrap])
            for i in range(0, len(self._letters), wrap)
        ]
        return "\n".join(lines)

    def __len__(self):
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    def __getitem__(self, i):
        return self._letters[i]

    def __eq__(self, other):
        if isinstance(other, SymbolicWord):
            return self._letters == other._letters
        if isinstance(other, (tuple, list)):
            return self._letters == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._letters)

    def __repr__(self):
        shown = " ".join(self._letters[:12])
        if len(self._letters) > 12:
            shown += " ..."
        return f"SymbolicWord({len(self._letters)} letters: {shown})"


def iter_orbit(pmap, x0, n=None):
    """Stream the forward orbit of x0 as ExactScalars; infinite when n is None.

    The map is looked up only when another point is asked for, so n points
    cost n - 1 lookups.
    """
    walk = _LatticeOrbit(pmap, x0)
    scalar = walk.map.scalar
    for A, B, _, _ in walk.points(n):
        yield scalar(A, B)


def orbit(pmap, x0, n):
    """The first n orbit points of x0, exactly."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(iter_orbit(pmap, x0, n))


class _LatticeOrbit:
    """The orbit of x0 on the lattice (1/den)(Z + Z sqrt d), with the tables
    that code it compiled onto the same lattice.

    den is the lcm of the denominators of x0, every intercept and every
    cell endpoint.  Every slope is +1 or -1, so each orbit point is
    (A + B sqrt d) / den with integers A, B, and a step through a piece
    with intercept (C + D sqrt d) / den is A, B = s*A + C, s*B + D.
    """

    def __init__(self, pmap, x0, *tables):
        pmap.table.index(x0)           # raises PointOutsideDomain outside [0, 1)
        x0 = x0 + ExactScalar.zero(pmap.d)     # lifts int and Fraction starts
        tables = (pmap.table, *tables)
        den = lcm(x0.denominator, *(p.intercept.denominator for p in pmap.pieces),
                  *(key[0].denominator for t in tables for cell in t.cells
                    for key in cell[:2]))
        self.map, *self.tables = (LatticeTable(t, den) for t in tables)
        self._moves = [(p.slope, *p.intercept.on_lattice(den)) for p in self.map.values]
        self._start = x0.on_lattice(den)

    def points(self, n=None):
        """The first n orbit points (all when n is None), as LatticeTable.index
        takes them; the map is looked up only when another point is asked for."""
        if n is not None and n < 1:
            return
        pieces, point, moves = self.map, self.map.point, self._moves
        A, B = self._start
        for _ in count() if n is None else range(n - 1):
            here = point(A, B)
            yield here
            i = pieces.index(here)
            if i is None:
                raise CorruptMap(f"no piece contains {pieces.scalar(A, B)}")
            s, C, D = moves[i]
            A, B = s * A + C, s * B + D
        yield point(A, B)


def iter_code(pmap, sub, x0, n=None):
    """Stream the coding letters of x0's orbit; constant memory.

    The letters are those of sub.color_of on iter_orbit(pmap, x0, n).
    """
    if sub.d != pmap.d:
        raise FieldMismatch("subdivision and map use different field contexts")
    walk = _LatticeOrbit(pmap, x0, sub.table)
    (cells,) = walk.tables
    letters, index = cells.values, cells.index
    for point in walk.points(n):
        yield letters[index(point)]


def code(pmap, sub, x0, n):
    """The length-n coding word of x0 under (pmap, sub)."""
    if n < 1:
        raise ValueError("need n >= 1")
    x0 = x0 + ExactScalar.zero(pmap.d)     # lifts int and Fraction starts
    letters = tuple(islice(iter_code(pmap, sub, x0), n))
    origin = WordOrigin(pmap.content_id(), sub.content_id(), x0, n)
    return SymbolicWord(letters, origin)


@dataclass(frozen=True)
class RoundtripResult:
    """Outcome of the refine-code-glue comparison."""

    ok: bool
    mismatch_index: int | None = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "OK" if self.ok else f"Mismatch({self.mismatch_index})"


OK = RoundtripResult(True)


def roundtrip_check(pmap, sub, x0, n):
    """Does gluing the refined coding recover the original coding?

    Computes (refined, gluing) = refine_to_good(sub, pmap), then walks one
    orbit on the integer lattice, looking each point up in both
    subdivisions' tables independently; the glued refined letter must
    equal the original letter at every index.  Equivalent to comparing
    glue_word(code(pmap, refined, x0, n)) with code(pmap, sub, x0, n), but
    in a single pass.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    refined, gluing = refine_to_good(sub, pmap)
    walk = _LatticeOrbit(pmap, x0, refined.table, sub.table)
    fine, coarse = walk.tables
    glued = [gluing(letter) for letter in fine.values]
    for k, point in enumerate(walk.points(n)):
        if glued[fine.index(point)] != coarse.values[coarse.index(point)]:
            return RoundtripResult(False, k)
    return OK
