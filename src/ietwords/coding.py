"""Orbits and their symbolic codings.

The word of x0 under a map T and subdivision S is the color sequence of
T^0 x0, T^1 x0, T^2 x0, ...  Batch and streaming generation share one orbit
walk.  The glue-back round trip is decided on a table of where the glued
refined letter is the original one, and walks only to locate a mismatch.

Every walk requires a map whose validation report is clean: its orbits
then stay in [0, 1) and every table the walk compiles tiles [0, 1), and a
broken map raises CorruptMap before any point is walked.  Every orbit is
walked on the integer lattice (1/den)(Z + Z sqrt d): a step is two
integer updates and each lookup goes through an
intervalsets.LatticeTable, whose float filter decides only what a
certified error bound allows and sends every close case to exact integer
signs.  iter_orbit and orbit hand the points out as ExactScalar values;
iter_code, code and roundtrip_check read letters off the same walk.
glue_word sends a word's letters through a gluing.

Every walk reads one stream, which stops walking at the first return to
an earlier lattice point: Brent's cycle rule finds it in constant memory,
and exactly, since two lattice points are equal exactly when their
integer pairs are.  It then walks one more period and repeats it, so an
eventually periodic orbit costs O(preperiod + period) steps however long
the word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, cycle, islice
from math import lcm

from .exactnum import ExactScalar, FieldMismatch
from .intervalsets import CellTable, LatticeTable
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


def glue_word(word, gluing):
    """Apply the gluing letterwise; SymbolicWord in, SymbolicWord out."""
    if isinstance(word, SymbolicWord):
        return word.projected(tuple(gluing(l) for l in word.letters))
    if isinstance(word, str):
        word = word.split()
    return tuple(gluing(l) for l in word)


def iter_orbit(pmap, x0, n=None):
    """Stream the forward orbit of x0 as ExactScalars; infinite when n is None.

    The map is looked up only when another point is asked for, so n points
    cost at most n - 1 lookups.  Memory is constant until the orbit
    repeats, then one period.  Raises CorruptMap, before any point, when
    pmap fails validation, and PointOutsideDomain when x0 lies outside
    [0, 1).
    """
    walk = _LatticeOrbit(pmap, x0)
    scalar = walk.map.scalar
    yield from islice(walk.stream(lambda point: scalar(point[0], point[1])), n)


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
    The tables must tile [0, 1), as subdivision and agreement tables do.
    """

    def __init__(self, pmap, x0, *tables):
        if any(t.d != pmap.d for t in tables):
            raise FieldMismatch("subdivision and map use different field contexts")
        pmap.require_valid()           # its domains tile [0, 1), its orbits stay there
        pmap.table.index(x0)           # raises PointOutsideDomain outside [0, 1)
        x0 = x0 + ExactScalar.zero(pmap.d)     # lifts int and Fraction starts
        tables = (pmap.table, *tables)
        den = lcm(x0.denominator, *(p.intercept.denominator for p in pmap.pieces),
                  *(key[1].denominator for t in tables for cell in t.cells
                    for key in cell[:2]))
        self.map, *self.tables = (LatticeTable(t, den) for t in tables)
        self._moves = [(p.slope, *p.intercept.on_lattice(den)) for p in self.map.values]
        self.x0, self._start = x0, x0.on_lattice(den)
        self.period = None

    def points(self):
        """The orbit points from the start on, endlessly, as
        LatticeTable.index takes them; the map is looked up only when
        another point is asked for."""
        index, point, moves = self.map.index, self.map.point, self._moves
        A, B = self._start
        while True:
            here = point(A, B)
            yield here
            s, C, D = moves[index(here)]
            A, B = s * A + C, s * B + D

    def stream(self, read):
        """read(point) for every orbit point, endlessly.

        Brent's rule keeps one earlier point as a mark, moved to the newest
        point at steps 0, 1, 3, 7, 15, ..., and compares each new point with
        it.  Lattice points are equal exactly when their integer pairs are,
        so the first equality closes a cycle, and the steps since the mark
        are the least period, kept as period.  Nothing is kept until then;
        from there the walk reads one more period, whose values are kept
        and repeated.
        """
        points = self.points()
        mark_A = mark_B = None
        mark = move = 0
        for k, here in enumerate(points):
            A, B, _, _ = here
            if A == mark_A and B == mark_B:
                self.period = k - mark
                break
            if k == move:
                mark_A, mark_B, mark, move = A, B, k, 2 * k + 1
            yield read(here)
        period = []
        for here in islice(chain((here,), points), self.period):
            period.append(read(here))
            yield period[-1]
        yield from cycle(period)


def iter_code(pmap, sub, x0, n=None):
    """Stream the coding letters of x0's orbit; infinite when n is None.

    The letters are those of sub.color_of on iter_orbit(pmap, x0, n).
    Memory is constant until the orbit repeats, then one period.
    """
    walk = _LatticeOrbit(pmap, x0, sub.table)
    (cells,) = walk.tables
    letters, index = cells.values, cells.index
    yield from islice(walk.stream(lambda point: letters[index(point)]), n)


def code(pmap, sub, x0, n):
    """The length-n coding word of x0 under (pmap, sub).

    Once the orbit repeats, the rest of the word repeats its last period.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    walk = _LatticeOrbit(pmap, x0, sub.table)
    (cells,) = walk.tables
    letters, index = cells.values, cells.index
    word = islice(walk.stream(lambda point: letters[index(point)]), n)
    return SymbolicWord(word, WordOrigin(pmap.content_id(), sub.content_id(), walk.x0, n))


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


def _agreement(refined, gluing, sub):
    """The cells of [0, 1) on which the glued refined letter is, or is not,
    the original letter, valued True or False.

    Both tables tile [0, 1), so their common refinement does, left to
    right; neighbours with the same value are joined, and a correct
    refinement gives the single cell [0, 1) valued True.
    """
    cells = []
    for lo_key, hi_key, letter in refined.table.cells:
        glued = gluing(letter)
        for lo, hi, original in sub.table.meeting(lo_key, hi_key):
            same = glued == original
            if cells and cells[-1][2] == same:
                cells[-1] = (cells[-1][0], hi, same)
            else:
                cells.append((lo, hi, same))
    return CellTable(cells, sub.d)


def roundtrip_check(pmap, sub, x0, n):
    """Does gluing the refined coding recover the original coding?

    Equivalent to comparing glue_word(code(pmap, refined, x0, n)) with
    code(pmap, sub, x0, n) for (refined, gluing) = refine_to_good(sub, pmap).
    The answer is read off the table of where the glued refined letter is
    the original one.  refine_to_good has validated the map, so every orbit
    stays in [0, 1), and a table that is the single cell [0, 1) valued True
    proves the round trip for every start and length without a walk.
    Otherwise the orbit is walked to the first point in a False cell; a
    point past the first repeat repeats an earlier one, so the walk stops
    once the cycle closes, when every distinct point has been read.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    refined, gluing = refine_to_good(sub, pmap)
    agree = _agreement(refined, gluing, sub)
    if [value for _, _, value in agree.cells] == [True]:
        pmap.table.index(x0)           # raises PointOutsideDomain outside [0, 1)
        return OK
    walk = _LatticeOrbit(pmap, x0, agree)
    (agree,) = walk.tables
    ok, index = agree.values, agree.index
    for k, same in enumerate(islice(walk.stream(lambda point: ok[index(point)]), n)):
        if not same:
            return RoundtripResult(False, k)
        if walk.period is not None:
            break
    return OK
