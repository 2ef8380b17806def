"""Orbits and their symbolic codings.

The word of x0 under a map T and subdivision S is the color sequence of
T^0 x0, T^1 x0, T^2 x0, ...  Batch and streaming generation share one orbit
walk.  The glue-back round trip is decided on the overlay of the refined
and original cells, each valued True where the glued refined letter is the
original one: every overlay cell valued True proves it, and only when some
cell says no are they made a table, and the orbit walked to the mismatch.

Every walk requires a map whose validation report is clean: its orbits
then stay in [0, 1) and its domains tile [0, 1), and a broken map raises
CorruptMap before any point is walked.  Every orbit is walked on the
integer lattice (1/den)(Z + Z sqrt d), with den taken from x0 and the
intercepts alone: a step is two integer updates.  The walk compiles one
intervalsets.LatticeTable for the overlay of the map's domains and the
cells it reads, and one entry ((s, C, D), value) per overlay cell: the
move of its piece and its value.  One lookup per point gives the entry,
and the float filter sends every close case to exact integer signs.
iter_code, code and roundtrip_check read the value off each entry;
iter_orbit and orbit step their own integers through the moves and hand
the points out as ExactScalar values.  glue_word sends a word's letters
through a gluing.

Every walk reads one stream of shared entries, which stops walking at the
first return to an earlier lattice point: Brent's cycle rule (R. P. Brent,
An improved Monte Carlo factorization algorithm, BIT 20, 1980) finds it in
constant memory, and exactly, since two lattice points are equal exactly
when their integer pairs are.  It then walks one more period and repeats
its entries, one reference per period point, so an eventually periodic
orbit costs O(preperiod + period) steps however long the word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from math import lcm
from operator import itemgetter

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

    The letters are kept as given: code and glue_word hand over the str
    tokens of a subdivision or a gluing map.  Equality compares letters
    only; the origin is metadata (a glued word can equal the directly
    generated one).
    """

    __slots__ = ("_letters", "_origin")

    def __init__(self, letters, origin=None):
        self._letters = tuple(letters)
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
        _require_count(wrap, "wrap", 1)
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


def _require_count(n, name, least):
    """Refuse a count n (a length, depth or wrap width, called name) that is
    not an int of at least least; a bool is not a count."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    if n < least:
        raise ValueError(f"need {name} >= {least}")


def iter_orbit(pmap, x0, n=None):
    """Stream the forward orbit of x0 as ExactScalars; infinite when n is None.

    Each point is looked up only when it is asked for, so n points cost at
    most n lookups.  Each point's integers are stepped here by the move of
    the entry the walk hands out, so memory is constant until the orbit
    repeats, then one shared entry reference per period point.  Raises
    CorruptMap, before any point, when pmap fails validation, and
    PointOutsideDomain when x0 lies outside [0, 1).
    """
    if n is not None:
        _require_count(n, "n", 0)
    walk = _LatticeOrbit(pmap, x0)
    (A, B), den, d = walk.start, walk.den, pmap.d
    for (s, C, D), _ in islice(walk.stream(), n):
        yield ExactScalar(A, B, den, d)
        A, B = s * A + C, s * B + D


def orbit(pmap, x0, n):
    """The first n orbit points of x0, exactly."""
    _require_count(n, "n", 1)
    return tuple(iter_orbit(pmap, x0, n))


class _LatticeOrbit:
    """The orbit of x0 on the lattice (1/den)(Z + Z sqrt d), looked up in
    one table compiled for it: the common refinement of the map's domains
    and table's cells.  cells holds one entry ((s, C, D), value) per cell
    of that refinement: the move of the cell's piece and the cell's value.

    den is the lcm of the denominators of x0 and every intercept, whatever
    the table: cell endpoints need not lie on the lattice.  Every slope is
    +1 or -1, so each orbit point is (A + B sqrt d) / den with integers
    A, B, starting at start, and a step through a piece with intercept
    (C + D sqrt d) / den is A, B = s*A + C, s*B + D.  The table must tile
    [0, 1), as subdivision and agreement tables do.
    """

    def __init__(self, pmap, x0, table=None):
        table = table or pmap.table    # with no table, the map's domains alone
        if table.d != pmap.d:
            raise FieldMismatch("subdivision and map use different field contexts")
        pmap.require_valid()           # its domains tile [0, 1), its orbits stay there
        pmap.table.index(x0)           # raises PointOutsideDomain outside [0, 1)
        x0 = x0 + ExactScalar.zero(pmap.d)     # lifts int and Fraction starts
        den = lcm(x0.denominator, *(p.intercept.denominator for p in pmap.pieces))
        overlay = list(pmap.table.overlay(table))
        self.table = LatticeTable(overlay, pmap.d, den)
        self.cells = [((p.slope, *p.intercept.on_lattice(den)), value)
                      for _, _, (p, value) in overlay]
        self.x0, self.den, self.start = x0, den, x0.on_lattice(den)
        self.period = None

    def stream(self):
        """The shared entry of cells for each orbit point, endlessly: one
        lookup per point, made when the point is asked for, until the orbit
        repeats and one period after; then that period's entries, repeated.

        Brent's rule keeps one earlier point as a mark, moved to the newest
        point at steps 0, 1, 3, 7, 15, ..., and compares each new point with
        it.  Lattice points are equal exactly when their integer pairs are,
        so the first equality closes a cycle, and the steps since the mark
        are the least period, kept as period.  Nothing is kept until then;
        from there one more period is walked, and a reference to each of its
        entries is kept and repeated.
        """
        index, cells = self.table.index, self.cells
        A, B = self.start
        mark_A = mark_B = None
        k = mark = move = 0
        while A != mark_A or B != mark_B:
            if k == move:
                mark_A, mark_B, mark, move = A, B, k, 2 * k + 1
            entry = cells[index(A, B)]
            yield entry
            (s, C, D), _ = entry
            A, B = s * A + C, s * B + D
            k += 1
        self.period = k - mark
        period = []
        for _ in range(self.period):
            entry = cells[index(A, B)]
            period.append(entry)
            yield entry
            (s, C, D), _ = entry
            A, B = s * A + C, s * B + D
        while True:
            yield from period           # cycle(period) would keep a second copy


def iter_code(pmap, sub, x0, n=None):
    """Stream the coding letters of x0's orbit; infinite when n is None.

    The letters are those of sub.color_of on iter_orbit(pmap, x0, n).
    Memory is constant until the orbit repeats, then one shared entry
    reference per period point.
    """
    if n is not None:
        _require_count(n, "n", 0)
    walk = _LatticeOrbit(pmap, x0, sub.table)
    yield from map(itemgetter(1), islice(walk.stream(), n))


def code(pmap, sub, x0, n):
    """The length-n coding word of x0 under (pmap, sub).

    Once the orbit repeats, the rest of the word repeats its last period.
    """
    _require_count(n, "n", 1)
    walk = _LatticeOrbit(pmap, x0, sub.table)
    word = map(itemgetter(1), islice(walk.stream(), n))
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


def roundtrip_check(pmap, sub, x0, n):
    """Does gluing the refined coding recover the original coding?

    Equivalent to comparing glue_word(code(pmap, refined, x0, n)) with
    code(pmap, sub, x0, n) for (refined, gluing) = refine_to_good(sub, pmap).
    The answer is read off the overlay of the refined and original cells,
    each valued True where the glued refined letter is the original one.
    refine_to_good has validated the map, so every orbit stays in [0, 1):
    every overlay cell valued True proves the round trip for every start
    and length, with no table or walk.  Otherwise the cells become a
    table, and the orbit is walked to the first point in a False cell; a
    point past the first repeat repeats an earlier one, so the walk stops
    once the cycle closes, when every distinct point has been read.
    """
    _require_count(n, "n", 1)
    refined, gluing = refine_to_good(sub, pmap)
    cells = [(lo, hi, gluing(letter) == original)
             for lo, hi, (letter, original) in refined.table.overlay(sub.table)]
    if all(same for _, _, same in cells):
        pmap.table.index(x0)           # raises PointOutsideDomain outside [0, 1)
        return OK
    walk = _LatticeOrbit(pmap, x0, CellTable(cells, sub.d))
    for k, (_, same) in enumerate(islice(walk.stream(), n)):
        if not same:
            return RoundtripResult(False, k)
        if walk.period is not None:
            break
    return OK
