"""Colorings of [0, 1), the goodness predicate, refinement, and gluing.

A Subdivision assigns a letter to every point of [0, 1); the letter's color
class is a finite union of flagged intervals.  A subdivision is *good* for a
map when (1) every color class is convex and (2) at every discontinuity that
sits strictly inside a class, the two sides map to color sets that do not
meet.

A subdivision is stored only as its intervalsets.CellTable: each class
component is a cell (start key, end key, letter), and a class is the set
of its cells' ranges, built on request.

is_good and refine_to_good both start at _cuts_inside, which checks the
fields and the map's validation report once and places each cut that
validate found in the cells with one bisect: O(discontinuities * log
cells).  Condition 2 then costs m + n image lookups for a cell with m cuts
met by n pieces (_shared_colors), and refine_to_good copies the cells
once, cutting each at the cuts inside it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

from .exactnum import ExactScalar, FieldMismatch, format_scalar
from .intervalsets import BoundarySet, CellTable, _field, _pred, _sample, _succ


# "1" for a closed end, "0" for an open one, indexed by the end's key side:
# AT (0) is closed, ABOVE (1) and BELOW (-1) are open
_CLOSED = ("1", "0", "0")


class OverlapError(ValueError):
    """Two color classes claim the same point."""

    def __init__(self, witness, letters=()):
        self.witness = witness
        self.letters = tuple(letters)
        where = " and ".join(self.letters) if self.letters else "classes"
        super().__init__(f"{where} overlap at {witness}")


class CoverageGapError(ValueError):
    """Some point of [0, 1) has no color."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"no class covers {witness}")


class UnknownLetter(KeyError):
    """A letter outside the gluing map's domain."""

    def __init__(self, letter):
        self.letter = letter
        super().__init__(letter)

    def __str__(self):
        return f"letter {self.letter!r} is not in the gluing domain"


def _letter(x):
    """The letter str(x); ValueError unless it is one whitespace-free token,
    so that a word written as text splits back into its letters."""
    name = str(x)
    if name.split() != [name]:
        raise ValueError(f"letter {name!r} is not one token without whitespace")
    return name


class Subdivision:
    """A partition of [0, 1) into finitely many lettered color classes.

    Construction canonicalizes: each class's intervals are merged and
    sorted, the alphabet is sorted, and the endpoints (ExactScalar, one
    field) and partition property (disjoint, no gaps, exactly [0, 1)) are
    verified; refine_to_good, which only cuts a verified subdivision,
    skips the checks.  Only `table`, the lettered cells, is stored;
    `classes` and `class_of` are derived from it.
    """

    __slots__ = ("_alphabet", "table")

    def __init__(self, classes):
        if not classes:
            raise ValueError("a subdivision needs at least one class")
        cells = []
        for letter in sorted(classes):
            name = _letter(letter)
            bset = classes[letter]
            if not isinstance(bset, BoundarySet):
                bset = BoundarySet(bset)
            if bset.is_empty():
                raise ValueError(f"class {letter!r} is empty")
            cells.extend((lo, hi, name) for lo, hi in bset._ranges)
        fields = {_field(x) for lo_key, hi_key, _ in cells for x in (lo_key[1], hi_key[1])}
        if None in fields:
            raise TypeError("class endpoints must be ExactScalar values")
        if len(fields) > 1:
            raise FieldMismatch("class endpoints from different field contexts")
        self._alphabet = tuple(sorted({letter for _, _, letter in cells}))
        self.table = CellTable(cells, fields.pop())
        cells = self.table.cells
        for kind, i, *keys in self.table.faults():
            witness = _sample(*keys)
            if kind == "gap":
                raise CoverageGapError(witness)
            if kind == "overlap":
                raise OverlapError(witness, (cells[i - 1][2], cells[i][2]))
            raise ValueError(f"class {cells[i][2]!r} extends beyond [0, 1)")

    def _cells_by_letter(self):
        """Letter -> its cells, left to right; letters in alphabet order."""
        by_letter = {letter: [] for letter in self._alphabet}
        for cell in self.table.cells:
            by_letter[cell[2]].append(cell)
        return by_letter

    @property
    def alphabet(self):
        return self._alphabet

    @property
    def classes(self):
        return {letter: BoundarySet._from_ranges(cell[:2] for cell in cells)
                for letter, cells in self._cells_by_letter().items()}

    @property
    def d(self):
        return self.table.d

    def class_of(self, letter):
        if letter not in self._alphabet:
            raise UnknownLetter(letter)
        return BoundarySet._from_ranges(cell[:2] for cell in self.table.cells if cell[2] == letter)

    def color_of(self, x):
        return self.table.cells[self.table.index(x)][2]

    def component_count(self):
        return len(self.table.cells)

    def content_id(self):
        # one pass; a start that is the object the cell before ends on is
        # formatted once.  A cell's text leads with ";letter:" in its class's
        # first cell, "|" in the others, so one join gives "a:...|...;b:..."
        parts = {letter: [] for letter in self._alphabet}
        hi = hi_text = None
        for (_, lo, le), (_, end, he), letter in self.table.cells:
            lo_text = hi_text if lo is hi else format_scalar(lo)
            hi, hi_text = end, format_scalar(end)
            texts = parts[letter]
            sep = "|" if texts else f";{letter}:"
            texts.append(f"{sep}{lo_text},{_CLOSED[le]},{hi_text},{_CLOSED[he]}")
        text = "".join([t for texts in parts.values() for t in texts])[1:]
        return "sub:" + hashlib.sha256(text.encode()).hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, Subdivision):
            return NotImplemented
        return self.table.cells == other.table.cells

    def __hash__(self):
        return hash(tuple(self.table.cells))

    def __repr__(self):
        inner = ", ".join(f"{letter}: {bset!r}" for letter, bset in self.classes.items())
        return f"Subdivision({{{inner}}})"


@dataclass(frozen=True)
class GoodnessViolation:
    """One reason a subdivision fails to be good for a map.

    kind "not-convex": `letter`'s class has several components; the witness
    pair samples two of them.  kind "shared-image-color": the two sides of
    discontinuity `point` inside `letter`'s class both map into class
    `color`; the witness pair (A, B) straddles the point and satisfies
    color(f(A)) == color(f(B)) == color.
    """

    kind: str
    letter: str
    point: ExactScalar | None = None
    color: str | None = None
    witness: tuple | None = None

    def __str__(self):
        a, b = self.witness
        if self.kind == "not-convex":
            return (f"class {self.letter!r} is not convex "
                    f"(components sampled at {a} and {b})")
        return (f"class {self.letter!r} straddles discontinuity {self.point}: "
                f"images of {a} and {b} are both colored {self.color!r}")


@dataclass(frozen=True)
class GoodnessCertificate:
    """Witness that a subdivision is good for one specific map."""

    subdivision_id: str
    map_id: str

    def __str__(self):
        return f"good for {self.map_id} (subdivision {self.subdivision_id})"


def _cuts_inside(sub, pmap):
    """Cell index, in position order -> the keys of the map's
    discontinuities strictly inside that cell, sorted; cells with none are
    left out.  A cut lies in the last cell starting below it, and inside
    it unless it is that cell's closed end.  Raises FieldMismatch unless
    sub and pmap share a field, then CorruptMap unless pmap is valid.
    """
    if sub.d != pmap.d:
        raise FieldMismatch("subdivision and map use different field contexts")
    pmap.require_valid()
    cells, starts = sub.table.cells, sub.table._starts
    inside = {}
    for cut in pmap._validated[2]:         # sorted, as the pieces are
        i = bisect_left(starts, cut) - 1
        if cut < cells[i][1]:
            inside.setdefault(i, []).append(cut)
    return inside


def _image_hits(sub, piece, image):
    """Letter -> (piece, lo_key, hi_key) of the first cell of that letter
    the image key range, part of piece's image, meets, cells taken from
    left to right."""
    hits = {}
    for meet_lo, meet_hi, letter in sub.table.meeting(*image):
        hits.setdefault(letter, (piece, meet_lo, meet_hi))
    return hits


def _shared_colors(sub, rank, cuts, parts):
    """The cuts inside one cell, given as keys, whose two sides reach a
    common color.

    Each part is (lo_key, hi_key, piece, image key range).  The left side
    of a cut p is the parts before the one p starts; the right side is
    that part from just above p, then the parts after it.  Every part's
    image is looked up once, and once more from just above p for the part
    p starts, so m cuts and n parts cost m + n lookups.  The image from
    just above p is the part's own with its end at p's image moved off
    it: the start for slope +1, the end for slope -1.  A
    color reaches the left side of the cut at part s when its first part
    comes before s, and the right side when its last part comes after s
    or the part from just above p reaches it.  A heap by alphabet rank
    holds the colors already seen, each dropped once its last part is
    passed.  Yields (p, color, left_hit, right_hit) with the lowest-ranked
    such color, hits as _image_hits gives them.
    """
    hits = [_image_hits(sub, piece, image) for _, _, piece, image in parts]
    seen = {}                              # letter -> the parts reaching it
    for s, part_hits in enumerate(hits):
        for letter in part_hits:
            seen.setdefault(letter, []).append(s)
    heap, t = [], 0
    for s, (part_lo, _, piece, (image_lo, image_hi)) in enumerate(parts):
        if t < len(cuts) and part_lo == cuts[t]:
            cut = cuts[t]
            t += 1
            while heap and seen[heap[0][1]][-1] <= s:
                heappop(heap)
            if piece.slope == 1:
                above = _image_hits(sub, piece, (_succ(image_lo), image_hi))
            else:
                above = _image_hits(sub, piece, (image_lo, _pred(image_hi)))
            reached = [(rank[c], c) for c in above if seen[c][0] < s]
            if heap:
                reached.append(heap[0])
            if reached:
                color = min(reached)[1]
                at = seen[color]
                right = above.get(color) or hits[at[bisect_right(at, s)]][color]
                yield cut[1], color, hits[at[0]][color], right
        for letter in hits[s]:
            if seen[letter][0] == s:
                heappush(heap, (rank[letter], letter))


def _pull_back(piece, y):
    if piece.slope == 1:
        return y - piece.intercept
    return piece.intercept - y


def is_good(sub, pmap):
    """Check both goodness conditions.

    Returns a GoodnessCertificate, or a list of GoodnessViolation records
    with exact witnesses: every not-convex violation first, in alphabet
    order, then the shared-image-color ones by letter, then position.
    Raises FieldMismatch when the fields differ, else CorruptMap when
    pmap fails validation.
    """
    inside = _cuts_inside(sub, pmap)
    violations = []
    # every class owns a cell, so equal counts make each class one interval
    if len(sub.table.cells) > len(sub.alphabet):
        for letter, cells in sub._cells_by_letter().items():
            if len(cells) > 1:
                witness = tuple(_sample(*cell[:2]) for cell in cells[:2])
                violations.append(GoodnessViolation("not-convex", letter, witness=witness))

    if inside:                             # no cut inside a cell, no shared color
        rank = {letter: r for r, letter in enumerate(sub.alphabet)}
        shared = []                        # in position order
        for i, cuts in inside.items():
            lo_key, hi_key, letter = sub.table.cells[i]
            parts = list(pmap._parts(lo_key, hi_key))
            for p, color, *sides in _shared_colors(sub, rank, cuts, parts):
                a, b = (_pull_back(piece, _sample(lo, hi)) for piece, lo, hi in sides)
                shared.append(GoodnessViolation("shared-image-color", letter, point=p,
                                                color=color, witness=(a, b)))
        violations.extend(sorted(shared, key=lambda v: rank[v.letter]))
    return violations or GoodnessCertificate(sub.content_id(), pmap.content_id())


class GluingMap:
    """Letter-to-letter projection from a refined alphabet to the original."""

    __slots__ = ("_mapping",)

    def __init__(self, mapping):
        self._mapping = {_letter(k): _letter(v) for k, v in mapping.items()}
        if not self._mapping:
            raise ValueError("empty gluing map")

    @property
    def mapping(self):
        return dict(self._mapping)

    def __call__(self, letter):
        try:
            return self._mapping[letter]
        except KeyError:
            raise UnknownLetter(letter) from None

    def __eq__(self, other):
        if not isinstance(other, GluingMap):
            return NotImplemented
        return self._mapping == other._mapping

    def __hash__(self):
        return hash(tuple(sorted(self._mapping.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}->{v}" for k, v in sorted(self._mapping.items()))
        return f"GluingMap({inner})"


def refine_to_good(sub, pmap):
    """Cut every class at component boundaries and discontinuities.

    Returns (refined, gluing).  The refined subdivision is good for pmap:
    every new class is a single interval, and no new class has a
    discontinuity strictly inside it, so the image-color condition holds
    vacuously.  Gluing sends each fresh letter back to the letter it was
    cut from, and the new alphabet has at most (#old components) +
    (#discontinuities) letters.  Raises FieldMismatch when the fields
    differ, else CorruptMap when pmap fails validation.
    """
    inside = _cuts_inside(sub, pmap)

    # each cut joins the piece to its right; names are minted left to right
    # into per-letter lists, so the mapping reads in alphabet order, then index.
    # Plain concatenation can collide ("B" cut in 11 and "B1" both mint "B10"); an
    # underscore keeps names unambiguous while staying deterministic
    for sep in ("", "_"):
        cells, names = [], {letter: [] for letter in sub.alphabet}
        for i, (lo, hi, letter) in enumerate(sub.table.cells):
            own = names[letter]
            for cut in inside.get(i, ()):
                own.append(f"{letter}{sep}{len(own)}")
                cells.append((lo, _pred(cut), own[-1]))
                lo = cut
            own.append(f"{letter}{sep}{len(own)}")
            cells.append((lo, hi, own[-1]))
        mapping = {name: letter for letter, own in names.items() for name in own}
        if len(mapping) == len(cells):
            break

    # sub's cells tile [0, 1) in one field (its constructor checked them),
    # that field is pmap's (_cuts_inside checked), and each cut lies strictly
    # inside its cell: the pieces tile [0, 1) in it too, unwalked, and
    # each name, a checked letter with a suffix, is a token; none is checked again
    refined = object.__new__(Subdivision)
    refined._alphabet = tuple(sorted(mapping))
    refined.table = CellTable(cells, sub.d)
    gluing = object.__new__(GluingMap)
    gluing._mapping = mapping
    return refined, gluing
