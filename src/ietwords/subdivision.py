"""Colorings of [0, 1), the goodness predicate, refinement, and gluing.

A Subdivision assigns a letter to every point of [0, 1); the letter's color
class is a finite union of flagged intervals.  A subdivision is *good* for a
map when (1) every color class is convex and (2) at every discontinuity that
sits strictly inside a class, the two sides map to color sets that do not
meet.  Any subdivision can be cut into a good one, and the original coding
is recovered from the refined one by gluing letters back.

Everything here reads intervalsets.CellTable: each class component is a
cell (start key, end key, letter).  Construction walks the cells across
[0, 1) and rejects the first gap, overlap or cell outside it.  Condition 1
counts each class's cells.

Condition 2 and refine_to_good share one sweep (_sweep): it walks the
cells left to right with one cursor into the map's sorted discontinuities
and one into its pieces, and gives each cell the cuts strictly inside it
and the cell clipped to each piece it meets.  refine_to_good cuts the
cell there.  For condition 2 each part's image is looked up in the cells
once, and once more from just above each cut for the part that cut
starts, so a cell with m cuts and n parts costs m + n image lookups.  The
first color in alphabet order that both sides of a cut reach is the
violation, witnessed by one point on each side whose image has that color.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

from .exactnum import ExactScalar, FieldMismatch, format_scalar
from .intervalsets import (AT, BoundarySet, CellTable, _from_keys, _pred, _succ,
                           affine_image, key)


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


class Subdivision:
    """A partition of [0, 1) into finitely many lettered color classes.

    Construction canonicalizes: each class's intervals are merged and
    sorted, the alphabet is sorted, and the partition property (disjoint,
    no gaps, exactly [0, 1)) is verified on `table`, the lettered cells.
    """

    __slots__ = ("_alphabet", "_classes", "_d", "table")

    def __init__(self, classes):
        if not classes:
            raise ValueError("a subdivision needs at least one class")
        canon = {}
        for letter in sorted(classes):
            bset = classes[letter]
            if not isinstance(bset, BoundarySet):
                bset = BoundarySet(bset)
            if bset.is_empty():
                raise ValueError(f"class {letter!r} is empty")
            canon[str(letter)] = bset
        self._classes = canon
        self._alphabet = tuple(canon)

        d = next(iter(canon.values())).components[0].lo.d
        for bset in canon.values():
            for c in bset.components:
                if c.lo.d != d:
                    raise FieldMismatch("class endpoints from different field contexts")
        self._d = d

        self.table = CellTable(
            ((c.lo_key, c.hi_key, letter) for letter in self._alphabet
             for c in canon[letter].components), d)
        cells = self.table.cells
        for kind, i, lo_key, hi_key in self.table.faults():
            if kind == "gap":
                raise CoverageGapError(_from_keys(lo_key, hi_key).sample_point())
            if kind == "overlap":
                witness = _from_keys(lo_key, hi_key).sample_point()
                raise OverlapError(witness, (cells[i - 1][2], cells[i][2]))
            raise ValueError(f"class {cells[i][2]!r} extends beyond [0, 1)")

    @property
    def alphabet(self):
        return self._alphabet

    @property
    def classes(self):
        return dict(self._classes)

    @property
    def d(self):
        return self._d

    def class_of(self, letter):
        try:
            return self._classes[letter]
        except KeyError:
            raise UnknownLetter(letter) from None

    def color_of(self, x):
        return self.table.cells[self.table.index(x)][2]

    def component_count(self):
        return sum(len(bset) for bset in self._classes.values())

    def content_id(self):
        text = ";".join(
            f"{letter}:" + "|".join(
                f"{format_scalar(c.lo)},{int(c.lo_in)},{format_scalar(c.hi)},{int(c.hi_in)}"
                for c in self._classes[letter].components
            )
            for letter in self._alphabet
        )
        return "sub:" + hashlib.sha256(text.encode()).hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, Subdivision):
            return NotImplemented
        return self._classes == other._classes

    def __hash__(self):
        return hash(tuple(self._classes.items()))

    def __repr__(self):
        inner = ", ".join(f"{letter}: {bset!r}" for letter, bset in self._classes.items())
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
        if self.kind == "not-convex":
            a, b = self.witness
            return (f"class {self.letter!r} is not convex "
                    f"(components sampled at {a} and {b})")
        a, b = self.witness
        return (f"class {self.letter!r} straddles discontinuity {self.point}: "
                f"images of {a} and {b} are both colored {self.color!r}")


@dataclass(frozen=True)
class GoodnessCertificate:
    """Witness that a subdivision is good for one specific map."""

    subdivision_id: str
    map_id: str
    violations: tuple = ()

    def __str__(self):
        return f"good for {self.map_id} (subdivision {self.subdivision_id})"


def _sweep(sub, pmap):
    """Walk the subdivision's cells across [0, 1), left to right.

    Yields (cell, cuts, parts) for each cell (lo_key, hi_key, letter): the
    keys of the map's discontinuities strictly inside the cell, and the
    cell clipped to each piece it meets as [lo_key, hi_key, piece], left
    to right.  One cursor runs over the sorted discontinuities and one
    over the pieces, so the walk makes O(cells + cuts + pieces) key
    comparisons.  The pieces must tile [0, 1), as they do in a valid map:
    then the first piece a cell meets holds its start and the last one its
    end.
    """
    cuts = [key(p, AT) for p in pmap.discontinuities()]   # sorted, as the pieces are
    pieces = pmap.table.cells              # (lo_key, hi_key, piece)
    i = j = 0
    for cell in sub.table.cells:
        lo_key, hi_key, _ = cell
        while i < len(cuts) and cuts[i] <= lo_key:
            i += 1
        first = i
        while i < len(cuts) and cuts[i] < hi_key:
            i += 1
        k = j + 1
        while k < len(pieces) and pieces[k][0] <= hi_key:
            k += 1
        parts = [list(entry) for entry in pieces[j:k]]
        parts[0][0], parts[-1][1] = lo_key, hi_key
        yield cell, cuts[first:i], parts
        # the next cell starts just after this one ends
        j = k if pieces[k - 1][1] == hi_key else k - 1


def _image_hits(sub, lo_key, hi_key, piece):
    """Letter -> (piece, lo_key, hi_key) of the first cell of that letter
    the image of [lo_key, hi_key] meets, cells taken from left to right."""
    hits = {}
    image = affine_image(piece.slope, piece.intercept, lo_key, hi_key)
    for meet_lo, meet_hi, letter in sub.table.meeting(*image):
        hits.setdefault(letter, (piece, meet_lo, meet_hi))
    return hits


def _shared_colors(sub, rank, cuts, parts):
    """The cuts inside one cell, given as keys, whose two sides reach a
    common color.

    The left side of a cut p is the parts before the one p starts; the
    right side is that part from just above p, then the parts after it.
    Every part's image is looked up once, and once more from just above p
    for the part p starts, so m cuts and n parts cost m + n lookups.  A
    color reaches the left side of the cut at part s when its first part
    comes before s, and the right side when its last part comes after s
    or the part from just above p reaches it.  A heap by alphabet rank
    holds the colors already seen, each dropped once its last part is
    passed.  Yields (p, color, left_hit, right_hit) with the lowest-ranked
    such color, hits as _image_hits gives them.
    """
    hits = [_image_hits(sub, *part) for part in parts]
    seen = {}                              # letter -> the parts reaching it
    for s, part_hits in enumerate(hits):
        for letter in part_hits:
            seen.setdefault(letter, []).append(s)
    heap, t = [], 0
    for s, (part_lo, part_hi, piece) in enumerate(parts):
        if t < len(cuts) and part_lo == cuts[t]:
            cut = cuts[t]
            t += 1
            while heap and seen[heap[0][1]][-1] <= s:
                heappop(heap)
            above = _image_hits(sub, _succ(cut), part_hi, piece)
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
    with exact witnesses, ordered by letter, then component, then cut.
    Raises CorruptMap when pmap fails validation.
    """
    if sub.d != pmap.d:
        raise FieldMismatch("subdivision and map use different field contexts")
    pmap.require_valid()
    violations = []

    for letter in sub.alphabet:
        comps = sub.class_of(letter).components
        if len(comps) > 1:
            violations.append(
                GoodnessViolation(
                    "not-convex",
                    letter,
                    witness=(comps[0].sample_point(), comps[1].sample_point()),
                )
            )

    rank = {letter: r for r, letter in enumerate(sub.alphabet)}
    shared = []                            # in position order
    for (_, _, letter), cuts, parts in _sweep(sub, pmap):
        if not cuts:
            continue
        for p, color, *sides in _shared_colors(sub, rank, cuts, parts):
            a, b = (_pull_back(piece, _from_keys(lo, hi).sample_point())
                    for piece, lo, hi in sides)
            shared.append(
                GoodnessViolation(
                    "shared-image-color", letter, point=p,
                    color=color, witness=(a, b),
                )
            )
    violations.extend(sorted(shared, key=lambda v: rank[v.letter]))

    if violations:
        return violations
    return GoodnessCertificate(sub.content_id(), pmap.content_id())


class GluingMap:
    """Letter-to-letter projection from a refined alphabet to the original."""

    __slots__ = ("_mapping",)

    def __init__(self, mapping):
        self._mapping = {str(k): str(v) for k, v in mapping.items()}
        if not self._mapping:
            raise ValueError("empty gluing map")

    @property
    def mapping(self):
        return dict(self._mapping)

    def domain(self):
        return tuple(sorted(self._mapping))

    def image_alphabet(self):
        return tuple(sorted(set(self._mapping.values())))

    def is_bijective(self):
        return len(set(self._mapping.values())) == len(self._mapping)

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


def _cut_keys(lo_key, hi_key, cuts):
    """Split a key range at the keys of interior points; each point joins
    its right piece."""
    segments = []
    for cut in cuts:
        segments.append(_from_keys(lo_key, _pred(cut)))
        lo_key = cut
    segments.append(_from_keys(lo_key, hi_key))
    return segments


def refine_to_good(sub, pmap):
    """Cut every class at component boundaries and discontinuities.

    Returns (refined, gluing).  The refined subdivision is good for pmap:
    every new class is a single interval, and no new class has a
    discontinuity strictly inside it, so the image-color condition holds
    vacuously.  Gluing sends each fresh letter back to the letter it was
    cut from, and the new alphabet has at most (#old components) +
    (#discontinuities) letters.  Raises CorruptMap when pmap fails
    validation.
    """
    if sub.d != pmap.d:
        raise FieldMismatch("subdivision and map use different field contexts")
    pmap.require_valid()

    per_letter = {letter: [] for letter in sub.alphabet}
    for (lo_key, hi_key, letter), cuts, _ in _sweep(sub, pmap):
        per_letter[letter].extend(_cut_keys(lo_key, hi_key, cuts))

    # plain concatenation can collide (e.g. letters "A" and "A0"); an
    # underscore keeps names unambiguous while staying deterministic
    for sep in ("", "_"):
        names = [
            (f"{letter}{sep}{i}", letter, seg)
            for letter in sub.alphabet
            for i, seg in enumerate(per_letter[letter])
        ]
        if len({name for name, _, _ in names}) == len(names):
            break

    refined = Subdivision({name: BoundarySet([seg]) for name, _, seg in names})
    gluing = GluingMap({name: letter for name, letter, _ in names})
    return refined, gluing

