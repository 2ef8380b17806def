"""The sorted cell tables against linear and set-algebra references.

The library locates points, decides partitions, map validity and
condition 2 with one sorted cell table per tiling of [0, 1).  The
references below decide the same things the direct way, from public
BoundarySet operations and scans over the pieces only: condition 2 by
intersecting and transforming each side of every interior discontinuity,
bijectivity by pairwise intersection plus a union, piece_at by a scan for
the last piece starting at or before the point, color_of by asking
every class, and refinement by cutting each component at the
discontinuities a scan finds inside it.  Verdicts, violation records,
witnesses, refinements and located pieces must agree exactly.

Underneath, the tables order positions by keys led by an integer floor;
that order, and the comparison operators of scalars, which the same
floors decide first, are checked against the sign of the difference
decided from the rational and radical parts alone, and against 50-digit
decimals.  The BoundarySet operations the references use are
checked against set algebra on plain tuples, and the one rule by which
Component and HalfOpenInterval accept their ends against the same rule
decided by exact comparisons.
"""

import operator
import random
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ietwords import (
    AffinePiece,
    BoundarySet,
    Component,
    CorruptMap,
    ExactScalar,
    FieldMismatch,
    GluingMap,
    GoodnessCertificate,
    GoodnessViolation,
    HalfOpenInterval,
    IET,
    PiecewiseMap,
    PointOutsideDomain,
    Subdivision,
    format_scalar,
    interval,
    iet_to_map,
    is_good,
    make_scalar,
    mod1,
    refine_to_good,
    rotation,
)
from ietwords.exactnum import MAX_RADICAND, _floor64, is_squarefree
from ietwords.instances import (
    _point_pool,
    golden_alpha,
    random_instance,
    random_piecewise_map,
    random_iet,
    random_rational_instance,
    random_translation_instance,
)
from ietwords.intervalmap import MapViolation, ValidationReport
from ietwords.intervalsets import ABOVE, AT, BELOW, _from_keys, key

from conftest import q
from oracles import (Surd, decimal_cmp, decimal_value, floor_scaled, interval_verdict, map_id,
                     scalar_text, set_canonical, set_contains, set_fields, set_image, set_meets,
                     subdivision_id, surd_sign)

# ------------------------------------------------------------- references


def _image_parts(pmap, bset):
    """(piece, piece(bset ∩ domain)) for every piece the set meets."""
    for piece in pmap.pieces:
        part = bset.intersect(interval(piece.domain.lo, piece.domain.hi))
        if not part.is_empty():
            yield piece, part.transform(piece.slope, piece.intercept)


def _pull_back(piece, y):
    return y - piece.intercept if piece.slope == 1 else piece.intercept - y


def _first_hit(parts, cls):
    meets = ((piece, img.intersect(cls)) for piece, img in parts)
    return next(((piece, meet) for piece, meet in meets if not meet.is_empty()), None)


def reference_is_good(sub, pmap):
    violations = []
    for letter in sub.alphabet:
        comps = sub.class_of(letter).components
        if len(comps) > 1:
            violations.append(GoodnessViolation(
                "not-convex", letter,
                witness=(comps[0].sample_point(), comps[1].sample_point())))

    cuts = pmap.discontinuities()
    for letter in sub.alphabet:
        for comp in sub.class_of(letter).components:
            for p in cuts:
                if not comp.lo < p < comp.hi:
                    continue
                whole = BoundarySet([comp])
                left = list(_image_parts(pmap, whole.intersect(interval(comp.lo, p))))
                right = list(_image_parts(pmap, whole.intersect(
                    interval(p, comp.hi, lo_in=False, hi_in=True))))
                for color in sub.alphabet:
                    cls = sub.class_of(color)
                    hit_l, hit_r = _first_hit(left, cls), _first_hit(right, cls)
                    if hit_l is None or hit_r is None:
                        continue
                    a = _pull_back(hit_l[0], hit_l[1].sample_point())
                    b = _pull_back(hit_r[0], hit_r[1].sample_point())
                    violations.append(GoodnessViolation(
                        "shared-image-color", letter, point=p, color=color,
                        witness=(a, b)))
                    break

    if violations:
        return violations
    return GoodnessCertificate(sub.content_id(), pmap.content_id())


def reference_refine(sub, pmap):
    """Each component cut at the discontinuities a linear scan finds
    strictly inside it, each cut point joining the right-hand segment."""
    cuts = pmap.discontinuities()
    segments = []
    for letter in sub.alphabet:
        mine = []
        for c in sub.class_of(letter).components:
            lo, lo_in = c.lo, c.lo_in
            for p in cuts:
                if c.lo < p < c.hi:
                    mine.append(Component(lo, lo_in, p, False))
                    lo, lo_in = p, True
            mine.append(Component(lo, lo_in, c.hi, c.hi_in))
        segments += [(letter, i, seg) for i, seg in enumerate(mine)]
    for sep in ("", "_"):
        names = [f"{letter}{sep}{i}" for letter, i, _ in segments]
        if len(set(names)) == len(names):
            break
    refined = Subdivision({name: [seg] for name, (_, _, seg) in zip(names, segments)})
    return refined, GluingMap({name: letter for name, (letter, _, _) in zip(names, segments)})


def reference_validate(pmap):
    zero, one = ExactScalar.zero(pmap.d), ExactScalar.one(pmap.d)
    violations = []
    cursor = zero
    for p in pmap.pieces:
        if p.domain.lo > cursor:
            violations.append(MapViolation(
                "coverage-gap", f"nothing covers [{cursor}, {p.domain.lo})",
                witness=cursor))
        elif p.domain.lo < cursor:
            violations.append(MapViolation(
                "domain-overlap", f"domains overlap from {p.domain.lo}",
                witness=p.domain.lo))
        cursor = max(cursor, p.domain.hi)
    if cursor < one:
        violations.append(MapViolation(
            "coverage-gap", f"nothing covers [{cursor}, 1)", witness=cursor))

    images = []
    for i, p in enumerate(pmap.pieces):
        lo, hi, c = p.domain.lo, p.domain.hi, p.intercept
        if p.slope == 1:
            escapes = lo + c < zero or hi + c > one
        else:
            # the image (c - hi, c - lo] attains its top end
            escapes = c - hi < zero or c - lo >= one
        if escapes:
            violations.append(MapViolation(
                "image-escape", f"piece {i} maps {p.domain} outside [0, 1)",
                witness=p.domain.lo))
        elif p.slope == 1:
            images.append(interval(lo + c, hi + c))
        else:
            images.append(interval(c - hi, c - lo, lo_in=False, hi_in=True))

    bijective = False
    if len(images) == len(pmap.pieces):
        bijective = all(a.intersect(b).is_empty() for k, a in enumerate(images)
                        for b in images[k + 1:])
        if bijective:
            union = BoundarySet([c for image in images for c in image])
            bijective = union == interval(zero, one)
    return ValidationReport(tuple(violations), bijective)


def _outside(x):
    return not ExactScalar.zero(x.d) <= x < ExactScalar.one(x.d)


def reference_piece_at(pmap, x):
    """The piece with the greatest start at or before x (the last one on a
    tie), if it reaches past x."""
    if _outside(x):
        raise PointOutsideDomain(f"{x} outside [0, 1)")
    found = None
    for piece in pmap.pieces:
        if piece.domain.lo <= x and (found is None or piece.domain.lo >= found.domain.lo):
            found = piece
    if found is None or not x < found.domain.hi:
        raise CorruptMap(f"no piece contains {x}")
    return found


def reference_color_of(sub, x):
    if _outside(x):
        raise PointOutsideDomain(f"{x} outside [0, 1)")
    (letter,) = [c for c in sub.alphabet if sub.class_of(c).contains(x)]
    return letter


# ------------------------------------------------------------- generators


def q(num, den=1, d=0):
    return ExactScalar.from_rational(Fraction(num, den), d)


def cuts_inside_classes(rng):
    """A map with a subdivision whose boundaries all avoid its discontinuities.

    Class boundaries sit halfway between consecutive discontinuities, so
    every discontinuity lies strictly inside a class; with at most three
    letters, shared image colors and split classes are common.
    """
    d = rng.choice((0, 5))
    if rng.random() < 0.5:
        pmap = random_piecewise_map(rng, d)
    else:
        pmap = iet_to_map(random_iet(rng, d))
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    cuts = [zero, *pmap.discontinuities(), one]
    bounds = [zero, *((a + b) * Fraction(1, 2) for a, b in zip(cuts[1:-2], cuts[2:-1])), one]
    letters = "ABC"[:rng.randint(1, 3)]
    classes = {}
    for lo, hi in zip(bounds, bounds[1:]):
        classes.setdefault(rng.choice(letters), []).append(Component(lo, True, hi, False))
    return pmap, Subdivision(classes)


def with_joins(rng, pieces):
    """The pieces, about three in ten split in two with the same formula:
    a continuous junction, which is no discontinuity."""
    split = []
    for p in pieces:
        lo, hi = p.domain.lo, p.domain.hi
        if rng.random() < 0.3:
            mid = lo + (hi - lo) * Fraction(rng.randint(1, 3), 4)
            split.append(AffinePiece(HalfOpenInterval(lo, mid), p.slope, p.intercept))
            lo = mid
        split.append(AffinePiece(HalfOpenInterval(lo, hi), p.slope, p.intercept))
    return split


def several_cuts_per_component(rng):
    """A map with a one- or two-class subdivision, so that one component
    holds several discontinuities.

    About half the pieces have slope -1, and many of those start at a
    discontinuity.  Some pieces are split in two with the same formula, a
    continuous junction that is no discontinuity.  Class boundaries are
    drawn from the piece boundaries, the images of piece ends and points
    between them, and each boundary point joins the class on its left or
    on its right, so components end closed or open, on cuts and off them.
    """
    if rng.random() < 0.5:
        d = rng.choice((0, 5))
        pieces = random_piecewise_map(rng, d, max_pieces=8).pieces
    else:
        d = 0
        pieces = random_rational_instance(rng)[0].pieces
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    split = with_joins(rng, pieces)
    pmap = PiecewiseMap(split).require_valid()

    ends = {x for p in split for x in (p.domain.lo, p(p.domain.lo), p(p.domain.hi))}
    ends = sorted(x for x in ends | {zero, one} if zero <= x <= one)
    pool = sorted({*ends, *((a + b) * Fraction(1, 2) for a, b in zip(ends, ends[1:]))}
                  - {zero, one})
    bounds = sorted(rng.sample(pool, rng.choice((0, 0, 1, 2, 3))))
    letters = rng.sample("AB", 2)
    classes = {}
    lo, lo_in = zero, True
    for i, x in enumerate([*bounds, one]):
        hi_in = x != one and rng.random() < 0.5
        classes.setdefault(letters[i % 2], []).append(Component(lo, lo_in, x, hi_in))
        lo, lo_in = x, not hi_in
    return pmap, Subdivision(classes)


def random_map(rng):
    """Pieces on random grid domains: gaps, overlaps and escapes are common."""
    d = rng.choice((0, 5))
    pieces = []
    for _ in range(rng.randint(1, 5)):
        den = rng.choice((2, 3, 4, 6, 8))
        a = rng.randint(0, den - 1)
        b = rng.randint(a + 1, den)
        c = q(rng.randint(-den, 2 * den), den, d)
        if d == 5 and rng.random() < 0.3:
            c = c + golden_alpha() if rng.random() < 0.5 else c - golden_alpha()
        pieces.append(AffinePiece(HalfOpenInterval(q(a, den, d), q(b, den, d)),
                                  rng.choice((1, -1)), c))
    return PiecewiseMap(pieces)


def perturbed_translation_map(rng):
    """A translation bijection with one piece often shifted or reflected."""
    d = rng.choice((0, 5))
    pieces = list(iet_to_map(random_iet(rng, d)).pieces)
    if rng.random() < 0.7:
        j = rng.randrange(len(pieces))
        p = pieces[j]
        delta = q(rng.choice((-1, 1)), rng.choice((4, 8, 16)), d)
        if rng.random() < 0.5:
            pieces[j] = AffinePiece(p.domain, 1, p.intercept + delta)
        else:
            # reflect onto the same image, then maybe shift it
            c = p.domain.lo + p.domain.hi + p.intercept
            pieces[j] = AffinePiece(p.domain, -1, c + delta if rng.random() < 0.5 else c)
    return PiecewiseMap(pieces)


# ------------------------------------------------------------------ tests


def assert_same_goodness(sub, pmap):
    verdict = is_good(sub, pmap)
    assert verdict == reference_is_good(sub, pmap)
    refined, gluing = refine_to_good(sub, pmap)
    ref_refined, ref_gluing = reference_refine(sub, pmap)
    assert refined.content_id() == ref_refined.content_id()
    assert gluing == ref_gluing
    return verdict


def test_goodness_matches_reference_on_seeded_instances():
    rng = random.Random(11)
    for _ in range(60):
        for d in (0, 5):
            pmap, sub, _ = random_instance(rng, d)
            assert_same_goodness(sub, pmap)
        pmap, sub, _ = random_translation_instance(rng, 5)
        assert_same_goodness(sub, pmap)
        pmap, sub, _, _ = random_rational_instance(rng)
        assert_same_goodness(sub, pmap)


def test_goodness_matches_reference_when_cuts_sit_inside_classes():
    rng = random.Random(12)
    fired = 0
    for _ in range(150):
        pmap, sub = cuts_inside_classes(rng)
        verdict = assert_same_goodness(sub, pmap)
        if isinstance(verdict, list):
            fired += any(v.kind == "shared-image-color" for v in verdict)
    assert fired > 50


def test_goodness_matches_reference_with_several_cuts_per_component():
    rng = random.Random(13)
    most = 0
    for _ in range(300):
        pmap, sub = several_cuts_per_component(rng)
        assert_same_goodness(sub, pmap)
        cuts = pmap.discontinuities()
        most = max(most, *(sum(c.lo < p < c.hi for p in cuts)
                           for letter in sub.alphabet
                           for c in sub.class_of(letter).components))
    assert most >= 5


def test_validate_matches_reference_on_instances_and_invalid_maps():
    rng = random.Random(13)
    kinds, bijective = set(), 0
    maps = [random_map(rng) for _ in range(800)]
    maps += [perturbed_translation_map(rng) for _ in range(300)]
    maps += [random_instance(rng, rng.choice((0, 5)))[0] for _ in range(50)]
    for pmap in maps:
        report = pmap.validate()
        assert report == reference_validate(pmap), repr(pmap)
        kinds.update(v.kind for v in report.violations)
        bijective += report.bijective
    assert kinds == {"coverage-gap", "domain-overlap", "image-escape"}
    assert 0 < bijective < len(maps)


def outcome(locate, *args):
    try:
        return locate(*args)
    except (PointOutsideDomain, CorruptMap) as e:
        return type(e)


def probes(d, bounds):
    """Every cell endpoint, a point inside every cell, 1 and -alpha."""
    points = [ExactScalar.one(d), -golden_alpha() if d == 5 else q(-1, 3, d)]
    for lo, hi in bounds:
        points += [lo, (lo + hi) * Fraction(1, 2), hi]
    return points


def domain_bounds(pmap):
    return [(p.domain.lo, p.domain.hi) for p in pmap.pieces]


def test_point_location_matches_linear_scans():
    rng = random.Random(14)
    instances = []
    for _ in range(40):
        instances.append(random_instance(rng, rng.choice((0, 5)))[:2])
        instances.append(random_rational_instance(rng)[:2])
    for pmap, sub in instances:
        class_bounds = [(c.lo, c.hi) for bset in sub.classes.values() for c in bset]
        for x in probes(pmap.d, domain_bounds(pmap) + class_bounds):
            assert outcome(pmap.piece_at, x) is outcome(reference_piece_at, pmap, x)
            assert outcome(sub.color_of, x) == outcome(reference_color_of, sub, x)

    kinds = set()
    maps = [random_map(rng) for _ in range(300)]
    maps += [perturbed_translation_map(rng) for _ in range(100)]
    for pmap in maps:
        for x in probes(pmap.d, domain_bounds(pmap)):
            located = outcome(pmap.piece_at, x)
            assert located is outcome(reference_piece_at, pmap, x), (pmap, x)
            kinds.add(located if isinstance(located, type) else AffinePiece)
    assert kinds == {AffinePiece, CorruptMap, PointOutsideDomain}


def test_is_good_rejects_maps_that_fail_validation():
    sub = Subdivision({"A": [Component(q(0), True, q(1), False)]})
    overlapping = [(q(0), q(2, 3)), (q(1, 2), q(1))]
    gapped = [(q(0), q(1, 3)), (q(1, 2), q(1))]
    for domains in (overlapping, gapped):
        pmap = PiecewiseMap(AffinePiece(HalfOpenInterval(lo, hi), 1, q(0))
                            for lo, hi in domains)
        with pytest.raises(CorruptMap):
            is_good(sub, pmap)


# ------------------------------------------------------------ content ids


def number_parts(x):
    return (x.rational_part, x.radical_part, x.d)


def oracle_subdivision_id(sub):
    return subdivision_id({
        letter: [((*number_parts(c.lo), c.lo_in), (*number_parts(c.hi), c.hi_in))
                 for c in bset.components]
        for letter, bset in sub.classes.items()})


def oracle_map_id(pmap):
    return map_id([(number_parts(p.domain.lo), number_parts(p.domain.hi), p.slope,
                    number_parts(p.intercept)) for p in pmap.pieces])


def long_partition(rng, d, k):
    """A k-interval exchange and a subdivision of about 5k/4 cells, both on
    one pool of points.  Letters repeat at random, so classes of several
    components interleave with other letters, and one class is a point."""
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    pool, x = set(), zero
    while len(pool) < 3 * k:
        x = mod1(x + golden_alpha()) if d else q(rng.randint(1, 10**6 - 1), 10**6)
        pool.add(x)
    points = rng.sample(sorted(pool), 2 * k - 1 + k // 4)
    cuts = [zero, *sorted(points[:k - 1]), one]
    bounds = [zero, *sorted(points[k - 1:]), one]
    pmap = iet_to_map(IET(tuple(b - a for a, b in zip(cuts, cuts[1:])),
                          tuple(rng.sample(range(k), k))))
    cells = [Component(lo, True, hi, False) for lo, hi in zip(bounds, bounds[1:])]
    point = bounds[1]
    cells[1] = Component(point, False, bounds[2], False)
    classes = {"p": [Component(point, True, point, True)]}
    for cell in cells:
        classes.setdefault(f"c{rng.randrange(k // 5)}", []).append(cell)
    return pmap, Subdivision(classes)


def pinned_instances():
    """A subdivision with open, closed and shared ends in Q(sqrt 5), a map
    with a slope -1 piece whose cut lies inside a cell, the refinement
    that cut makes, and a rotation in Q(sqrt 4000037) by an angle with
    300-digit parts."""
    third, half = q(1, 3, 5), make_scalar(2, 4, 0, 1, 5)
    sub = Subdivision({"A": [Component(q(0, 1, 5), True, third, False),
                             Component(q(1, 2, 5), False, q(1, 1, 5), False)],
                       "B": [Component(q(1, 3, 5), True, half, True)]})
    a = make_scalar(1, 4, 1, 9, 5)               # inside B's cell [1/3, 1/2]
    flip = PiecewiseMap([AffinePiece(HalfOpenInterval(q(0, 1, 5), a), -1, a),
                         AffinePiece(HalfOpenInterval(a, q(1, 1, 5)), 1, q(0, 1, 5))])
    refined, _ = refine_to_good(sub, flip)
    angle = make_scalar(-10**299 + 7, 3 * 10**299 + 1, 10**299 - 3, 12000 * 10**299 + 2,
                        4000037)
    return sub, flip, refined, rotation(mod1(angle))


def test_content_ids_match_the_oracle_text():
    # (2 + sqrt 5)/2 is 1 + (1/2) sqrt 5: its two parts reduce differently
    assert str(make_scalar(2, 2, 1, 2, 5)) == scalar_text(Fraction(1), Fraction(1, 2), 5)
    beta = make_scalar(2, 6, 1, 6, 5)                # 1/3 + (1/6) sqrt 5
    halves = Subdivision({"A": [Component(q(0, 1, 5), True, beta, False)],
                          "B": [Component(beta, True, q(1, 1, 5), False)]})
    # neighbouring cells whose shared ends are equal but distinct objects
    third, half = q(1, 3, 5), make_scalar(2, 4, 0, 1, 5)
    assert third == q(1, 3, 5) and third is not q(1, 3, 5) and half == q(1, 2, 5)
    hand = Subdivision({"A": [Component(q(0, 1, 5), True, third, False),
                              Component(q(1, 2, 5), False, q(1, 1, 5), False)],
                        "B": [Component(q(1, 3, 5), True, half, True)]})
    rng = random.Random(19)
    instances = [(rotation(beta), halves), (rotation(beta), hand), (rotation(q(1, 3)), Subdivision(
        {"x": [Component(q(0), True, q(1, 2), True)],
         "y": [Component(q(1, 2), False, q(1), False)]}))]
    for _ in range(30):
        instances += [random_instance(rng, d)[:2] for d in (0, 5)]
        instances += [random_translation_instance(rng, 5)[:2],
                      random_rational_instance(rng)[:2], several_cuts_per_component(rng)]
    instances += [long_partition(rng, d, 200) for d in (0, 5)]
    pinned_sub, flip, _, _ = pinned_instances()
    instances.append((flip, pinned_sub))
    seen = dict.fromkeys(("several components", "singleton", "flip", "cut refinement"), 0)
    for pmap, sub in instances:
        refined, _ = refine_to_good(sub, pmap)
        for s in (sub, refined):
            assert s.content_id() == oracle_subdivision_id(s)
        assert pmap.content_id() == oracle_map_id(pmap)
        seen["several components"] += any(len(c) > 1 for c in sub.classes.values())
        seen["singleton"] += any(c.lo == c.hi for cls in sub.classes.values() for c in cls)
        seen["flip"] += any(p.slope == -1 for p in pmap.pieces)
        seen["cut refinement"] += len(refined.table.cells) > len(sub.table.cells)
    assert min(seen.values()) >= 2, seen
    # four ids pinned as literals, the refinement cut inside a cell
    sub, flip, refined, rot = pinned_instances()
    assert len(refined.table.cells) == len(sub.table.cells) + 1
    assert rot.content_id() == oracle_map_id(rot)
    assert [s.content_id() for s in (sub, refined)] == ["sub:e751d1cbef8f", "sub:b9cef11f74bc"]
    assert [m.content_id() for m in (flip, rot)] == ["map:30afe46e0005", "map:84baab861130"]
    # with gaps and overlaps, a piece need not start where the one before ends
    for pmap in (random_map(rng) for _ in range(100)):
        assert pmap.content_id() == oracle_map_id(pmap)


def test_format_scalar_matches_the_oracle_text():
    # a seeded pool over four fields, with 300-digit integers, q = 1,
    # negative radical parts and parts that reduce by different factors;
    # the oracle reads the parts as drawn, d = 0 dropping the radical one
    rng = random.Random(30)
    seen = dict.fromkeys(("300 digits", "q = 1", "negative radical", "reduce differently"), 0)
    for d in (0, 2, 5, 4000037):
        for _ in range(250):
            big = rng.choice((1, 12, 10**6, 10**300))
            a, b = (Fraction(rng.randint(-big, big), rng.choice((1, rng.randint(1, big))))
                    for _ in range(2))
            b = b if d else Fraction(0)
            x = make_scalar(a.numerator, a.denominator, b.numerator, b.denominator, d)
            assert format_scalar(x) == scalar_text(a, b, d)
            seen["300 digits"] += max(abs(a.numerator), abs(b.numerator)) >= 10**299
            seen["q = 1"] += a.denominator == b.denominator == 1
            seen["negative radical"] += b < 0
            seen["reduce differently"] += b != 0 and a.denominator != b.denominator
    assert min(seen.values()) >= 200, seen


def test_a_map_id_stays_the_same():
    rng = random.Random(23)
    maps = [random_map(rng) for _ in range(30)]
    maps += [several_cuts_per_component(rng)[0] for _ in range(30)]
    for pmap in maps:
        first = pmap.content_id()
        assert pmap.content_id() == first == oracle_map_id(pmap)
        pmap.validate()
        pmap.discontinuities()
        assert pmap.content_id() == first
        # the same pieces in a map whose report and cuts came first
        again = PiecewiseMap(pmap.pieces)
        again.validate()
        again.discontinuities()
        assert again.content_id() == first


def test_refined_gluing_is_the_checked_gluing():
    # refine_to_good hands out its gluing without checking the letters
    # again; it must equal the one the public constructor builds
    reversal = iet_to_map(IET((q(1, 12),) * 12, tuple(range(11, -1, -1))))

    def split(left, right):
        return Subdivision({left: [Component(q(0), True, q(23, 24), False)],
                            right: [Component(q(23, 24), True, q(1), False)]})

    rng = random.Random(29)
    instances = [(reversal, split("A", "A0")), (reversal, split("B", "B1"))]
    instances += [random_instance(rng, d)[:2] for d in (0, 5) for _ in range(20)]
    instances += [several_cuts_per_component(rng) for _ in range(20)]
    alphabets = []
    for pmap, sub in instances:
        refined, gluing = refine_to_good(sub, pmap)
        checked = GluingMap(gluing.mapping)
        assert gluing == checked and hash(gluing) == hash(checked)
        assert list(gluing.mapping.items()) == list(checked.mapping.items())
        assert tuple(sorted(gluing.mapping)) == refined.alphabet
        assert (tuple(sorted(set(gluing.mapping.values())))
                == tuple(sorted({gluing(l) for l in refined.alphabet})))
        alphabets.append(refined.alphabet)
    # "A" cut in twelve and "A0" mint no common name, so names stay plain;
    # "B" cut in twelve and "B1" would both mint "B10": underscores instead
    assert {"A0", "A11", "A00"} <= set(alphabets[0])
    assert {"B_10", "B1_0"} <= set(alphabets[1]) and "B10" not in alphabets[1]


# ------------------------------------------- the order of position keys
#
# A key (floor(x * 2**64), x, eps) must order positions exactly as the
# exact order of x, then eps, does.  The exact order is the sign of the
# difference, read from the rational and radical parts by surd_sign, not
# from the comparison operators: those are decided by the same floors
# first, so they are checked against it too.  The pairs below are drawn to
# reach every branch of that floor: both signs of the radical part,
# coefficients past float range, points closer than 2**-64 (whose floors
# tie), equal values built differently, and int and Fraction points.

NEAR_MAX = MAX_RADICAND - 2                          # 2 * 499999999999
RADICANDS = (0, 1, 2, 5, 4000037, NEAR_MAX)
SCALE = 2**64

coefficients = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6),
                         st.integers(-10**400, 10**400))
denominators = st.one_of(st.integers(1, 4), st.integers(1, 10**6), st.integers(1, 10**400))


@st.composite
def scalars(draw, d):
    if draw(st.booleans()):
        return ExactScalar(draw(coefficients), draw(coefficients), draw(denominators), d)
    # on or next to a multiple of 2**-64
    return ExactScalar.from_rational(Fraction(draw(coefficients), SCALE), d) + draw(tiny(d))


@st.composite
def tiny(draw, d):
    """A value of absolute size below 2**-64, rational or in field d."""
    if d > 1 and draw(st.booleans()):
        b = draw(st.integers(1, 10**6))
        sign = draw(st.sampled_from((1, -1)))
        # 0 < b sqrt(d) - isqrt(b*b*d) < 1
        return ExactScalar(-sign * isqrt(b * b * d), sign * b,
                           SCALE * draw(st.integers(1, 2**20)), d)
    m = draw(st.integers(2, 2**40))
    return Fraction(draw(st.integers(-m + 1, m - 1)), SCALE * m)


@st.composite
def rebuilt(draw, x):
    """x again, as another object: scaled coefficients, a sum and a
    difference, or for a rational x its int or Fraction value."""
    a, b = x.rational_part, x.radical_part
    how = draw(st.sampled_from(("scaled", "sum", "plain")))
    if how == "plain" and b == 0:
        return int(a) if a.denominator == 1 else a
    if how == "sum":
        z = draw(scalars(x.d))
        return (x + z) - z
    m = draw(st.integers(2, 10**6))
    return make_scalar(a.numerator * m, a.denominator * m,
                       b.numerator * m, b.denominator * m, x.d)


@st.composite
def pairs(draw):
    d = draw(st.sampled_from(RADICANDS))
    x = draw(scalars(d))
    how = draw(st.sampled_from(("apart", "close", "equal", "plain")))
    if how == "apart":
        y = draw(scalars(d))
    elif how == "close":
        y = x + draw(tiny(d))
    elif how == "equal":
        y = draw(rebuilt(x))
    else:
        y = draw(st.one_of(coefficients, st.fractions(max_denominator=10**30)))
    return x, y


def decimal_form(v):
    """The (a_num, a_den, b_num, b_den, d) form decimal_value evaluates."""
    if isinstance(v, ExactScalar):
        a, b = v.rational_part, v.radical_part
        return a.numerator, a.denominator, b.numerator, b.denominator, v.d
    f = Fraction(v)
    return f.numerator, f.denominator, 0, 1, 0


def settled_by_decimals(x, y):
    """Whether 50 digits order x and y: their gap exceeds the rounding of
    the decimal evaluation, relative to the size of both parts."""
    fx, fy = decimal_form(x), decimal_form(y)
    gap = abs(decimal_value(*fx) - decimal_value(*fy))
    size = sum(decimal_value(abs(a), p, abs(b), r, d) for a, p, b, r, d in (fx, fy))
    return gap * 10**40 > size


def order(u, v):
    """-1, 0 or 1, read from the comparison operators."""
    return (u > v) - (u < v)


def parts_of(v):
    """(rational part, radical part) of a scalar, int or Fraction."""
    if isinstance(v, ExactScalar):
        return v.rational_part, v.radical_part
    return Fraction(v), Fraction(0)


def exact_order(u, v):
    """-1, 0 or 1: the sign of u - v, for u and v of one field or plain
    rationals, from their parts alone."""
    (a, b), (c, e) = parts_of(u), parts_of(v)
    d = next((w.d for w in (u, v) if isinstance(w, ExactScalar)), 0)
    return surd_sign(a - c, b - e, d)


def uncached(v):
    """v again as a new object, no order key cached yet; an int or
    Fraction as it is."""
    if not isinstance(v, ExactScalar):
        return v
    (a, b), d = parts_of(v), v.d
    return make_scalar(a.numerator, a.denominator, b.numerator, b.denominator, d)


def exact_point_pool(rng, d):
    """The draws of instances._point_pool, the direct way: the golden orbit
    walked again on every call, and the points sorted by their exact order."""
    points = set()
    for _ in range(24):
        den = rng.randint(2, 64)
        points.add(ExactScalar.from_rational(Fraction(rng.randint(1, den - 1), den), d))
    if d == 5:
        x = ExactScalar.zero(5)
        for _ in range(12):
            x = mod1(x + golden_alpha())
            points.add(x)
    return sorted(points, key=cmp_to_key(exact_order))


@pytest.mark.parametrize("d", [0, 2, 5])
def test_point_pools_match_an_exact_sort(d):
    # same points in the same order, and the same draws left to come
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    for seed in range(60):
        fast, exact = random.Random(seed), random.Random(seed)
        pool = _point_pool(fast, d)
        assert pool == exact_point_pool(exact, d)
        assert all(zero < x < one for x in pool)
        assert fast.getstate() == exact.getstate()


def test_near_max_radicand_is_a_field():
    assert is_squarefree(NEAR_MAX)


@settings(max_examples=600, deadline=None)
@given(pairs())
def test_key_order_is_the_exact_order(pair):
    x, y = pair
    for v in pair:
        # k <= v * 2**64 < k + 1
        k, (a, b) = _floor64(v), parts_of(v)
        d = v.d if isinstance(v, ExactScalar) else 0
        assert surd_sign(a * SCALE - k, b * SCALE, d) >= 0 > surd_sign(a * SCALE - k - 1, b * SCALE, d), v
    exact = exact_order(x, y)
    for ex in (BELOW, AT, ABOVE):
        for ey in (BELOW, AT, ABOVE):
            assert order(key(x, ex), key(y, ey)) == (exact or order(ex, ey)), (x, y)
    # each operator, either way round, with the order key cached on
    # neither side, on one side or on both; a comparison of two scalars
    # leaves both keys cached
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for cached in ((), (0,), (1,), (0, 1)):
            for swap in (False, True):
                u, v = uncached(x), uncached(y)
                scalars = [w for w in (u, v) if isinstance(w, ExactScalar)]
                assert all(w._k is None for w in scalars)
                for i in cached:
                    _floor64((u, v)[i])
                u, v, sign = (v, u, -exact) if swap else (u, v, exact)
                assert compare(u, v) == compare(sign, 0), (x, y, compare, cached, swap)
                assert len(scalars) == 1 or all(w._k is not None for w in scalars)
    if settled_by_decimals(x, y):
        assert decimal_cmp(decimal_form(x), decimal_form(y)) == exact


# ------------------------------------------- BoundarySet against tuples
#
# Endpoints are ints, Fractions and scalars of Q and Q(sqrt 5), drawn from
# a few values so that ends often coincide.  A value is a pair (a, b) for
# a + b*sqrt(5); only Q(sqrt 5) has values with b != 0.

RATIONALS = [(Fraction(k, 4), Fraction(0)) for k in range(9)]
SURDS = RATIONALS + [(Fraction(a), Fraction(b)) for a, b in (
    ("-1/2", "1/2"), ("3/2", "-1/2"), ("0", "1/4"), ("1/4", "1/4"), ("-1", "1"), ("0", "1/2"))]


def number(value, field):
    """The value in this field, or as an int or Fraction for field None."""
    a, b = value
    if field is None:
        return int(a) if a.denominator == 1 else a
    return make_scalar(a.numerator, a.denominator, b.numerator, b.denominator, field)


def surd(x):
    if isinstance(x, ExactScalar):
        return Surd(x.rational_part, x.radical_part, x.d)
    return Surd(x)


def random_components(rng, fields):
    """1 to 4 components, each with its ends in one of `fields`."""
    comps = []
    for _ in range(rng.randint(1, 4)):
        field = rng.choice(fields)
        ends = sorted(rng.sample(SURDS if field == 5 else RATIONALS, 2), key=lambda v: Surd(*v, 5))
        if rng.random() < 0.15:
            ends[1] = ends[0]
        flags = [True, True] if ends[0] == ends[1] else [rng.random() < 0.5 for _ in ends]
        # a rational end of a field's component may still be plain
        lo, hi = (number(v, field if v[1] or rng.random() < 0.5 else None) for v in ends)
        comps.append(Component(lo, flags[0], hi, flags[1]))
    return comps


def tuples(comps):
    return [(surd(c.lo), c.lo_in, surd(c.hi), c.hi_in) for c in comps]


def as_tuples(bset):
    return tuples(bset.components)


def points():
    """Every drawn value and every midpoint between two, in each form it has."""
    values = sorted(SURDS, key=lambda v: Surd(*v, 5))
    values += [((a + c) / 2, (b + e) / 2) for (a, b), (c, e) in zip(values, values[1:])]
    return [number(v, field) for v in values
            for field in ((5,) if v[1] else (None, 0, 2, 5))]


POINTS = points()


def check_contains(bset, comps, fields=None):
    """bset holds exactly the points the components hold, and refuses
    exactly the scalars from a field other than theirs, or than `fields`
    when given."""
    (field,) = (set_fields(comps) if fields is None else fields) or {None}
    for x in POINTS:
        if field is not None and isinstance(x, ExactScalar) and x.d != field:
            with pytest.raises(FieldMismatch):
                bset.contains(x)
        else:
            assert bset.contains(x) == (x in bset) == set_contains(comps, surd(x)), x


SET_FIELDS = ([None], [None, 0], [None, 5], [0, 5])


def test_boundary_sets_match_plain_tuples():
    rng = random.Random(41)
    seen = dict.fromkeys(("singleton", "closed touch", "open touch", "merge", "mismatch",
                          "empty meet", "equal", "reflection"), 0)
    made = []
    for _ in range(400):
        comps = random_components(rng, rng.choice(SET_FIELDS))
        plain = tuples(comps)
        if len(set_fields(plain)) > 1:
            seen["mismatch"] += 1
            with pytest.raises(FieldMismatch):
                BoundarySet(comps)
            continue
        bset = BoundarySet(comps)
        canonical = set_canonical(plain)
        assert as_tuples(bset) == canonical and len(bset) == len(canonical)
        check_contains(bset, plain)
        # the same set from its own components, reordered and repeated
        again = BoundarySet(rng.sample(comps, len(comps)) + list(bset.components))
        assert again == bset and hash(again) == hash(bset)
        made.append((bset, plain))
        seen["singleton"] += any(c[0] == c[2] for c in canonical)
        seen["merge"] += len(canonical) < len(plain)
        for c, e in ((c, e) for c in plain for e in plain if c[2] == e[0] and c is not e):
            seen["closed touch" if c[3] or e[1] else "open touch"] += 1
    canonical = [set_canonical(plain) for _, plain in made]
    for (s, _), s_canon in zip(made[:200], canonical):
        for (t, _), t_canon in zip(made[:200], canonical):
            assert (s == t) == (s_canon == t_canon) and (s != t) == (s_canon != t_canon)
            if s == t and s is not t:
                seen["equal"] += 1
                assert hash(s) == hash(t)
    for (s, s_plain), (t, t_plain) in zip(made, made[1:]):
        s_canon, t_canon = set_canonical(s_plain), set_canonical(t_plain)
        if len(set_fields(s_plain) | set_fields(t_plain)) > 1:
            with pytest.raises(FieldMismatch):
                s.intersect(t)
        else:
            meets = set_meets(s_canon, t_canon)
            meet = s.intersect(t)
            assert as_tuples(meet) == set_canonical(meets)
            # a meet keeps its operands' field, even where the ends it keeps are plain
            check_contains(meet, meets, set_fields(s_plain) | set_fields(t_plain))
            seen["empty meet"] += meet.is_empty()
        field = rng.choice(sorted(set_fields(s_plain)) or [None, 0, 5])
        slope = rng.choice((1, -1))
        intercept = number(rng.choice(SURDS if field == 5 else RATIONALS), field)
        images = set_image(s_canon, slope, surd(intercept))
        image = s.transform(slope, intercept)
        assert as_tuples(image) == set_canonical(images)
        check_contains(image, images)
        assert image.transform(slope, -intercept if slope == 1 else intercept) == s
        seen["reflection"] += slope == -1
    assert min(seen.values()) >= 5, seen


def domain_ends(rng, d):
    """Sorted distinct points of [0, 1] in field d, with radicals for d > 1."""
    pool = {ExactScalar.zero(d), ExactScalar.one(d), *_point_pool(rng, d)}
    if d > 1:
        # frac(k sqrt d)
        pool.update(make_scalar(-isqrt(k * k * d), 1, k, 1, d) for k in range(1, 6))
    return sorted(pool)


def test_components_read_from_sets_are_the_checked_ones():
    # a set builds its components from its key ranges, a meet or an image
    # too, and HalfOpenInterval a domain from the range it checked: each
    # must equal the one built and checked from its ends, and keep the keys
    # of its ends
    rng = random.Random(43)
    seen = dict.fromkeys(("singleton", "meet", "image", *((a, b) for a in (False, True)
                                                          for b in (False, True))), 0)

    def check(c):
        checked = Component(c.lo, c.lo_in, c.hi, c.hi_in)
        assert type(c) is Component and c == checked and hash(c) == hash(checked)
        assert (c.lo_key, c.hi_key, str(c)) == (checked.lo_key, checked.hi_key, str(checked))
        assert (c.lo_key, c.hi_key) == (key(c.lo, AT if c.lo_in else ABOVE),
                                        key(c.hi, AT if c.hi_in else BELOW))
        assert c.sample_point() == checked.sample_point()
        seen["singleton" if c.lo == c.hi else (c.lo_in, c.hi_in)] += 1

    for _ in range(300):
        fields = rng.choice(SET_FIELDS)
        comps, others = random_components(rng, fields), random_components(rng, fields)
        if len(set_fields(tuples(comps) + tuples(others))) > 1:
            continue
        bset = BoundarySet(comps)
        field = rng.choice(sorted(set_fields(tuples(comps))) or [None, 0, 5])
        intercept = number(rng.choice(SURDS if field == 5 else RATIONALS), field)
        meet = bset.intersect(BoundarySet(others))
        image = bset.transform(rng.choice((1, -1)), intercept)
        for c in [*bset.components, *(_from_keys(c.lo_key, c.hi_key) for c in comps)]:
            check(c)
        for kind, derived in (("meet", meet), ("image", image)):
            for c in derived.components:
                check(c)
                seen[kind] += 1
    for d in (0, 2, 5):
        for _ in range(100):
            lo, hi = rng.sample(domain_ends(rng, d), 2)
            h = HalfOpenInterval(*sorted((lo, hi)))
            check(h)
            assert h == Component(h.lo, True, h.hi, False)
    assert min(seen.values()) >= 20, seen


def test_derived_sets_keep_the_field_of_their_endpoints():
    # a meet takes the field of the ends it keeps, not that of its left
    # operand; an image that of the shifted ends, not that of the set
    root5 = interval(q(1, 4, 5), make_scalar(-1, 2, 1, 2, 5))     # [1/4, 0.618...)
    meet = interval(0, Fraction(1, 2)).intersect(root5)
    image = interval(0, 1).transform(1, q(1, 4))
    for derived, field in ((meet, 5), (image, 0)):
        assert derived.contains(Fraction(3, 8)) and derived.contains(q(3, 8, field))
        for other in {0, 2, 5} - {field}:
            with pytest.raises(FieldMismatch):
                derived.contains(q(3, 8, other))


def test_a_meet_keeps_the_field_of_its_operands():
    # the meet keeps the int ends of [0, 1), yet it lies in the Q(sqrt 5)
    # of its other operand; so does an empty meet
    unit5 = interval(q(0, 1, 5), q(1, 1, 5))
    for meet in (interval(0, 1).intersect(unit5), unit5.intersect(interval(0, 1)),
                 interval(0, Fraction(1, 4)).intersect(interval(q(1, 2, 5), q(1, 1, 5)))):
        assert meet.contains(q(1, 2, 5)) == (not meet.is_empty())
        for other in (0, 2):
            with pytest.raises(FieldMismatch):
                meet.contains(q(1, 2, other))


# ------------------------------------------------------ the interval rule
#
# Component and HalfOpenInterval decide on keys whether their ends bound an
# interval; oracles.interval_verdict decides it by exact comparisons of
# Surds.  Each end is drawn as a pair (rational part, radical part).

FLAG_PAIRS = [(a, b) for a in (False, True) for b in (False, True)]


def end_value(rng, d):
    """A value of field d, mostly in [0, 1], some outside it, and one in a
    hundred with a 3000-digit denominator."""
    den = rng.randint(1, 12)
    a = Fraction(rng.randint(-den // 2 - 1, 3 * den // 2 + 1), den)
    if rng.random() < 0.01:
        a += Fraction(rng.randint(-9, 9), 10**2999 + rng.randint(1, 99))
    b = Fraction(0)
    if d and rng.random() < 0.5:
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 8))
    # keep a + b*sqrt(d) near a, which is near [0, 1]
    return a - Fraction(round(float(b) * d**0.5 * 16), 16), b


def tiny_value(rng, d):
    """A nonzero value of field d of absolute size below 2**-64."""
    m = rng.randint(2, 2**20)
    if d and rng.random() < 0.5:
        c, sign = rng.randint(1, 10**6), rng.choice((1, -1))
        # 0 < c*sqrt(d) - isqrt(c*c*d) < 1
        return Fraction(-sign * isqrt(c * c * d), SCALE * m), Fraction(sign * c, SCALE * m)
    return Fraction(rng.choice((1, -1)) * rng.randint(1, m - 1), SCALE * m), Fraction(0)


def interval_ends(rng, d):
    """(kind, lo, hi): two values of field d that lie apart, are equal,
    lie within 2**-64 of each other, or sit on or next to 0 and 1."""
    kind = rng.choice(("apart", "equal", "close", "unit"))
    if kind == "unit":
        ends = [(Fraction(rng.randint(0, 1)), Fraction(0)) for _ in range(2)]
        for i in (0, 1):
            if rng.random() < 0.5:
                a, b = tiny_value(rng, d)
                ends[i] = (ends[i][0] + a, ends[i][1] + b)
        return kind, *ends
    lo = end_value(rng, d)
    if kind == "apart":
        return kind, lo, end_value(rng, d)
    if kind == "equal":
        return kind, lo, lo
    a, b = tiny_value(rng, d)
    return kind, *rng.sample([lo, (lo[0] + a, lo[1] + b)], 2)


def scalar_of(value, d):
    a, b = value
    return make_scalar(a.numerator, a.denominator, b.numerator, b.denominator, d)


def library_verdict(build):
    """("ok", the text) of what build() returns, or its exception's name and message."""
    try:
        built = build()
    except (ValueError, TypeError) as e:
        return type(e).__name__, str(e)
    return "ok", str(built)


def oracle_keys(lo, lo_in, hi, hi_in):
    """The keys (floor(x * 2**64), the text of x, side) of both ends."""
    return tuple((floor_scaled(x), scalar_text(x.a, x.b, x.field), eps)
                 for x, eps in ((lo, 0 if lo_in else 1), (hi, 0 if hi_in else -1)))


def library_keys(c):
    return tuple((k, str(x), eps) for k, x, eps in (c.lo_key, c.hi_key))


def test_intervals_are_accepted_by_the_exact_rule():
    rng = random.Random(26)
    seen = {}
    for _ in range(20000):
        d = rng.choice((0, 2, 5))
        kind, lo, hi = interval_ends(rng, d)
        lo_in, hi_in = rng.choice(FLAG_PAIRS)
        x, y = scalar_of(lo, d), scalar_of(hi, d)
        u, v = Surd(*lo, d), Surd(*hi, d)
        for half_open, build in ((False, lambda: Component(x, lo_in, y, hi_in)),
                                 (True, lambda: HalfOpenInterval(x, y))):
            verdict = library_verdict(build)
            assert verdict == interval_verdict(u, lo_in, v, hi_in, half_open), (x, lo_in, y, hi_in)
            if verdict[0] == "ok":
                flags = (True, False) if half_open else (lo_in, hi_in)
                assert library_keys(build()) == oracle_keys(u, flags[0], v, flags[1])
            tag = (half_open, verdict[0] == "ok", kind)
            seen[tag] = seen.get(tag, 0) + 1
        if kind == "equal":
            seen[lo_in, hi_in] = seen.get((lo_in, hi_in), 0) + 1
        # what the draw covers, told by the library's own floors and order
        for tag, value in (("floors tie", kind == "close" and _floor64(x) == _floor64(y)),
                           ("long", max(lo[0].denominator, hi[0].denominator) > 10**2999),
                           ("outside", not 0 <= x <= 1)):
            seen[tag] = seen.get(tag, 0) + value
    # "equal" never makes a half-open domain
    assert len(seen) == 4 * 4 - 1 + 4 + 3 and min(seen.values()) >= 50, seen


def test_ends_from_two_fields_are_refused_first():
    # FieldMismatch before any order, also for a domain that starts below 0
    rng = random.Random(27)
    below = 0
    for _ in range(600):
        d, e = rng.sample((0, 2, 5), 2)
        lo, hi = end_value(rng, d), end_value(rng, e)
        lo_in, hi_in = rng.choice(FLAG_PAIRS)
        x, y = scalar_of(lo, d), scalar_of(hi, e)
        u, v = Surd(*lo, d), Surd(*hi, e)
        for half_open, build in ((False, lambda: Component(x, lo_in, y, hi_in)),
                                 (True, lambda: HalfOpenInterval(x, y))):
            verdict = library_verdict(build)
            assert verdict == interval_verdict(u, lo_in, v, hi_in, half_open)
            assert verdict == ("FieldMismatch", f"field contexts differ: sqrt({d}) vs sqrt({e})")
        below += x < 0
    assert below >= 50
