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
that order is checked against the exact comparison of scalars and against
50-digit decimals.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ietwords import (
    AffinePiece,
    BoundarySet,
    Component,
    CorruptMap,
    ExactScalar,
    GluingMap,
    GoodnessCertificate,
    GoodnessViolation,
    HalfOpenInterval,
    PiecewiseMap,
    PointOutsideDomain,
    Subdivision,
    cmp,
    interval,
    is_good,
    make_scalar,
    refine_to_good,
)
from ietwords.exactnum import MAX_RADICAND, _floor64, is_squarefree
from ietwords.instances import (
    golden_alpha,
    random_instance,
    random_piecewise_map,
    random_rational_instance,
    random_translation_instance,
    random_translation_map,
)
from ietwords.intervalmap import MapViolation, ValidationReport
from ietwords.intervalsets import ABOVE, AT, BELOW, key

from oracles import decimal_cmp, decimal_value

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
        pmap = random_translation_map(rng, d)
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    cuts = [zero, *pmap.discontinuities(), one]
    bounds = [zero, *((a + b) * Fraction(1, 2) for a, b in zip(cuts[1:-2], cuts[2:-1])), one]
    letters = "ABC"[:rng.randint(1, 3)]
    classes = {}
    for lo, hi in zip(bounds, bounds[1:]):
        classes.setdefault(rng.choice(letters), []).append(Component(lo, True, hi, False))
    return pmap, Subdivision(classes)


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
    split = []
    for p in pieces:
        lo, hi = p.domain.lo, p.domain.hi
        if rng.random() < 0.3:
            mid = lo + (hi - lo) * Fraction(rng.randint(1, 3), 4)
            split.append(AffinePiece(HalfOpenInterval(lo, mid), p.slope, p.intercept))
            lo = mid
        split.append(AffinePiece(HalfOpenInterval(lo, hi), p.slope, p.intercept))
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
    pieces = list(random_translation_map(rng, d).pieces)
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


# ------------------------------------------- the order of position keys
#
# A key (floor(x * 2**64), x, eps) must order positions exactly as the
# exact comparison of x, then eps, does.  The pairs below are drawn to
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
    if how == "plain" and x.is_rational():
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
    return (u > v) - (u < v)


def test_near_max_radicand_is_a_field():
    assert is_squarefree(NEAR_MAX)


@settings(max_examples=600, deadline=None)
@given(pairs())
def test_key_order_is_the_exact_order(pair):
    x, y = pair
    for v in pair:
        k = _floor64(v)
        assert Fraction(k, SCALE) <= v < Fraction(k + 1, SCALE), v
    exact = cmp(x, y)
    for ex in (BELOW, AT, ABOVE):
        for ey in (BELOW, AT, ABOVE):
            assert order(key(x, ex), key(y, ey)) == (exact or order(ex, ey)), (x, y)
    if settled_by_decimals(x, y):
        assert decimal_cmp(decimal_form(x), decimal_form(y)) == exact
