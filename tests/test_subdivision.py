import random
import re
from fractions import Fraction

import pytest

from ietwords import (
    AffinePiece,
    BoundarySet,
    Component,
    CorruptMap,
    CoverageGapError,
    ExactScalar,
    FieldMismatch,
    GluingMap,
    GoodnessCertificate,
    GoodnessViolation,
    HalfOpenInterval,
    IET,
    OverlapError,
    PiecewiseMap,
    PointOutsideDomain,
    Subdivision,
    UnknownLetter,
    glue_word,
    iet_to_map,
    identity_map,
    interval,
    is_good,
    make_scalar,
    mod1,
    refine_to_good,
    rotation,
)
from ietwords import intervalmap, subdivision
from ietwords.instances import (golden_alpha, random_instance, random_piecewise_map,
                                random_point, random_rational_instance,
                                random_translation_instance)
from ietwords.intervalsets import (ABOVE, AT, BELOW, CellTable, _from_keys, _pred, _succ,
                                   affine_image, key)
from ietwords.subdivision import _cuts_inside

from conftest import q
from oracles import cuts_inside_cells
from test_differential import (_pull_back, cuts_inside_classes, several_cuts_per_component,
                               with_joins)
from test_lattice import flip_instances

ALPHA = make_scalar(-1, 2, 1, 2, 5)
ZERO5, ONE5 = ExactScalar.zero(5), ExactScalar.one(5)
CUT = ONE5 - ALPHA   # 1 - alpha, the rotation's discontinuity


def natural():
    return Subdivision({
        "0": [Component(ZERO5, True, CUT, False)],
        "1": [Component(CUT, True, ONE5, False)],
    })


def whole_interval(letter="A"):
    return Subdivision({letter: [Component(ZERO5, True, ONE5, False)]})


# ------------------------------------------------------------ partition

def test_adjacent_pieces_merge_into_one_class():
    sub = Subdivision({"A": [Component(q(0), True, q(1, 2), False),
                             Component(q(1, 2), True, q(1), False)]})
    assert len(sub.class_of("A")) == 1


def test_overlap_is_rejected_with_witness():
    with pytest.raises(OverlapError) as e:
        Subdivision({"A": [Component(q(0), True, q(2, 3), False)],
                     "B": [Component(q(1, 2), True, q(1), False)]})
    assert e.value.witness == q(1, 2)


def test_gap_is_rejected_with_witness():
    with pytest.raises(CoverageGapError) as e:
        Subdivision({"A": [Component(q(0), True, q(1, 3), False)]})
    assert e.value.witness == q(1, 3)


def test_interior_gap_witness():
    with pytest.raises(CoverageGapError) as e:
        Subdivision({"A": [Component(q(0), True, q(1, 4), False)],
                     "B": [Component(q(1, 2), True, q(1), False)]})
    assert q(1, 4) <= e.value.witness < q(1, 2)


def test_one_point_gap_is_a_coverage_gap():
    with pytest.raises(CoverageGapError) as e:
        Subdivision({"a": [Component(q(0), True, q(1, 2), False)],
                     "b": [Component(q(1, 2), False, q(1), False)]})
    assert e.value.witness == q(1, 2)


def test_classes_outside_the_unit_interval_are_rejected():
    with pytest.raises(ValueError, match="'a' extends beyond"):
        Subdivision({"a": [Component(q(-1, 2), True, q(1, 2), False)],
                     "b": [Component(q(1, 2), True, q(1), False)]})
    with pytest.raises(ValueError, match="'b' extends beyond"):
        Subdivision({"a": [Component(q(0), True, q(1, 2), False)],
                     "b": [Component(q(1, 2), True, q(3, 2), False)]})
    # a class lying wholly past 1 leaves no point of [0, 1) uncovered
    with pytest.raises(ValueError, match="'b' extends beyond"):
        Subdivision({"a": [Component(q(0), True, q(1), False)],
                     "b": [Component(q(3, 2), True, q(2), False)]})
    # a gap inside [0, 1) is still reported first, with a witness inside it
    with pytest.raises(CoverageGapError) as e:
        Subdivision({"a": [Component(q(0), True, q(1, 2), True)],
                     "b": [Component(q(3, 2), True, q(2), False)]})
    assert e.value.witness == q(3, 4)


def test_alphabet_is_sorted_and_classes_nonempty():
    sub = Subdivision({"B": [Component(q(1, 2), True, q(1), False)],
                       "A": [Component(q(0), True, q(1, 2), False)]})
    assert sub.alphabet == ("A", "B")
    with pytest.raises(ValueError):
        Subdivision({"A": [Component(q(0), True, q(1), False)], "B": []})


@pytest.mark.parametrize("bad", ["a b", "", " ", "A\t", "\nB"])
def test_letters_are_single_tokens(bad):
    # words travel as whitespace-separated tokens (SymbolicWord.text(),
    # glue_word and the analytics on a str, generate's text output)
    halves = [Component(q(0), True, q(1, 2), False), Component(q(1, 2), True, q(1), False)]
    with pytest.raises(ValueError, match=re.escape(f"letter {bad!r}")):
        Subdivision({"ok": [halves[0]], bad: [halves[1]]})
    refined, _ = refine_to_good(Subdivision({"ok": halves}), rotation(q(1, 3)))
    assert all(name.split() == [name] for name in refined.alphabet)


@pytest.mark.parametrize("bad", ["a b", "", " ", "A\t", "\nB"])
def test_gluing_letters_are_single_tokens(bad):
    # else glue_word("a b", GluingMap({"a b": "A"})) reads the letter "a"
    for mapping in ({bad: "ok"}, {"ok": bad}, {"ok": "ok", bad: bad}):
        with pytest.raises(ValueError, match=re.escape(f"letter {bad!r}")):
            GluingMap(mapping)


def test_partition_with_closed_open_flags():
    sub = Subdivision({
        "A": [Component(q(0), True, q(1, 2), True)],
        "B": [Component(q(1, 2), False, q(1), False)],
    })
    assert sub.color_of(q(1, 2)) == "A"


def test_singleton_class_is_legal():
    sub = Subdivision({
        "A": [Component(q(0), True, q(1, 2), False)],
        "P": [Component(q(1, 2), True, q(1, 2), True)],
        "B": [Component(q(1, 2), False, q(1), False)],
    })
    assert sub.color_of(q(1, 2)) == "P"
    # a singleton is convex: condition 1 holds
    cert = is_good(sub, identity_map(0))
    assert isinstance(cert, GoodnessCertificate)


# -------------------------------------------------------------- color_of

def test_color_of_natural_partition():
    sub = natural()
    assert sub.color_of(ZERO5) == "0"
    assert sub.color_of(CUT) == "1"          # boundary joins the right class
    assert sub.color_of(ALPHA) == "1"        # alpha >= 1 - alpha
    with pytest.raises(PointOutsideDomain):
        sub.color_of(ONE5)
    with pytest.raises(PointOutsideDomain):
        sub.color_of(-ALPHA)


# ---------------------------------------------------------------- is_good

def test_natural_partition_is_good_for_golden_rotation():
    cert = is_good(natural(), rotation(ALPHA))
    assert isinstance(cert, GoodnessCertificate)
    assert cert == GoodnessCertificate(natural().content_id(), rotation(ALPHA).content_id())


def test_single_class_fails_condition_two():
    R = rotation(ALPHA)
    violations = is_good(whole_interval(), R)
    assert isinstance(violations, list) and len(violations) == 1
    v = violations[0]
    assert v.kind == "shared-image-color"
    assert v.letter == "A" and v.color == "A"
    assert v.point == CUT
    a, b = v.witness
    assert a < CUT < b
    # both witnesses really do map to the same color
    sub = whole_interval()
    assert sub.color_of(R.apply(a)) == sub.color_of(R.apply(b)) == "A"


def test_split_classes_fail_condition_one():
    sub = Subdivision({
        "A": [Component(q(0), True, q(1, 4), False),
              Component(q(1, 2), True, q(3, 4), False)],
        "B": [Component(q(1, 4), True, q(1, 2), False),
              Component(q(3, 4), True, q(1), False)],
    })
    violations = is_good(sub, identity_map(0))
    assert {v.letter for v in violations} == {"A", "B"}
    assert all(v.kind == "not-convex" for v in violations)


def test_discontinuity_on_class_boundary_is_not_interior():
    # the rotation's only discontinuity is the classes' common boundary
    sub = natural()
    R = rotation(ALPHA)
    assert isinstance(is_good(sub, R), GoodnessCertificate)


def test_equal_halves_are_good_for_quarter_rotation():
    # the cut 3/4 sits inside B = [1/2,1), but the two sides land in
    # different colors (left -> B, right -> A), so condition 2 holds
    R = rotation(q(1, 4))
    sub = Subdivision({
        "A": [Component(q(0), True, q(1, 2), False)],
        "B": [Component(q(1, 2), True, q(1), False)],
    })
    assert isinstance(is_good(sub, R), GoodnessCertificate)


def test_condition_two_catches_interior_straddle_with_rational_map():
    # rotation by 1/4 with A = [0,7/8): the cut 3/4 is interior to A, the
    # left side covers images colored A and B, the right side lands in A
    R = rotation(q(1, 4))
    sub = Subdivision({
        "A": [Component(q(0), True, q(7, 8), False)],
        "B": [Component(q(7, 8), True, q(1), False)],
    })
    violations = is_good(sub, R)
    assert isinstance(violations, list) and len(violations) == 1
    v = violations[0]
    assert (v.letter, v.point, v.color) == ("A", q(3, 4), "A")
    a, b = v.witness
    assert a < q(3, 4) < b
    assert sub.color_of(R.apply(a)) == sub.color_of(R.apply(b)) == "A"


def test_field_mismatch_between_sub_and_map():
    with pytest.raises(FieldMismatch):
        is_good(natural(), rotation(q(1, 3)))


def test_certificate_is_map_specific():
    sub = natural()
    cert = is_good(sub, rotation(ALPHA))
    other = rotation(ALPHA + ALPHA - ExactScalar.one(5))  # rotation by 2a-1
    cert2 = is_good(sub, other)
    assert isinstance(cert2, GoodnessCertificate)
    assert cert.map_id != cert2.map_id


def shuffled_iet(k, seed=0):
    """A k-interval exchange over Q(sqrt 5): cut at the first k - 1
    multiples of alpha mod 1, intervals in a seeded random order."""
    x, cuts = ZERO5, []
    for _ in range(k - 1):
        x = mod1(x + ALPHA)
        cuts.append(x)
    bounds = [ZERO5, *sorted(cuts), ONE5]
    permutation = list(range(k))
    random.Random(seed).shuffle(permutation)
    return iet_to_map(IET([b - a for a, b in zip(bounds, bounds[1:])], permutation))


@pytest.mark.parametrize("k", [50, 100, 200])
def test_one_class_costs_linearly_many_image_lookups(k, monkeypatch):
    # every interior cut of the one component makes a violation; each
    # piece's image is looked up once, plus once more per cut
    pmap, sub = shuffled_iet(k), whole_interval()
    lookups = []
    meeting = CellTable.meeting

    def counted(table, lo_key, hi_key):
        if table is sub.table:
            lookups.append(lo_key)
        return meeting(table, lo_key, hi_key)

    monkeypatch.setattr(CellTable, "meeting", counted)
    violations = is_good(sub, pmap)
    assert len(violations) == len(pmap.discontinuities()) > k // 2
    assert len(lookups) <= 3 * k


# --------------------------------------------------------- refine_to_good

def test_refine_already_good_renames_bijectively():
    sub = natural()
    R = rotation(ALPHA)
    refined, gluing = refine_to_good(sub, R)
    assert len(set(gluing.mapping.values())) == len(gluing.mapping)
    # classes unchanged as sets
    old = {frozenset(bset.components) for bset in sub.classes.values()}
    new = {frozenset(bset.components) for bset in refined.classes.values()}
    assert old == new
    assert isinstance(is_good(refined, R), GoodnessCertificate)


def test_refine_single_class_splits_at_discontinuity():
    R = rotation(ALPHA)
    refined, gluing = refine_to_good(whole_interval(), R)
    assert refined.alphabet == ("A0", "A1")
    assert refined.class_of("A0") == BoundarySet([Component(ZERO5, True, CUT, False)])
    assert refined.class_of("A1") == BoundarySet([Component(CUT, True, ONE5, False)])
    assert gluing.mapping == {"A0": "A", "A1": "A"}
    assert isinstance(is_good(refined, R), GoodnessCertificate)


def test_refine_splits_disconnected_classes():
    sub = Subdivision({
        "A": [Component(q(0), True, q(1, 4), False),
              Component(q(1, 2), True, q(3, 4), False)],
        "B": [Component(q(1, 4), True, q(1, 2), False),
              Component(q(3, 4), True, q(1), False)],
    })
    refined, gluing = refine_to_good(sub, identity_map(0))
    assert sorted(refined.alphabet) == ["A0", "A1", "B0", "B1"]
    assert gluing.mapping == {"A0": "A", "A1": "A", "B0": "B", "B1": "B"}
    assert isinstance(is_good(refined, identity_map(0)), GoodnessCertificate)


def test_refine_rejects_a_map_that_fails_validation():
    # two domains start at 1/2: validation reports the overlap, where the
    # component cutting used to raise a bare ValueError
    pieces = [(q(0), q(1, 2), q(1, 2)), (q(1, 2), q(3, 4), q(1, 4)),
              (q(1, 2), q(1), q(-1, 2))]
    pmap = PiecewiseMap(AffinePiece(HalfOpenInterval(lo, hi), 1, c)
                        for lo, hi, c in pieces)
    sub = Subdivision({"A": [Component(q(0), True, q(1), False)]})
    with pytest.raises(CorruptMap):
        refine_to_good(sub, pmap)


def overlapping_map(d):
    # two domains start at 1/2, so validation reports an overlap
    pieces = [(q(0, 1, d), q(1, 2, d), q(1, 2, d)), (q(1, 2, d), q(3, 4, d), q(1, 4, d)),
              (q(1, 2, d), q(1, 1, d), q(-1, 2, d))]
    return PiecewiseMap(AffinePiece(HalfOpenInterval(lo, hi), 1, c) for lo, hi, c in pieces)


@pytest.mark.parametrize("check", [is_good, refine_to_good])
def test_goodness_checks_the_field_before_the_map(check):
    sub = Subdivision({"A": [Component(q(0), True, q(1), False)]})
    with pytest.raises(FieldMismatch):
        check(sub, rotation(ALPHA))
    with pytest.raises(CorruptMap):
        check(sub, overlapping_map(0))
    # a map with both faults reports the field first
    with pytest.raises(FieldMismatch):
        check(sub, overlapping_map(5))


def test_alphabet_bound(rng):
    for _ in range(25):
        pmap, sub, _ = random_instance(rng)
        refined, _ = refine_to_good(sub, pmap)
        bound = sub.component_count() + len(pmap.discontinuities())
        assert len(refined.alphabet) <= bound


def test_refinement_soundness_random(rng):
    for _ in range(40):
        pmap, sub, _ = random_instance(rng)
        refined, _ = refine_to_good(sub, pmap)
        assert isinstance(is_good(refined, pmap), GoodnessCertificate)


def test_pointwise_gluing_identity(rng):
    for _ in range(10):
        pmap, sub, _ = random_instance(rng)
        refined, gluing = refine_to_good(sub, pmap)
        for _ in range(1000):
            x = random_point(rng)
            assert gluing(refined.color_of(x)) == sub.color_of(x)


def collision_instance():
    # reversal of 12 equal intervals has 11 interior cuts; class "B" then
    # mints "B10", which plain concatenation also mints for class "B1"
    twelfth = q(1, 12)
    pmap = iet_to_map(IET((twelfth,) * 12, tuple(range(11, -1, -1))))
    sub = Subdivision({
        "B": [Component(q(0), True, q(23, 24), False)],
        "B1": [Component(q(23, 24), True, q(1), False)],
    })
    return pmap, sub


def test_letter_collision_falls_back_to_underscores():
    pmap, sub = collision_instance()
    refined, gluing = refine_to_good(sub, pmap)
    assert len(refined.alphabet) == len(set(refined.alphabet)) == 13
    assert "B_10" in refined.alphabet and "B1_0" in refined.alphabet
    assert set(gluing.mapping.values()) == {"B", "B1"}
    assert isinstance(is_good(refined, pmap), GoodnessCertificate)


def test_gluing_lists_letters_in_alphabet_order_then_index():
    # the reversal of 24 equal intervals cuts each quarter in six, and the
    # quarters' letters interleave: A's pieces sit on both sides of C's
    pmap = iet_to_map(IET((q(1, 24),) * 24, tuple(range(23, -1, -1))))
    sub = Subdivision({
        "B": [Component(q(0), True, q(1, 4), False)],
        "A": [Component(q(1, 4), True, q(1, 2), False), Component(q(3, 4), True, q(1), False)],
        "C": [Component(q(1, 2), True, q(3, 4), False)],
    })
    refined, gluing = refine_to_good(sub, pmap)
    assert list(gluing.mapping) == ([f"A{i}" for i in range(12)] + [f"B{i}" for i in range(6)]
                                    + [f"C{i}" for i in range(6)])
    assert [letter for _, _, letter in refined.table.cells] == (
        [f"B{i}" for i in range(6)] + [f"A{i}" for i in range(6)]
        + [f"C{i}" for i in range(6)] + [f"A{i}" for i in range(6, 12)])
    assert refined.alphabet == tuple(sorted(gluing.mapping))


def test_not_convex_verdicts_follow_the_class_components():
    # is_good groups cells by letter only when there are more cells than
    # letters; the verdicts match each class's components either way
    rng = random.Random(31)
    subs = []
    for pmap, sub in ([random_instance(rng, d)[:2] for d in (0, 5) for _ in range(30)]
                      + [cells_on_cuts(rng) for _ in range(30)]
                      + [large_partition(rng, d, 24) for d in (0, 5)]
                      + [(pmap, sub) for pmap, sub, _, _ in flip_instances()]):
        subs += [(pmap, sub, "given"), (pmap, refine_to_good(sub, pmap)[0], "refined")]
    seen = dict.fromkeys(("one cell per letter", "split classes", "refined"), 0)
    for pmap, sub, kind in subs:
        verdict = is_good(sub, pmap)
        got = [] if isinstance(verdict, GoodnessCertificate) else [
            v for v in verdict if v.kind == "not-convex"]
        expected = []
        for letter in sub.alphabet:
            components = sub.class_of(letter).components
            if len(components) > 1:
                expected.append(GoodnessViolation("not-convex", letter, witness=tuple(
                    c.sample_point() for c in components[:2])))
        assert got == expected
        if kind == "refined":
            seen["refined"] += 1
            assert got == []
        else:
            seen["split classes" if expected else "one cell per letter"] += 1
    assert min(seen.values()) >= 10, seen


def count_calls(monkeypatch, cls, name, calls):
    """Record cls.name in calls each time it runs, then run it."""
    method = getattr(cls, name)          # bound to cls for a classmethod

    def counted(*args):
        calls.append(name)
        return method(*args)

    bound = isinstance(vars(cls)[name], classmethod)
    monkeypatch.setattr(cls, name, staticmethod(counted) if bound else counted)


def test_refine_to_good_builds_no_components_or_sets(rng, monkeypatch):
    instances = [random_instance(rng)[:2] for _ in range(10)] + [collision_instance()]
    calls = []
    for cls, name in ((Component, "__post_init__"), (BoundarySet, "__init__"),
                      (BoundarySet, "_from_ranges")):
        count_calls(monkeypatch, cls, name, calls)
    for pmap, sub in instances:
        refined, _ = refine_to_good(sub, pmap)
        assert calls == []
    refined.classes                        # built on request, and counted
    assert set(calls) == {"_from_ranges"}
    interval(q(0), q(1))
    assert {"__post_init__", "__init__"} <= set(calls)


def test_classes_are_read_from_the_cells_unchecked(rng, monkeypatch):
    # the cells are canonical already: no check, no exact comparison
    subs = []
    for pmap, sub in [random_instance(rng, d)[:2] for d in (0, 5) for _ in range(10)] + [
            large_partition(rng, d, 60) for d in (0, 5)] + [collision_instance()]:
        subs += [sub, refine_to_good(sub, pmap)[0]]
    calls = []
    count_calls(monkeypatch, Component, "__post_init__", calls)
    count_calls(monkeypatch, ExactScalar, "_cmp", calls)
    for sub in subs:
        classes = sub.classes
        assert [sub.class_of(letter) for letter in sub.alphabet] == list(classes.values())
    assert calls == []
    classes[sub.alphabet[0]].components        # built on request, from the checked ranges
    assert calls == []


# ------------------------------------------------------------ cell table

def test_subdivision_round_trips_through_its_classes(rng):
    subs = []
    for pmap, sub in [random_instance(rng)[:2] for _ in range(20)] + [collision_instance()]:
        subs += [sub, refine_to_good(sub, pmap)[0]]
    for s in subs:
        classes = s.classes
        t = Subdivision(classes)
        assert t == s and t.table.cells == s.table.cells
        assert t.alphabet == s.alphabet == tuple(classes)
        assert t.content_id() == s.content_id() and hash(t) == hash(s)
        for letter in s.alphabet:
            assert s.class_of(letter) == classes[letter]
        with pytest.raises(UnknownLetter):
            s.class_of("?")


def large_partition(rng, d, k):
    """A k-interval exchange and a subdivision of about as many cells, drawn
    from one pool of points: k // 4 class bounds are cuts of the map, one
    class is a single point, and letters repeat, so some classes split."""
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    if d:
        pool, x = set(), zero
        for _ in range(3 * k):
            x = mod1(x + golden_alpha())
            pool.add(x)
    else:
        pool = {q(rng.randint(1, den - 1), den)
                for den in (rng.randint(2, 10**6) for _ in range(3 * k))}
    cuts = sorted(rng.sample(sorted(pool), k - 1))
    bounds = [zero, *cuts, one]
    permutation = list(range(k))
    rng.shuffle(permutation)
    pmap = iet_to_map(IET(tuple(hi - lo for lo, hi in zip(bounds, bounds[1:])),
                          tuple(permutation)))
    rest = sorted(pool - set(cuts))
    marks = sorted([*rng.sample(cuts, k // 4), *rng.sample(rest, k - 1 - k // 4)])
    dot = rng.randrange(len(marks))
    classes = {"dot": [Component(marks[dot], True, marks[dot], True)]}
    lo, lo_in = zero, True
    for i, x in enumerate([*marks, one]):
        hi_in = x != one and i != dot and rng.random() < 0.25
        classes.setdefault(f"c{rng.randrange(3 * k // 4)}", []).append(
            Component(lo, lo_in, x, hi_in))
        lo, lo_in = x, not hi_in and i != dot
    return pmap, Subdivision(classes)


def test_stored_refinement_equals_a_checked_construction():
    # refine_to_good stores its cells without the constructor's checks
    rng = random.Random(17)
    instances = [random_instance(rng, d)[:2] for d in (0, 5) for _ in range(40)]
    instances += [(pmap, sub) for pmap, sub, _, _ in flip_instances()]
    instances += [large_partition(rng, d, k) for d in (0, 5) for k in (100, 150, 200)]
    on_bounds = singletons = 0
    for pmap, sub in instances:
        refined, gluing = refine_to_good(sub, pmap)
        rebuilt = Subdivision(refined.classes)
        assert refined == rebuilt
        assert refined.alphabet == rebuilt.alphabet == tuple(sorted(gluing.mapping))
        assert list(refined.table.faults()) == []
        cells = refined.table.cells
        assert {x.d for lo, hi, _ in cells for x in (lo[1], hi[1])} == {sub.d}
        starts = {lo[1] for lo, _, _ in sub.table.cells}
        on_bounds += any(p in starts for p in pmap.discontinuities())
        singletons += any(lo[1] == hi[1] for lo, hi, _ in cells)
    assert on_bounds >= 20 and singletons >= 6


def test_endpoints_must_be_exact_scalars():
    with pytest.raises(TypeError, match="ExactScalar"):
        Subdivision({"A": interval(0, 1)})
    with pytest.raises(TypeError, match="ExactScalar"):
        Subdivision({"A": interval(q(0), Fraction(1, 2)), "B": interval(q(1, 2), q(1))})


def test_equality_does_not_depend_on_the_component_class():
    halves = {"A": (q(0), q(1, 2)), "B": (q(1, 2), q(1))}
    a = Subdivision({l: [HalfOpenInterval(lo, hi)] for l, (lo, hi) in halves.items()})
    b = Subdivision({l: [Component(lo, True, hi, False)] for l, (lo, hi) in halves.items()})
    assert a == b and hash(a) == hash(b) and a.content_id() == b.content_id()


def cells_on_cuts(rng):
    """A map with up to seven discontinuities and cells built on them.

    Each discontinuity, drawn at random, closes the cell on its left (so
    the next one starts open), starts the next cell closed, is a one-point
    cell, or stays inside a cell, often with the next one.  Neighbouring
    cells take different letters, so no bound merges away.
    """
    d = rng.choice((0, 5))
    pmap = random_piecewise_map(rng, d, max_pieces=8)
    classes, letters = {}, [None]
    lo, lo_in = ExactScalar.zero(d), True

    def close(hi, hi_in):
        letters.append(rng.choice([c for c in "ABC" if c != letters[-1]]))
        classes.setdefault(letters[-1], []).append(Component(lo, lo_in, hi, hi_in))

    for p in pmap.discontinuities():
        kind = rng.choice(("closed end", "closed start", "one point", "inside", "inside"))
        if kind == "closed end":
            close(p, True)
            lo, lo_in = p, False
        elif kind == "closed start":
            close(p, False)
            lo, lo_in = p, True
        elif kind == "one point":
            close(p, False)
            lo, lo_in = p, True
            close(p, True)
            lo, lo_in = p, False
    close(ExactScalar.one(d), False)
    return pmap, Subdivision(classes)


def test_cut_grouping_matches_plain_key_comparisons():
    # _cuts_inside bisects each cut once; the oracle compares every cut with
    # every cell.  A cell with a cut is clipped to the map's pieces by
    # CellTable.meeting, checked here against plain clipping
    rng = random.Random(29)
    instances = [random_instance(rng, d)[:2] for d in (0, 5) for _ in range(40)]
    instances += [cells_on_cuts(rng) for _ in range(60)]
    instances += [(pmap, sub) for pmap, sub, _, _ in flip_instances()]
    instances += [large_partition(rng, d, k) for d in (0, 5) for k in (20, 60)]
    # a singleton cell on the rotation's cut 2/3
    instances.append((rotation(q(1, 3)), Subdivision({
        "A": [Component(q(0), True, q(2, 3), False)],
        "P": [Component(q(2, 3), True, q(2, 3), True)],
        "B": [Component(q(2, 3), False, q(1), False)]})))
    seen = dict.fromkeys(("closed end", "open start", "closed start", "open end",
                          "singleton", "several inside"), 0)
    for pmap, sub in instances:
        cells = sub.table.cells
        cuts = [key(p, AT) for p in pmap.discontinuities()]
        inside = _cuts_inside(sub, pmap)
        assert inside == cuts_inside_cells(cells, cuts)
        assert list(inside) == sorted(inside)              # position order
        for i in inside:
            lo, hi, _ = cells[i]
            assert list(pmap.table.meeting(lo, hi)) == [
                (max(lo, p_lo), min(hi, p_hi), piece) for p_lo, p_hi, piece in pmap.table.cells
                if max(lo, p_lo) <= min(hi, p_hi)]
        starts = {lo for lo, _, _ in cells}
        ends = {hi for _, hi, _ in cells}
        for cut in cuts:
            p = cut[1]
            seen["closed end"] += cut in ends
            seen["open start"] += key(p, ABOVE) in starts
            seen["closed start"] += cut in starts
            seen["open end"] += key(p, BELOW) in ends
            seen["singleton"] += cut in starts and cut in ends
        seen["several inside"] += sum(len(c) > 1 for c in inside.values())
    assert min(seen.values()) >= 10, seen


# ------------------------------------------- stored piece images
#
# A map's validation computes each piece's image once; the cuts are read
# off the image ends, and is_good clips a stored image only where a cell clips its
# piece.  The references recompute every image from the part itself, as
# is_good did before the images were stored.


def image_instances():
    """(map, subdivision) pairs in Q, Q(sqrt 2) and Q(sqrt 5): random maps,
    the same maps with continuous joins, rational grids, large interval
    exchanges and flip maps; cells clip slope -1 pieces at either end."""
    rng = random.Random(43)
    instances = []
    for d in (0, 2, 5):
        for _ in range(25):
            pmap, sub, _ = random_instance(rng, d)
            instances += [(pmap, sub), (PiecewiseMap(with_joins(rng, pmap.pieces)), sub),
                          random_translation_instance(rng, d)[:2]]
    instances += [random_rational_instance(rng)[:2] for _ in range(40)]
    instances += [several_cuts_per_component(rng) for _ in range(60)]
    instances += [cuts_inside_classes(rng) for _ in range(30)]
    instances += [large_partition(rng, d, k) for d in (0, 5) for k in (24, 100)]
    instances += [(pmap, sub) for pmap, sub, _, _ in flip_instances()]
    return instances


def test_discontinuities_match_piece_evaluation():
    # the image ends at 1/2 differ by 2**-70: their keys' floors tie
    tiny = PiecewiseMap([AffinePiece(HalfOpenInterval(q(0), q(1, 2)), 1, q(1, 2**70)),
                         AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(0))])
    assert tiny.discontinuities() == [q(1, 2)]
    joins = 0
    for pmap, _ in image_instances():
        pieces = pmap.pieces
        expected = [right.domain.lo for left, right in zip(pieces, pieces[1:])
                    if left(right.domain.lo) != right(right.domain.lo)]
        assert pmap.discontinuities() == expected
        joins += len(pieces) - 1 - len(expected)
    assert joins >= 20


def test_is_good_uses_the_image_of_each_part(monkeypatch):
    # every image is_good looks up, in order: each part's, then for each
    # cut the image of the part it starts, from just above the cut
    used = []
    real_hits = subdivision._image_hits
    monkeypatch.setattr(subdivision, "_image_hits",
                        lambda sub, piece, image: used.append((piece, image))
                        or real_hits(sub, piece, image))
    seen = dict.fromkeys(("reflected, clipped below", "reflected, clipped above",
                          "reflected, from above a cut"), 0)
    for pmap, sub in image_instances():
        used.clear()
        is_good(sub, pmap)
        expected = []
        for i, cuts in _cuts_inside(sub, pmap).items():
            cell = sub.table.cells[i]
            parts = list(pmap.table.meeting(*cell[:2]))
            expected += [(piece, affine_image(piece.slope, piece.intercept, lo, hi))
                         for lo, hi, piece in parts]
            expected += [(piece, affine_image(piece.slope, piece.intercept, _succ(lo), hi))
                         for lo, hi, piece in parts if lo in cuts]
            for lo, hi, piece in parts:
                if piece.slope == -1:
                    seen["reflected, clipped below"] += lo != piece.domain.lo_key
                    seen["reflected, clipped above"] += hi != piece.domain.hi_key
                    seen["reflected, from above a cut"] += lo in cuts
        assert used == expected
    assert min(seen.values()) >= 50, seen


def first_hits(sub, pmap, lo_key, hi_key):
    """Letter -> (piece, meet keys) for the first cell of that letter that
    the image of a part of [lo_key, hi_key] meets, parts and cells from
    left to right, each part's image computed from the part."""
    hits = {}
    for lo, hi, piece in pmap.table.meeting(lo_key, hi_key):
        for meet_lo, meet_hi, letter in sub.table.meeting(
                *affine_image(piece.slope, piece.intercept, lo, hi)):
            hits.setdefault(letter, (piece, meet_lo, meet_hi))
    return hits


def per_part_is_good(sub, pmap):
    """is_good with no stored image: both sides of every cut scanned part
    by part, and every witness sampled through a Component."""
    rank = {letter: r for r, letter in enumerate(sub.alphabet)}
    violations, shared = [], []
    for letter in sub.alphabet:
        cells = [cell for cell in sub.table.cells if cell[2] == letter]
        if len(cells) > 1:
            violations.append(GoodnessViolation("not-convex", letter, witness=tuple(
                _from_keys(*cell[:2]).sample_point() for cell in cells[:2])))
    cuts = [key(p, AT) for p in pmap.discontinuities()]
    for lo, hi, letter in sub.table.cells:
        for cut in (c for c in cuts if lo < c < hi):
            sides = first_hits(sub, pmap, lo, _pred(cut)), first_hits(sub, pmap, _succ(cut), hi)
            common = sides[0].keys() & sides[1].keys()
            if common:
                color = min(common, key=rank.get)
                a, b = (_pull_back(piece, _from_keys(meet_lo, meet_hi).sample_point())
                        for piece, meet_lo, meet_hi in (side[color] for side in sides))
                shared.append(GoodnessViolation("shared-image-color", letter, point=cut[1],
                                                color=color, witness=(a, b)))
    violations += sorted(shared, key=lambda v: rank[v.letter])
    return violations or GoodnessCertificate(sub.content_id(), pmap.content_id())


def test_is_good_matches_the_per_part_path():
    kinds = dict.fromkeys(("certificate", "not-convex", "shared-image-color"), 0)
    for pmap, sub in image_instances():
        verdict = is_good(sub, pmap)
        expected = per_part_is_good(sub, pmap)
        assert verdict == expected
        if isinstance(verdict, list):
            assert [str(v) for v in verdict] == [str(v) for v in expected]
            for v in verdict:
                kinds[v.kind] += 1
        else:
            assert str(verdict) == str(expected)
            kinds["certificate"] += 1
        refined = refine_to_good(sub, pmap)[0]
        assert str(is_good(refined, pmap)) == str(per_part_is_good(refined, pmap))
    assert min(kinds.values()) >= 20, kinds


def test_is_good_computes_at_most_two_image_ends_per_cell_with_cuts(monkeypatch):
    ends, images = [], []
    real_end, real_image = intervalmap._affine_key, intervalmap.affine_image
    monkeypatch.setattr(intervalmap, "_affine_key",
                        lambda *args: ends.append(args) or real_end(*args))
    monkeypatch.setattr(intervalmap, "affine_image",
                        lambda *args: images.append(args) or real_image(*args))
    total = 0
    for pmap, sub in image_instances():
        fresh = PiecewiseMap(pmap.pieces)
        ends.clear()
        images.clear()
        is_good(sub, fresh)
        assert len(images) == len(fresh)          # each piece's image, once
        assert len(ends) <= 2 * len(_cuts_inside(sub, fresh))
        total += len(ends)
        images.clear()
        is_good(sub, fresh)
        fresh.discontinuities()
        assert images == []
    assert total >= 20


# ------------------------------------------------------------- glue_word

def test_glue_word_on_sequences():
    g = GluingMap({"A0": "A", "A1": "A"})
    assert glue_word("A0 A1 A0", g) == ("A", "A", "A")
    assert glue_word(["A0", "A0"], g) == ("A", "A")
    ident = GluingMap({"A": "A", "B": "B"})
    assert glue_word(["A", "B", "A"], ident) == ("A", "B", "A")
    with pytest.raises(UnknownLetter):
        glue_word("A0 C", g)


def test_gluing_map_interface():
    g = GluingMap({"A0": "A", "A1": "A", "B0": "B"})
    assert tuple(sorted(g.mapping)) == ("A0", "A1", "B0")
    assert tuple(sorted(set(g.mapping.values()))) == ("A", "B")
    assert len(set(g.mapping.values())) < len(g.mapping)
    assert g("B0") == "B"
