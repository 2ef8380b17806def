from fractions import Fraction

import pytest

from ietwords import (BoundarySet, Component, ExactScalar, FieldMismatch, Subdivision,
                      interval, make_scalar, singleton)

from conftest import q


def test_component_validation():
    with pytest.raises(ValueError):
        Component(q(1, 2), True, q(1, 3), False)          # lo > hi
    with pytest.raises(ValueError):
        Component(q(1, 2), True, q(1, 2), False)          # singleton needs flags
    s = singleton(q(1, 2))
    assert s.components[0].is_singleton()


def test_adjacent_halfopen_intervals_merge():
    a = Component(q(0), True, q(1, 2), False)
    b = Component(q(1, 2), True, q(1), False)
    merged = BoundarySet([a, b])
    assert len(merged) == 1
    assert str(merged.components[0]) == "[0, 1)"


def test_open_gap_prevents_merge():
    a = Component(q(0), True, q(1, 2), False)
    b = Component(q(1, 2), False, q(1), False)        # (1/2, 1): point missing
    s = BoundarySet([a, b])
    assert len(s) == 2
    assert not s.contains(q(1, 2))
    # adding the missing singleton glues everything
    glued = BoundarySet([*s, *singleton(q(1, 2))])
    assert len(glued) == 1


def test_closed_touching_intervals_merge():
    a = Component(q(0), True, q(1, 2), True)
    b = Component(q(1, 2), False, q(1), False)
    assert len(BoundarySet([a, b])) == 1


def test_contains_respects_flags():
    s = BoundarySet([Component(q(1, 4), False, q(3, 4), True)])
    assert not s.contains(q(1, 4))
    assert s.contains(q(1, 2))
    assert s.contains(q(3, 4))
    assert not s.contains(q(7, 8))


def test_union_and_intersect():
    a = interval(q(0), q(1, 2))
    b = interval(q(1, 4), q(3, 4))
    assert BoundarySet([*a, *b]) == interval(q(0), q(3, 4))
    assert a.intersect(b) == interval(q(1, 4), q(1, 2))
    assert not a.intersect(b).is_empty()
    c = interval(q(3, 4), q(1))
    assert a.intersect(c).is_empty()


def test_intersect_produces_singleton():
    a = BoundarySet([Component(q(0), True, q(1, 2), True)])
    b = BoundarySet([Component(q(1, 2), True, q(1), False)])
    meet = a.intersect(b)
    assert len(meet) == 1 and meet.components[0].is_singleton()
    assert meet.sample_point() == q(1, 2)


def test_transform_translation_and_reflection():
    s = BoundarySet([Component(q(1, 4), True, q(1, 2), False)])
    shifted = s.transform(1, q(1, 4))
    assert shifted == BoundarySet([Component(q(1, 2), True, q(3, 4), False)])
    # x -> -x + 1: [1/4, 1/2)  becomes  (1/2, 3/4]
    flipped = s.transform(-1, q(1))
    c = flipped.components[0]
    assert (c.lo, c.lo_in, c.hi, c.hi_in) == (q(1, 2), False, q(3, 4), True)
    # reflecting twice comes home
    assert flipped.transform(-1, q(1)) == s


def test_sample_point_is_member(rng):
    for _ in range(200):
        lo = Fraction(rng.randint(0, 30), 32)
        hi = lo + Fraction(rng.randint(1, 30), 32)
        c = Component(
            q(lo.numerator, lo.denominator), rng.random() < 0.5,
            q(hi.numerator, hi.denominator), rng.random() < 0.5,
        )
        s = BoundarySet([c])
        assert s.contains(s.sample_point())


def test_set_algebra_matches_pointwise_evaluation(rng):
    # union (the constructor on both sets' components) and intersect
    # verified against membership on a rational grid; endpoints are
    # multiples of 1/96, so the half steps see every open piece
    grid = [q(k, 192) for k in range(193)]

    def random_set():
        comps = []
        for _ in range(rng.randint(1, 3)):
            a = Fraction(rng.randint(0, 90), 96)
            b = a + Fraction(rng.randint(1, 96 - int(a * 96)), 96)
            comps.append(
                Component(
                    q(a.numerator, a.denominator), rng.random() < 0.5,
                    q(b.numerator, b.denominator), rng.random() < 0.5,
                )
            )
        return BoundarySet(comps)

    for _ in range(80):
        s, t = random_set(), random_set()
        u, m = BoundarySet([*s, *t]), s.intersect(t)
        for g in grid:
            assert u.contains(g) == (s.contains(g) or t.contains(g))
            assert m.contains(g) == (s.contains(g) and t.contains(g))
        assert m.is_empty() == (not any(m.contains(g) for g in grid))


def test_canonical_equality_and_hash():
    a = BoundarySet([Component(q(0), True, q(1, 2), False),
                     Component(q(1, 2), True, q(1), False)])
    b = BoundarySet([Component(q(0), True, q(1), False)])
    assert a == b and hash(a) == hash(b)


# ------------------------------------------- field and type guards
#
# Scalars from different field contexts never mix, and only exact values
# are ordered: sets and cell tables refuse both, whatever the positions.

ALPHA = make_scalar(-1, 2, 1, 2, 5)                 # (sqrt(5) - 1) / 2


def thirds():
    """The cell table of [0, 1/3) and [1/3, 1) in Q."""
    return Subdivision({"a": interval(q(0), q(1, 3)), "b": interval(q(1, 3), q(1))}).table


def test_sets_refuse_components_from_two_fields():
    with pytest.raises(FieldMismatch):
        BoundarySet([Component(q(0), True, q(1, 2), False),
                     Component(q(1, 2, 5), True, q(1, 1, 5), False)])
    with pytest.raises(FieldMismatch):              # one inside the other
        BoundarySet([Component(q(0), True, q(1), False),
                     Component(q(1, 4, 5), True, q(1, 2, 5), False)])
    with pytest.raises(FieldMismatch):
        BoundarySet([Component(q(0, 1, 5), True, ALPHA, False),
                     Component(q(3, 4), True, q(1), False)])


@pytest.mark.parametrize("point", [q(1, 2, 5), ALPHA, q(1, 2, 2)])
def test_points_from_another_field_are_refused(point):
    s = interval(q(0), q(1))
    with pytest.raises(FieldMismatch):
        s.contains(point)
    with pytest.raises(FieldMismatch):
        point in s
    with pytest.raises(FieldMismatch):
        thirds().index(point)


def test_points_from_the_set_field_or_plain_rationals_are_read():
    s = interval(q(0, 1, 5), ALPHA)
    assert s.contains(q(1, 2, 5)) and not s.contains(q(7, 10, 5))
    assert s.contains(Fraction(1, 2)) and s.contains(0) and not s.contains(1)
    table = thirds()
    assert [table.index(x) for x in (0, Fraction(1, 3), q(1, 2))] == [0, 1, 1]


@pytest.mark.parametrize("other", [
    interval(q(1, 4, 5), q(3, 4, 5)),                # overlapping
    interval(q(1, 4, 5), q(1, 3, 5)),                # inside
    interval(q(2, 3, 5), q(3, 4, 5)),                # apart
    interval(q(1, 2, 5), ALPHA),
])
def test_intersect_refuses_sets_from_two_fields(other):
    with pytest.raises(FieldMismatch):
        interval(q(0), q(1, 2)).intersect(other)
    with pytest.raises(FieldMismatch):
        other.intersect(interval(q(0), q(1, 2)))


def test_float_points_are_refused():
    with pytest.raises(TypeError):
        interval(q(0), q(1)).contains(0.5)
    with pytest.raises(TypeError):
        thirds().index(0.5)
