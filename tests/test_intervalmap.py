import random
import re
from fractions import Fraction

import pytest

from ietwords import intervalmap, intervalsets
from ietwords import (
    IET,
    AffinePiece,
    Component,
    CorruptMap,
    ExactScalar,
    FieldMismatch,
    HalfOpenInterval,
    NotBijective,
    NotTranslationPiecewise,
    PiecewiseMap,
    PointOutsideDomain,
    code,
    identity_map,
    iet_to_map,
    is_good,
    make_scalar,
    refine_to_good,
    rotation,
    to_iet,
)

from ietwords.cli import main
from ietwords.instances import random_iet, random_piecewise_map, random_subdivision
from ietwords.jsonio import InstanceSpec, dumps, iet_to_json, instance_to_json, map_to_json

from conftest import q

ALPHA = make_scalar(-1, 2, 1, 2, 5)


def two_piece_valid_nonbijective():
    # [0,1/2) reflected onto (0,1/2], [1/2,1) translated onto [0,1/2):
    # both land inside [0,1) but images overlap
    return PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(1, 2)), -1, q(1, 2)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(-1, 2)),
    ])


def test_halfopen_interval_validation():
    with pytest.raises(ValueError):
        HalfOpenInterval(q(1, 2), q(1, 2))
    with pytest.raises(ValueError):
        HalfOpenInterval(q(-1, 4), q(1, 2))
    with pytest.raises(ValueError):
        HalfOpenInterval(q(1, 2), q(5, 4))
    with pytest.raises(FieldMismatch):
        HalfOpenInterval(q(0), ExactScalar.one(5))


def test_halfopen_interval_is_a_component():
    h = HalfOpenInterval(q(1, 4), q(3, 4))
    c = Component(q(1, 4), True, q(3, 4), False)
    assert type(h) is Component and h == c and hash(h) == hash(c)
    assert HalfOpenInterval(lo=q(1, 4), hi=q(3, 4)) == h
    assert (h.lo_in, h.hi_in) == (True, False)
    assert str(h) == str(c) == "[1/4, 3/4)"
    assert (h.lo_key, h.hi_key) == (c.lo_key, c.hi_key)
    assert h.hi - h.lo == c.hi - c.lo == q(1, 2)


def test_domain_ends_and_intercepts_must_be_scalars():
    # an int, Fraction or float is refused by type, at either end; two
    # scalars from different fields are a field mismatch
    domain = HalfOpenInterval(q(0), q(1))
    for plain in (0, 1, Fraction(1, 2), 0.5):
        with pytest.raises(TypeError, match="domain end lo must be an ExactScalar"):
            HalfOpenInterval(plain, q(1))
        with pytest.raises(TypeError, match="domain end hi must be an ExactScalar"):
            HalfOpenInterval(q(0), plain)
        with pytest.raises(TypeError, match="intercept must be an ExactScalar"):
            AffinePiece(domain, 1, plain)
    with pytest.raises(FieldMismatch):
        HalfOpenInterval(ExactScalar.zero(5), q(1))


def test_a_piece_refuses_what_halfopen_interval_refuses():
    # a domain must lie in [0, 1), with ExactScalar ends: AffinePiece reads
    # the rule off a given Component's keys and raises what
    # HalfOpenInterval raises for the same ends
    for lo, hi in ((q(-1, 2), q(1)), (q(1, 2), q(3, 2))):
        with pytest.raises(ValueError) as refused:
            HalfOpenInterval(lo, hi)
        with pytest.raises(ValueError) as piece:
            AffinePiece(Component(lo, True, hi, False), 1, q(0))
        assert str(piece.value) == str(refused.value) == f"need 0 <= lo < hi <= 1, got [{lo}, {hi})"
    for lo in (q(0), q(-1, 2)):
        with pytest.raises(ValueError, match=re.escape(f"need 0 <= lo < hi <= 1, got [{lo}, 1]")):
            AffinePiece(Component(lo, True, q(1), True), 1, q(0))
    for lo, hi, name in ((0, q(1, 2), "lo"), (Fraction(0), q(1, 2), "lo"),
                         (q(0), 1, "hi"), (q(0), Fraction(1, 2), "hi"), (0, Fraction(1, 2), "lo")):
        with pytest.raises(TypeError, match=f"^domain end {name} must be an ExactScalar, got "):
            AffinePiece(Component(lo, True, hi, False), 1, q(0))
    # and [lo, hi) only: an open, closed or left-open domain is refused
    # with its own brackets
    for lo, lo_in, hi, hi_in in ((q(0), False, q(1, 2), False), (q(0), True, q(1, 2), True),
                                 (q(1, 2), False, q(1), False), (q(0), False, q(1, 2), True)):
        domain = Component(lo, lo_in, hi, hi_in)
        with pytest.raises(ValueError, match=re.escape(f"need 0 <= lo < hi <= 1, got {domain}")):
            AffinePiece(domain, 1, q(0))
    # so no map holds a domain that validate would misreport as an overlap,
    # nor one with an empty gap, as [0, 1/2] and (1/2, 1) would give
    with pytest.raises(ValueError):
        PiecewiseMap([AffinePiece(Component(q(-1, 2), True, q(1), False), 1, q(1, 2))])
    with pytest.raises(ValueError):
        PiecewiseMap([AffinePiece(Component(q(0), True, q(1, 2), True), 1, q(0)),
                      AffinePiece(Component(q(1, 2), False, q(1), False), 1, q(0))])


def test_slope_must_be_unit():
    # 1.0 and True compare equal to 1 but are not integer slopes
    for slope in (2, 0, 1.0, -1.0, True, Fraction(1)):
        with pytest.raises(ValueError):
            AffinePiece(HalfOpenInterval(q(0), q(1)), slope, q(0))


def test_validate_reports_gap_overlap_escape():
    gap = PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(1, 3)), 1, q(0)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(0)),
    ])
    kinds = {v.kind for v in gap.validate().violations}
    assert "coverage-gap" in kinds

    overlap = PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(2, 3)), 1, q(0)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(0)),
    ])
    assert "domain-overlap" in {v.kind for v in overlap.validate().violations}

    escape = PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(1, 2)), 1, q(3, 4)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(0)),
    ])
    assert "image-escape" in {v.kind for v in escape.validate().violations}
    with pytest.raises(CorruptMap):
        escape.require_valid()


def test_reflected_piece_image_endpoint_rule():
    # -x + 3/2 on [1/2, 1) attains 1 at the left endpoint: out of range
    bad = PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(1, 2)), 1, q(0)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), -1, q(3, 2)),
    ])
    assert "image-escape" in {v.kind for v in bad.validate().violations}
    # -x + 1/2 on [0, 1/2) gives (0, 1/2]: fine
    ok = two_piece_valid_nonbijective()
    report = ok.validate()
    assert report.ok and not report.bijective


def test_apply_and_domain_errors():
    m = identity_map(0)
    assert m.apply(q(1, 3)) == q(1, 3)
    with pytest.raises(PointOutsideDomain):
        m.apply(q(1))
    with pytest.raises(PointOutsideDomain):
        m.apply(q(-1, 5))
    assert PointOutsideDomain is intervalmap.PointOutsideDomain
    assert PointOutsideDomain is intervalsets.PointOutsideDomain


def test_rotation_basics():
    r = rotation(q(1, 3))
    assert r.apply(q(0)) == q(1, 3)
    assert r.apply(q(2, 3)) == q(0)
    assert r.discontinuities() == [q(2, 3)]
    assert rotation(q(0)).discontinuities() == []
    assert r.validate().bijective
    with pytest.raises(ValueError):
        rotation(q(3, 2))


def test_identity_has_no_discontinuities():
    assert identity_map(0).discontinuities() == []
    # a fake boundary where both pieces agree is not a discontinuity
    m = PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(1, 2)), 1, q(0)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(0)),
    ])
    assert m.discontinuities() == []


def test_discontinuities_are_computed_once(monkeypatch):
    # the cuts are read off the pieces' images, one per piece per map,
    # which validate computes; no piece is evaluated at a point
    images, evaluations, walked = [], [], []
    real_image, real_call = intervalmap.affine_image, AffinePiece.__call__
    real_faults = intervalsets.CellTable.faults
    monkeypatch.setattr(intervalmap, "affine_image",
                        lambda *args: images.append(args) or real_image(*args))
    monkeypatch.setattr(AffinePiece, "__call__",
                        lambda self, x: evaluations.append(x) or real_call(self, x))
    r = rotation(q(1, 3))
    first = r.discontinuities()
    assert first == [q(2, 3)] and len(images) == len(r)
    first.append(q(1, 2))
    assert r.validate().bijective
    assert r.discontinuities() == [q(2, 3)]
    assert len(images) == len(r) and evaluations == []

    # whichever call comes first on a fresh map, the images are computed
    # once and the image table is walked once, by validate
    monkeypatch.setattr(intervalsets.CellTable, "faults",
                        lambda self: walked.append(self) or real_faults(self))
    calls = {
        "validate": lambda pmap, sub: pmap.validate(),
        "discontinuities": lambda pmap, sub: pmap.discontinuities(),
        "is_good": lambda pmap, sub: is_good(sub, pmap),
        "refine_to_good": lambda pmap, sub: refine_to_good(sub, pmap),
        "to_iet": lambda pmap, sub: to_iet(pmap),
        "code": lambda pmap, sub: code(pmap, sub, ExactScalar.zero(pmap.d), 20),
    }
    rng = random.Random(31)
    maps = [rotation(q(1, 3)), rotation(ALPHA)]
    maps += [iet_to_map(random_iet(rng, d)) for d in (0, 5) for _ in range(3)]
    maps += [random_piecewise_map(rng, d) for d in (0, 5) for _ in range(3)]
    others = 0
    for pmap in maps:
        sub = random_subdivision(rng, pmap.d)
        iet = pmap.validate().bijective and all(p.slope == 1 for p in pmap.pieces)
        others += not iet
        order = [name for name in calls if iet or name != "to_iet"]
        for name in order:
            fresh = PiecewiseMap(pmap.pieces)
            images.clear()
            walked.clear()
            for call in (name, *order):
                calls[call](fresh, sub)
            assert len(images) == len(fresh), name
            assert [t is fresh.table for t in walked].count(False) == 1, name
    assert others >= 3


def test_iet_construction_errors():
    with pytest.raises(ValueError):
        IET((q(1, 2), q(1, 2)), (0, 0))
    with pytest.raises(ValueError):
        IET((q(1, 2), q(1, 4)), (1, 0))            # lengths sum != 1
    with pytest.raises(ValueError):
        IET((q(1, 2), q(0), q(1, 2)), (0, 1, 2))   # zero length


def test_iet_example_quarter_quarter_half():
    iet = IET((q(1, 4), q(1, 4), q(1, 2)), (2, 0, 1))
    m = iet_to_map(iet)
    assert m.validate().bijective
    assert m.apply(q(0)) == q(3, 4)
    assert m.apply(q(1, 4)) == q(0)
    assert m.apply(q(1, 2)) == q(1, 4)
    assert to_iet(m) == iet


def test_rotation_is_two_interval_exchange():
    r = rotation(ALPHA)
    iet = to_iet(r)
    one = ExactScalar.one(5)
    assert iet.lengths == (one - ALPHA, ALPHA)
    assert iet.permutation == (1, 0)
    assert iet_to_map(iet) == r


def hand_built_rotation(angle):
    """The rotation by angle as its two pieces [0, 1 - angle) -> x + angle
    and [1 - angle, 1) -> x + angle - 1, or as the identity for angle 0."""
    zero, one = ExactScalar.zero(angle.d), ExactScalar.one(angle.d)
    if angle == zero:
        return PiecewiseMap([AffinePiece(HalfOpenInterval(zero, one), 1, zero)])
    cut = one - angle
    return PiecewiseMap([AffinePiece(HalfOpenInterval(zero, cut), 1, angle),
                         AffinePiece(HalfOpenInterval(cut, one), 1, angle - one)])


def rotation_angles():
    """Seeded angles in Q, Q(sqrt 2) and Q(sqrt 5), angle 0 in each, and
    1/3 and 1/3 + 1/(3*10**2999 + 1) in Q(sqrt 5)."""
    rng = random.Random(26)
    angles = [ExactScalar.zero(d) for d in (0, 2, 5)]
    long_third = Fraction(1, 3) + Fraction(1, 3 * 10**2999 + 1)
    angles += [q(1, 3, 5), ExactScalar.from_rational(long_third, 5)]
    for d in (0, 2, 5):
        drawn = []
        while len(drawn) < 40:
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 20)) if d else Fraction(0)
            x = make_scalar(rng.randint(-80, 80), rng.randint(1, 50),
                            b.numerator, b.denominator, d)
            if 0 <= x < 1:
                drawn.append(x)
        angles += drawn
    return angles


def test_rotation_is_the_hand_built_two_piece_map():
    for angle in rotation_angles():
        built, expected = rotation(angle), hand_built_rotation(angle)
        assert len(built) == len(expected) == (1 if angle == 0 else 2)
        for p, e in zip(built.pieces, expected.pieces):
            assert p == e and str(p.domain) == str(e.domain)
            assert (p.slope, str(p.intercept)) == (e.slope, str(e.intercept))
            assert p.domain.lo.d == p.intercept.d == angle.d
        assert built.content_id() == expected.content_id()
        assert repr(built) == repr(expected)
    for d in (0, 2, 5):
        assert identity_map(d) == hand_built_rotation(ExactScalar.zero(d))
    with pytest.raises(ValueError, match=r"angle must lie in \[0, 1\)"):
        rotation(q(1, 1, 5))
    with pytest.raises(ValueError, match=r"angle must lie in \[0, 1\)"):
        rotation(q(-1, 3, 2))


def test_to_iet_rejections():
    with pytest.raises(NotTranslationPiecewise):
        to_iet(two_piece_valid_nonbijective())
    overlap_translations = PiecewiseMap([
        AffinePiece(HalfOpenInterval(q(0), q(1, 2)), 1, q(0)),
        AffinePiece(HalfOpenInterval(q(1, 2), q(1)), 1, q(-1, 2)),
    ])
    with pytest.raises(NotBijective):
        to_iet(overlap_translations)


def test_random_iet_roundtrip(rng):
    from ietwords.instances import random_iet

    for _ in range(40):
        iet = random_iet(rng)
        m = iet_to_map(iet)
        assert m.validate().bijective
        assert to_iet(m) == iet


def test_iet_domains_share_their_ends(tmp_path, capsys):
    # each domain ends on the very object the next one starts on, and the
    # last on 1, which the IET's sum check makes exact; the map, its id,
    # its JSON, its IET and the CLI's bytes are those of a map whose ends
    # are summed as start + length
    rng = random.Random(3)
    for d in (0, 2, 5):
        for i in range(20):
            iet = random_iet(rng, d)
            m = iet_to_map(iet)
            assert all(a.domain.hi is b.domain.lo for a, b in zip(m.pieces, m.pieces[1:]))
            assert m.pieces[-1].domain.hi == ExactScalar.one(d)
            summed = PiecewiseMap([
                AffinePiece(HalfOpenInterval(p.domain.lo, p.domain.lo + length), 1, p.intercept)
                for p, length in zip(m.pieces, iet.lengths)])
            assert m == summed and m.content_id() == summed.content_id()
            assert dumps(map_to_json(m)) == dumps(map_to_json(summed))
            assert dumps(iet_to_json(to_iet(m))) == dumps(iet_to_json(to_iet(summed)))
            if i % 5:
                continue
            sub, x0 = random_subdivision(rng, d), ExactScalar.zero(d)
            outputs = []
            for name, spec in (("iet", InstanceSpec(d, m, sub, x0, 30, iet)),
                               ("pieces", InstanceSpec(d, summed, sub, x0, 30))):
                path = tmp_path / f"{name}.json"
                path.write_text(dumps(instance_to_json(spec)))
                for command in (["generate", "--json"], ["check-good", "--json"], ["to-iet"]):
                    assert main([command[0], str(path), *command[1:]]) in (0, 1)
                    outputs.append(capsys.readouterr().out)
            assert outputs[:3] == outputs[3:]


def test_rational_rotation_orbit_period():
    r = rotation(q(2, 5))
    x = q(0)
    seen = [x]
    for _ in range(5):
        x = r.apply(x)
        seen.append(x)
    assert seen[5] == seen[0]
    assert len(set(seen[:5])) == 5


def test_content_id_is_content_derived():
    a = rotation(q(1, 3))
    b = rotation(q(1, 3))
    c = rotation(q(1, 4))
    assert a.content_id() == b.content_id()
    assert a.content_id() != c.content_id()
