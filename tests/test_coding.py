import math
from fractions import Fraction
from itertools import islice

import pytest

import ietwords.coding as coding
from ietwords import (
    OK,
    BoundarySet,
    PiecewiseMap,
    Component,
    ExactScalar,
    FieldMismatch,
    GluingMap,
    PointOutsideDomain,
    RoundtripResult,
    Subdivision,
    SymbolicWord,
    WordOrigin,
    code,
    iet_to_map,
    iter_code,
    iter_orbit,
    make_scalar,
    orbit,
    refine_to_good,
    rotation,
    roundtrip_check,
    word_to_json,
)
from ietwords.instances import random_iet, random_instance
from ietwords.intervalsets import LatticeTable

from conftest import as_fraction, q
from oracles import fibonacci_word


def third_rotation():
    sub = Subdivision({
        "A": BoundarySet([Component(q(0), True, q(2, 3), False)]),
        "B": BoundarySet([Component(q(2, 3), True, q(1), False)]),
    })
    return rotation(q(1, 3)), sub


# ------------------------------------------------------------------ orbits

def test_rotation_orbit_values(golden):
    R, _, alpha = golden
    pts = orbit(R, ExactScalar.zero(5), 3)
    assert list(pts) == [ExactScalar.zero(5), alpha,
                         alpha + alpha - ExactScalar.one(5)]
    assert len(pts) == 3 and pts[1] == alpha


def test_orbit_rejects_bad_arguments(golden):
    R, _, _ = golden
    with pytest.raises(ValueError):
        orbit(R, ExactScalar.zero(5), 0)
    with pytest.raises(PointOutsideDomain):
        orbit(R, ExactScalar.one(5), 5)
    with pytest.raises(PointOutsideDomain):
        orbit(R, make_scalar(-1, 3, 0, 1, 5), 5)


def test_iter_orbit_is_lazy_and_unbounded():
    R = rotation(q(1, 3))
    first = list(islice(iter_orbit(R, q(0)), 7))
    assert first[:3] == [q(0), q(1, 3), q(2, 3)]
    assert first[3] == q(0)  # period three
    assert first == list(islice(iter_orbit(R, q(0)), 7))


def test_n_points_cost_n_minus_one_applies(monkeypatch, golden):
    # every walk steps on the lattice and never calls PiecewiseMap.apply.
    # It compiles one LatticeTable, the overlay of the map's pieces and the
    # cells it reads, and looks each value it hands out up there once: n
    # values cost n lookups, for orbit and iter_orbit too, which looked up
    # n - 1 points when their table held the map's pieces alone and the
    # last point's piece went unread.  A walk that comes back to an earlier
    # point stops looking up.  roundtrip_check walks only to locate a
    # mismatch, so on a certified agreement table it compiles and looks up
    # nothing (tests/test_lattice.py counts it on broken tables)
    applies, lookups, compiled = [], [], []
    real_apply, real_index, real_init = (PiecewiseMap.apply, LatticeTable.index,
                                         LatticeTable.__init__)

    def counting_apply(self, x):
        applies.append(x)
        return real_apply(self, x)

    def counting_index(self, A, B):
        lookups.append((A, B))
        return real_index(self, A, B)

    def counting_init(self, cells, d, den):
        compiled.append(cells)
        real_init(self, cells, d, den)

    def walks(pmap, sub, x0):
        return (lambda n: orbit(pmap, x0, n),
                lambda n: list(iter_orbit(pmap, x0, n)),
                lambda n: code(pmap, sub, x0, n),
                lambda n: list(iter_code(pmap, sub, x0, n)),
                lambda n: roundtrip_check(pmap, sub, x0, n))

    def cost(run, n):
        """(lookups, tables compiled) for one call."""
        applies.clear()
        lookups.clear()
        compiled.clear()
        run(n)
        assert applies == []
        return len(lookups), len(compiled)

    monkeypatch.setattr(PiecewiseMap, "apply", counting_apply)
    monkeypatch.setattr(LatticeTable, "index", counting_index)
    monkeypatch.setattr(LatticeTable, "__init__", counting_init)
    # the golden rotation never repeats: n values, n lookups
    R5, sub5, alpha = golden
    *walking, check = walks(R5, sub5, alpha)
    for run in walking:
        for n in (1, 2, 10, 1000):
            assert cost(run, n) == (n, 1)
    for n in (1, 2, 10, 10**4):
        assert cost(check, n) == (0, 0)
    # the rotation by 1/3 repeats from 0 with period 3.  Brent's mark sits
    # at 0, then at 1, then at 3, and the walk comes back to it at index 6,
    # the seventh point read; from there it reads one more period, points
    # 6, 7 and 8, and repeats them, so no n costs more than 9 lookups
    R, sub = third_rotation()
    *stopping, check = walks(R, sub, q(0))
    for run in stopping:
        for n in (1, 2, 6, 7, 8, 9, 10, 10**4):
            assert cost(run, n) == (min(n, 9), 1), n
    for n in (1, 2, 10, 10**4):
        assert cost(check, n) == (0, 0)
    assert list(iter_orbit(R, q(0), 0)) == []


def test_orbit_lifts_int_and_fraction_starts(golden):
    R = rotation(q(1, 3))
    for x0 in (0, Fraction(0), q(0)):
        pts = orbit(R, x0, 3)
        assert pts == (q(0), q(1, 3), q(2, 3))
        assert all(type(x) is ExactScalar and x.d == 0 for x in pts)
    R5, _, alpha = golden
    pts = orbit(R5, Fraction(1, 3), 2)
    assert pts == (ExactScalar.from_rational(Fraction(1, 3), 5),
                   ExactScalar.from_rational(Fraction(1, 3), 5) + alpha)
    assert all(type(x) is ExactScalar and x.d == 5 for x in pts)


def test_orbit_denominators_do_not_grow(rng):
    # translations by rationals: every orbit point's denominator divides
    # the lcm of the input denominators (coding stays exactly computable)
    for _ in range(20):
        pmap = iet_to_map(random_iet(rng, d=0))
        dens = [1]
        for piece in pmap.pieces:
            dens.append(as_fraction(piece.domain.lo).denominator)
            dens.append(as_fraction(piece.domain.hi).denominator)
            dens.append(as_fraction(piece.intercept).denominator)
        x0 = Fraction(rng.randint(0, 63), 64)
        dens.append(64)
        bound = math.lcm(*dens)
        for x in orbit(pmap, q(x0.numerator, x0.denominator), 200):
            assert bound % as_fraction(x).denominator == 0


# ------------------------------------------------------------------- words

def test_third_rotation_code_matches_hand_computation():
    R, sub = third_rotation()
    w = code(R, sub, q(0), 6)
    assert w == ("A", "A", "B", "A", "A", "B")
    assert w.text() == "A A B A A B"


def test_streaming_and_batch_codings_agree(golden):
    R, sub, _ = golden
    batch = code(R, sub, ExactScalar.zero(5), 64)
    stream = tuple(islice(iter_code(R, sub, ExactScalar.zero(5)), 64))
    assert batch == stream


def test_golden_prefix_is_the_fibonacci_word(golden):
    R, sub, alpha = golden
    w = code(R, sub, alpha, 20)
    assert w == fibonacci_word(20)


def test_code_records_origin(golden):
    R, sub, alpha = golden
    w = code(R, sub, alpha, 12)
    o = w.origin
    assert o.map_id == R.content_id()
    assert o.subdivision_id == sub.content_id()
    assert o.x0 == alpha and o.length == 12 and o.projected is False


def test_code_lifts_int_and_fraction_starts(golden):
    R5, sub5, _ = golden
    R0, sub0 = third_rotation()
    for pmap, sub in ((R5, sub5), (R0, sub0)):
        for x0 in (0, Fraction(1, 3)):
            exact = ExactScalar.from_rational(x0, pmap.d)
            w = code(pmap, sub, x0, 4)
            assert type(w.origin.x0) is ExactScalar and w.origin.x0.d == pmap.d
            assert word_to_json(w) == word_to_json(code(pmap, sub, exact, 4))


def test_code_requires_matching_field(golden):
    R, _, _ = golden
    _, sub0 = third_rotation()
    with pytest.raises(FieldMismatch):
        code(R, sub0, ExactScalar.zero(5), 4)


def test_rational_rotation_code_is_periodic():
    R = rotation(q(2, 5))
    sub = Subdivision({
        "A": BoundarySet([Component(q(0), True, q(1, 2), False)]),
        "B": BoundarySet([Component(q(1, 2), True, q(1), False)]),
    })
    w = code(R, sub, q(1, 7), 40)
    assert all(w[i] == w[i + 5] for i in range(35))


# ------------------------------------------------------------ SymbolicWord

def test_word_equality_ignores_origin():
    origin = WordOrigin("map:x", "sub:y", q(0), 3)
    w = SymbolicWord("a b a".split(), origin)
    assert w == SymbolicWord(("a", "b", "a"))
    assert w == ("a", "b", "a") and w == ["a", "b", "a"]
    assert w != ("a", "b") and w != ("a", "b", "b")
    assert hash(w) == hash(SymbolicWord(("a", "b", "a")))


def test_word_origin_length_must_match():
    with pytest.raises(ValueError):
        SymbolicWord(("a",), WordOrigin("map:x", "sub:y", q(0), 2))


def test_word_sequence_interface():
    w = SymbolicWord("x y z".split())
    assert len(w) == 3 and w[0] == "x" and w[-1] == "z"
    assert list(w) == ["x", "y", "z"]
    assert "SymbolicWord" in repr(w)


def test_text_wrapping():
    w = SymbolicWord([str(i) for i in range(7)])
    assert w.text() == "0 1 2 3 4 5 6"
    assert w.text(wrap=3) == "0 1 2\n3 4 5\n6"
    assert w.text(wrap=1) == "\n".join(w.letters)
    # a wrap below 1 would drop every letter (w < 0) or leak range()'s error
    for wrap in (0, -1, -7):
        with pytest.raises(ValueError, match=r"need wrap >= 1"):
            w.text(wrap=wrap)


def test_projected_marks_origin(golden):
    R, sub, _ = golden
    w = code(R, sub, ExactScalar.zero(5), 5)
    p = w.projected(["x"] * 5)
    assert p.letters == ("x",) * 5
    assert p.origin.projected is True
    assert p.origin.map_id == w.origin.map_id
    assert w.origin.projected is False  # original untouched
    assert SymbolicWord(("a",)).projected(("b",)).origin is None


# --------------------------------------------------------------- roundtrip

def test_roundtrip_result_protocol():
    assert OK.ok and bool(OK) and str(OK) == "OK"
    bad = RoundtripResult(False, 17)
    assert not bad and str(bad) == "Mismatch(17)"


def test_roundtrip_on_golden_instance(golden):
    R, sub, alpha = golden
    assert roundtrip_check(R, sub, alpha, 500) is OK


def test_roundtrip_on_coarse_subdivision(golden):
    R, _, _ = golden
    one_class = Subdivision({
        "A": BoundarySet([Component(ExactScalar.zero(5), True,
                                    ExactScalar.one(5), False)]),
    })
    assert roundtrip_check(R, one_class, ExactScalar.zero(5), 500).ok


def test_roundtrip_on_random_instances(rng):
    for _ in range(15):
        pmap, sub, x0 = random_instance(rng)
        assert roundtrip_check(pmap, sub, x0, 300).ok


def counting(monkeypatch, name):
    """The arguments of each construction of coding's `name`."""
    made = []
    real = getattr(coding, name)

    def count(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(coding, name, count)
    return made


def test_certified_roundtrip_compiles_no_table(monkeypatch, golden):
    # certified agreement cells answer without a walk, so neither their
    # table nor a lattice table is built, but a bad start still raises as
    # a walk would
    R, sub, alpha = golden

    def refuse(*args):
        raise AssertionError("a certified round trip compiled a LatticeTable")

    cell_tables = counting(monkeypatch, "CellTable")
    monkeypatch.setattr("ietwords.coding.LatticeTable", refuse)
    assert roundtrip_check(R, sub, alpha, 10**6) is OK
    assert cell_tables == []
    assert roundtrip_check(R, sub, 0, 1) is OK
    with pytest.raises(PointOutsideDomain):
        roundtrip_check(R, sub, 1, 10)
    with pytest.raises(FieldMismatch):
        roundtrip_check(R, sub, make_scalar(0, 1, 1, 2, 2), 10)
    with pytest.raises(TypeError):
        roundtrip_check(R, sub, "1/2", 10)
    with pytest.raises(ValueError):
        roundtrip_check(R, sub, alpha, 0)


def test_a_wrong_letter_is_walked_to_in_one_table(monkeypatch, golden):
    # a gluing that sends the letter of [0, 1/50) to "1" breaks the round
    # trip there: the walk compiles one lattice table and stops at the
    # orbit's first point in [0, 1/50), pinned and stepped through R here
    R, _, alpha = golden
    zero, one = ExactScalar.zero(5), ExactScalar.one(5)
    cut, tiny = one - alpha, q(1, 50, 5)
    sub = Subdivision({"1": [Component(tiny, True, cut, False)],
                       "0": [Component(cut, True, one, False)],
                       "x": [Component(zero, True, tiny, False)]})
    refined, gluing = refine_to_good(sub, R)
    assert gluing.mapping == {"00": "0", "10": "1", "x0": "x"}
    monkeypatch.setattr(coding, "refine_to_good",
                        lambda s, m: (refined, GluingMap({**gluing.mapping, "x0": "1"})))
    for x0, k in ((alpha, 33), (zero, 0), (q(1, 2, 5), 17)):
        x, first = x0, 0
        while not x < tiny:
            x, first = R(x), first + 1
        assert first == k
        lattice_tables = counting(monkeypatch, "LatticeTable")
        assert roundtrip_check(R, sub, x0, 10**6) == RoundtripResult(False, k)
        assert len(lattice_tables) == 1
        assert roundtrip_check(R, sub, x0, k + 1) == RoundtripResult(False, k)
        if k:
            assert roundtrip_check(R, sub, x0, k) is OK
