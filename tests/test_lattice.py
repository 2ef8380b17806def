"""The lattice orbit walk against the exact walk.

code, iter_code and roundtrip_check step orbits on the integer lattice
(1/den)(Z + Z sqrt d) and locate points through LatticeTable, whose float
filter must send every close case to exact integer signs, and so does
iter_orbit, which hands the lattice points out as ExactScalar values.  An
orbit stepped through PiecewiseMap.apply and colored by color_of on
ExactScalar values is the oracle here: points, letters, verdicts,
exceptions and the number of letters before an exception must agree
exactly.  Every walk stops at the first repeated lattice point (Brent's
rule); the cycle tests compare every walk with the oracle at lengths just
before, at and after the point where it closes.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import islice, takewhile
from math import isqrt, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import ietwords.coding as coding
import ietwords.intervalsets as intervalsets
from ietwords import (
    IET,
    OK,
    AffinePiece,
    Component,
    CorruptMap,
    ExactScalar,
    HalfOpenInterval,
    PiecewiseMap,
    PointOutsideDomain,
    RoundtripResult,
    Subdivision,
    code,
    iet_to_map,
    iter_code,
    iter_orbit,
    make_scalar,
    mod1,
    orbit,
    refine_to_good,
    rotation,
    roundtrip_check,
)
from ietwords.instances import (
    golden_alpha,
    random_instance,
    random_rational_instance,
    random_subdivision,
    random_translation_instance,
)
from ietwords.intervalsets import AT, LatticeTable, _from_keys, key

from test_differential import perturbed_translation_map, random_map

FIELDS = (0, 2, 5, 4000037)
STEPS = 300

# ------------------------------------------------------------ references


def exact_orbit(pmap, x0, n):
    """x0, T x0, ..., T^(n-1) x0, stepped through PiecewiseMap.apply."""
    if not ExactScalar.zero(pmap.d) <= x0 < ExactScalar.one(pmap.d):
        raise PointOutsideDomain(f"{x0} outside [0, 1)")
    x = x0
    for k in range(n):
        if k:
            x = pmap.apply(x)
        yield x


def stopped(walk):
    """The items of a walk until it stops, and the type of what stopped it."""
    items = []
    try:
        for item in walk:
            items.append(item)
    except (CorruptMap, PointOutsideDomain) as e:
        return items, type(e)
    return items, None


def exact_letters(pmap, sub, x0, n):
    return stopped(sub.color_of(x) for x in exact_orbit(pmap, x0, n))


def lattice_letters(pmap, sub, x0, n):
    return stopped(iter_code(pmap, sub, x0, n))


def exact_roundtrip(pmap, sub, x0, n):
    refined, gluing = refine_to_good(sub, pmap)
    for k, x in enumerate(exact_orbit(pmap, x0, n)):
        if gluing(refined.color_of(x)) != sub.color_of(x):
            return RoundtripResult(False, k)
    return OK


def assert_walks_agree(pmap, sub, x0, n=STEPS):
    assert stopped(iter_orbit(pmap, x0, n)) == stopped(exact_orbit(pmap, x0, n))
    expected = exact_letters(pmap, sub, x0, n)
    assert lattice_letters(pmap, sub, x0, n) == expected
    if expected[1] is None:
        assert code(pmap, sub, x0, n) == tuple(expected[0])
        assert roundtrip_check(pmap, sub, x0, n) == exact_roundtrip(pmap, sub, x0, n)


# ------------------------------------------------------------ generators


def frac_sqrt(d):
    """sqrt(d) - floor(sqrt(d)), irrational in (0, 1) for d in FIELDS."""
    return make_scalar(-isqrt(d), 1, 1, 1, d)


def field_points(rng, d):
    """Sorted distinct points of (0, 1): rationals and multiples of frac(sqrt d)."""
    points = {ExactScalar.from_rational(Fraction(rng.randint(1, den - 1), den), d)
              for den in (rng.randint(2, 40) for _ in range(12))}
    if d > 1:
        x = ExactScalar.zero(d)
        for _ in range(8):
            x = mod1(x + frac_sqrt(d))
            points.add(x)
    return sorted(points)


def quadratic_instance(rng, d):
    """An IET and a subdivision whose cuts are drawn from field_points, with
    random endpoint flags, and a start among those points."""
    pool = field_points(rng, d)
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    bounds = [zero, *sorted(rng.sample(pool, rng.randint(1, 4))), one]
    lengths = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    perm = list(range(len(lengths)))
    rng.shuffle(perm)
    pmap = iet_to_map(IET(lengths, tuple(perm)))
    cuts = [zero, *sorted(rng.sample(pool, rng.randint(1, 5))), one]
    classes = {}
    closed = [rng.random() < 0.5 for _ in cuts]     # the cut joins its left cell
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        comp = Component(lo, i == 0 or not closed[i], hi, i + 2 < len(cuts) and closed[i + 1])
        classes.setdefault(rng.choice("ABC"), []).append(comp)
    return pmap, Subdivision(classes), rng.choice([zero, *pool])


@st.composite
def instances(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("piecewise", "translation", "rational", "quadratic")))
    d = draw(st.sampled_from(FIELDS))
    if kind == "piecewise":
        return random_instance(rng, d)
    if kind == "translation":
        return random_translation_instance(rng, d)
    if kind == "rational":
        return random_rational_instance(rng)[:3]
    return quadratic_instance(rng, d)


# ------------------------------------------------------------------ tests


def outcome(run, *args):
    try:
        return run(*args)
    except (CorruptMap, PointOutsideDomain) as e:
        return type(e)


@pytest.fixture
def sign_calls(monkeypatch):
    """The radicand of every exact sign LatticeTable asks for."""
    calls = []
    real = intervalsets._sign_of

    def counting(a, b, d):
        calls.append(d)
        return real(a, b, d)

    monkeypatch.setattr(intervalsets, "_sign_of", counting)
    return calls


@settings(max_examples=120, deadline=None)
@given(instances())
def test_lattice_walk_matches_exact_walk(instance):
    assert_walks_agree(*instance)


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_starts_on_cell_endpoints(instance, data):
    # 1 is an endpoint too: both walks refuse it before any letter
    pmap, sub, _ = instance
    ends = [*cell_ends(pmap.table), *cell_ends(sub.table)]
    assert_walks_agree(pmap, sub, data.draw(st.sampled_from(ends)), 100)


def cut_subdivision(bounds, closed_right):
    """One class per cell between the sorted bounds 0, ..., 1; with
    closed_right each interior cut belongs to the cell on its left."""
    classes = {}
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        interior = i + 2 < len(bounds)
        classes["ABCD"[i]] = [Component(lo, i == 0 or not closed_right,
                                        hi, closed_right and interior)]
    return Subdivision(classes)


@pytest.mark.parametrize("closed_right", [False, True])
@pytest.mark.parametrize("d", FIELDS)
def test_orbits_that_land_on_cuts(d, closed_right):
    zero, one = ExactScalar.zero(d), ExactScalar.one(d)
    quarters = [ExactScalar.from_rational(Fraction(k, 4), d) for k in (1, 2, 3)]
    sub = cut_subdivision([zero, *quarters, one], closed_right)
    assert_walks_agree(rotation(quarters[0]), sub, zero, 40)
    word = code(rotation(quarters[0]), sub, zero, 8)
    assert word == tuple("AABC" * 2 if closed_right else "ABCD" * 2)
    if d > 1:
        # cuts at the first three points of the orbit of 0 under frac(sqrt d)
        R = rotation(frac_sqrt(d))
        cuts = sorted(islice(exact_orbit(R, zero, 4), 1, 4))
        assert_walks_agree(R, cut_subdivision([zero, *cuts, one], closed_right), zero, 40)


def tiny_steps(d):
    """10**-20, and alpha**k for alpha = frac(sqrt d) (1/10 when d <= 1):
    tiny values, the latter with large coefficients, that floats added to
    an endpoint cannot resolve."""
    alpha = frac_sqrt(d) if d > 1 else ExactScalar.from_rational(Fraction(1, 10), d)
    return [ExactScalar.from_rational(Fraction(1, 10**20), d),
            *(reduce(mul, [alpha] * k) for k in (3, 25, 60))]


def cell_ends(table):
    """The endpoint values of every cell of a CellTable, left then right."""
    return [x for lo, hi, _ in table.cells
            for cell in [_from_keys(lo, hi)] for x in (cell.lo, cell.hi)]


def assert_lookups_match(table):
    """LatticeTable.index against CellTable.index on a table that tiles
    [0, 1), at every endpoint, a tiny step either side of it, and its float
    value read back as a rational, wherever those lie in [0, 1)."""
    d = table.d
    ends = cell_ends(table)
    probes = ends + [e + sign * t for e in ends for t in tiny_steps(d) for sign in (1, -1)]
    probes += [ExactScalar.from_rational(Fraction(e.approx()), d) for e in ends]
    probes = [x for x in probes if ExactScalar.zero(d) <= x < ExactScalar.one(d)]
    den = lcm(*(x.denominator for x in probes))
    lattice = LatticeTable(table, den)
    for x in probes:
        assert lattice.index(lattice.point(*x.on_lattice(den))) == table.index(x), (d, x)


def test_lookups_near_cuts_match_cell_table():
    rng = random.Random(22)
    for d in FIELDS:
        zero, one = ExactScalar.zero(d), ExactScalar.one(d)
        # a cut at alpha**25, whose float value is off by far more than the
        # distance to a rational read back from it
        assert_lookups_match(cut_subdivision([zero, tiny_steps(d)[2], one], False).table)
        for _ in range(4):
            for pmap, sub, _ in (quadratic_instance(rng, d), random_instance(rng, d)):
                assert_lookups_match(pmap.table)
                assert_lookups_match(sub.table)


def test_exact_fallback_runs_on_close_cases(sign_calls):
    alpha = golden_alpha()
    R = rotation(alpha)
    cut = ExactScalar.one(5) - alpha
    sub = cut_subdivision([ExactScalar.zero(5), cut, ExactScalar.one(5)], False)
    # from the cut 1 - alpha the orbit visits 0 next: two points on cuts
    assert_walks_agree(R, sub, cut, 2000)
    assert 0 < len(sign_calls) < 200
    sign_calls.clear()
    # a generic orbit stays far from both cuts: the filter decides it all
    assert_walks_agree(R, sub, mod1(alpha * 3 + Fraction(1, 7)), 2000)
    assert sign_calls == []


@pytest.mark.parametrize("d", [0, 5])
def test_coefficients_past_float_range(d, sign_calls):
    # a 401-digit denominator: every lattice coefficient is past float
    # range, so in Q(sqrt 5) every lookup is decided by exact signs
    base = golden_alpha() if d == 5 else ExactScalar.from_rational(Fraction(1, 3), d)
    angle = mod1(base + Fraction(1, 10**400 + 3))
    half = ExactScalar.from_rational(Fraction(1, 2), d)
    sub = cut_subdivision([ExactScalar.zero(d), half, ExactScalar.one(d)], False)
    assert_walks_agree(rotation(angle), sub, angle, 60)
    assert bool(sign_calls) == (d == 5)


def invalid_maps(rng):
    """Maps with gaps, overlaps and escaping images, and translation maps
    with one piece shifted or reflected."""
    maps = [random_map(rng) for _ in range(200)]
    return maps + [perturbed_translation_map(rng) for _ in range(60)]


def assert_walks_refuse(pmap, sub, x0, n):
    """Every walk raises CorruptMap before it hands anything out."""
    assert stopped(iter_orbit(pmap, x0, n)) == ([], CorruptMap)
    assert stopped(iter_code(pmap, sub, x0, n)) == ([], CorruptMap)
    assert outcome(orbit, pmap, x0, n) is CorruptMap
    assert outcome(code, pmap, sub, x0, n) is CorruptMap
    assert outcome(roundtrip_check, pmap, sub, x0, n) is CorruptMap


def test_invalid_maps_fail_after_the_same_letters():
    # a map that fails validation is refused before any point or letter,
    # also from a start outside [0, 1); the maps with a clean report end
    # where the exact walk ends
    rng = random.Random(21)
    stops = set()
    refused = 0
    for pmap in invalid_maps(rng):
        sub = random_subdivision(rng, pmap.d)
        zero = ExactScalar.zero(pmap.d)
        starts = (zero, *field_points(rng, pmap.d)[:4], ExactScalar.one(pmap.d))
        if not pmap.validate().ok:
            refused += 1
            for x0 in starts:
                assert_walks_refuse(pmap, sub, x0, 60)
            continue
        for x0 in starts:
            assert stopped(iter_orbit(pmap, x0, 60)) == stopped(exact_orbit(pmap, x0, 60))
            letters, stop = exact_letters(pmap, sub, x0, 60)
            assert lattice_letters(pmap, sub, x0, 60) == (letters, stop), (pmap, x0)
            stops.add((stop, len(letters) > 0))
        assert (outcome(roundtrip_check, pmap, sub, zero, 20)
                == outcome(exact_roundtrip, pmap, sub, zero, 20))
    assert refused == 222
    # walks that end cleanly, and starts at 1, refused before any letter
    assert stops == {(None, True), (PointOutsideDomain, False)}


# ---------------------------------------------------------------- cycles


def first_repeat(pmap, x0, limit):
    """(mu, lam) when T^(mu + lam) x0 = T^mu x0 is the first repeat among
    the first limit exact orbit points; None when they are all distinct."""
    seen = {}
    for i, x in enumerate(exact_orbit(pmap, x0, limit)):
        if x in seen:
            return seen[x], i - seen[x]
        seen[x] = i
    return None


def brent_closing(mu, lam):
    """The index at which Brent's rule closes a cycle of lam after a
    preperiod of mu: the mark sits at 2**j - 1 for the least j with
    2**j >= max(mu + 1, lam), and the walk comes back to it lam steps on."""
    return (1 << (max(mu + 1, lam) - 1).bit_length()) - 1 + lam


def lattice_cycle(pmap, x0, limit):
    """How many values the walk's stream hands out before it closes a cycle
    (at most limit), and the period it reports."""
    walk = coding._LatticeOrbit(pmap, x0)
    values = islice(walk.stream(lambda point: point), limit)
    return sum(1 for _ in takewhile(lambda _: walk.period is None, values)), walk.period


def closing_lengths(pmap, x0, limit=2000):
    """k - 1, k, k + 1 and k + lam around the index k where the walk closes
    a cycle of lam, after checking k and lam against the exact orbit;
    (STEPS,) when the first limit exact points are all distinct."""
    repeat = first_repeat(pmap, x0, limit)
    if repeat is None:
        assert lattice_cycle(pmap, x0, limit) == (limit, None)
        return (STEPS,)
    mu, lam = repeat
    k = brent_closing(mu, lam)
    assert lattice_cycle(pmap, x0, 10 * limit) == (k, lam)
    return tuple(n for n in (k - 1, k, k + 1, k + lam) if n >= 1)


def assert_prefixes_agree(pmap, sub, x0, lengths):
    """orbit, iter_orbit, code, iter_code and roundtrip_check at every length
    against one exact walk of the longest, and the unbounded streams read
    through islice."""
    longest = max(lengths)
    points = list(exact_orbit(pmap, x0, longest))
    letters, stop = exact_letters(pmap, sub, x0, longest)
    assert stop is None
    verdict = exact_roundtrip(pmap, sub, x0, longest)
    for n in lengths:
        assert orbit(pmap, x0, n) == tuple(points[:n]) == tuple(iter_orbit(pmap, x0, n))
        assert code(pmap, sub, x0, n) == tuple(letters[:n]), n
        assert tuple(iter_code(pmap, sub, x0, n)) == tuple(letters[:n]), n
        expected = verdict if verdict.ok or verdict.mismatch_index < n else OK
        assert roundtrip_check(pmap, sub, x0, n) == expected, n
    assert list(islice(iter_orbit(pmap, x0), longest)) == points
    assert list(islice(iter_code(pmap, sub, x0), longest)) == letters


def flip_map(h, c):
    """x + h on [0, 1/2) and c - x on [1/2, 1), for 0 < h < 1/2 and
    1 + h <= c < 3/2: every orbit climbs by h into [1/2, 1) and ends on the
    fixed point c/2 or on a two-cycle about it."""
    d = h.d
    half, one = ExactScalar.from_rational(Fraction(1, 2), d), ExactScalar.one(d)
    return PiecewiseMap([AffinePiece(HalfOpenInterval(ExactScalar.zero(d), half), 1, h),
                         AffinePiece(HalfOpenInterval(half, one), -1, c)])


def flip_instances():
    """(map, subdivision, x0, (mu, lam)) for flip maps in Q and Q(sqrt 5):
    preperiods, fixed points and starts on a cut."""
    instances = []
    for d in (0, 5):
        r = lambda num, den: ExactScalar.from_rational(Fraction(num, den), d)
        zero, one = ExactScalar.zero(d), ExactScalar.one(d)
        cases = [
            (r(1, 16), r(5, 4), zero, (8, 2)),        # climbs to 1/2, then 1/2 <-> 3/4
            (r(1, 16), r(5, 4), r(1, 2), (0, 2)),     # a start on the map's cut
            (r(3, 16), r(5, 4), r(1, 16), (3, 1)),    # climbs onto the fixed point 5/8
            (r(1, 16), r(5, 4), r(5, 8), (0, 1)),     # a start on the fixed point
            (r(1, 1000), r(5, 4), zero, (500, 2)),    # a long preperiod
        ]
        if d:
            alpha = golden_alpha()
            c = one + alpha * Fraction(1, 4)          # fixed point 1/2 + alpha/8
            cases += [(r(1, 16), r(5, 4), alpha * Fraction(1, 8), (7, 2)),
                      (r(1, 8), c, alpha * Fraction(1, 8), (4, 1)),
                      (r(1, 8), c, c * Fraction(1, 2), (0, 1))]
        for h, c, x0, cycle_shape in cases:
            # the fixed point c/2 is a cut, and so is the map's cut 1/2
            bounds = [zero, r(1, 4), r(1, 2), c * Fraction(1, 2), one]
            for closed_right in (False, True):
                sub = cut_subdivision(bounds, closed_right)
                instances.append((flip_map(h, c), sub, x0, cycle_shape))
    return instances


@st.composite
def cycling_instances(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("rational", "piecewise", "flip")))
    d = draw(st.sampled_from((0, 5)))
    if kind == "rational":
        return random_rational_instance(rng)[:3]
    if kind == "piecewise":
        return random_instance(rng, d)
    r = lambda num, den: ExactScalar.from_rational(Fraction(num, den), d)
    h = r(1, rng.randint(3, 40))
    if d and rng.random() < 0.5:
        share = golden_alpha() * Fraction(1, 2)
    else:
        share = r(rng.randint(0, 9), 10)
    c = ExactScalar.one(d) + h + (r(1, 2) - h) * share      # in [1 + h, 3/2)
    x0 = rng.choice([ExactScalar.zero(d), r(1, 2), c * Fraction(1, 2), *field_points(rng, d)])
    return flip_map(h, c), random_subdivision(rng, d), x0


@settings(max_examples=80, deadline=None)
@given(cycling_instances())
def test_walks_agree_around_the_closing_index(instance):
    pmap, sub, x0 = instance
    assert_prefixes_agree(pmap, sub, x0, closing_lengths(pmap, x0))


def test_flip_map_cycles_close_where_brent_says():
    for pmap, sub, x0, (mu, lam) in flip_instances():
        assert first_repeat(pmap, x0, 2000) == (mu, lam)
        assert_prefixes_agree(pmap, sub, x0, closing_lengths(pmap, x0))


@pytest.mark.parametrize("d", [0, 5])
def test_ten_thousand_letters_past_a_cycle(d):
    rng = random.Random(31 + d)
    rational = [random_rational_instance(rng)[:3]] if d == 0 else []
    flips = [(pmap, sub, x0) for pmap, sub, x0, _ in flip_instances() if pmap.d == d]
    for pmap, sub, x0 in [*rational, flips[0], flips[-1]]:
        assert_prefixes_agree(pmap, sub, x0, (10**4,))


def isolating(sub, x, letter):
    """sub with the point x taken out of its class into a class of its own
    named letter, and the gluing that sends letter to a different class."""
    classes = {}
    for cell_lo, cell_hi, name in sub.table.cells:
        cell = _from_keys(cell_lo, cell_hi)
        lo, hi, lo_in, hi_in = cell.lo, cell.hi, cell.lo_in, cell.hi_in
        if not (cell_lo <= key(x, AT) <= cell_hi):
            classes.setdefault(name, []).append(Component(lo, lo_in, hi, hi_in))
            continue
        if lo != x:
            classes.setdefault(name, []).append(Component(lo, lo_in, x, False))
        if hi != x:
            classes.setdefault(name, []).append(Component(x, False, hi, hi_in))
        wrong = next(other for other in sub.alphabet if other != name)
    classes[letter] = [Component(x, True, x, True)]
    return Subdivision(classes), lambda l: wrong if l == letter else l


@pytest.fixture
def map_lookups(monkeypatch):
    """The points LatticeTable.index locates in a map's table."""
    points = []
    real = LatticeTable.index

    def counting(self, point):
        if isinstance(self.values[0], AffinePiece):
            points.append(point)
        return real(self, point)

    monkeypatch.setattr(LatticeTable, "index", counting)
    return points


@pytest.fixture
def stream_values(monkeypatch):
    """The values every walk pulls from its stream."""
    values = []
    real = coding._LatticeOrbit.stream

    def counting(self, read):
        for value in real(self, read):
            values.append(value)
            yield value

    monkeypatch.setattr(coding._LatticeOrbit, "stream", counting)
    return values


def breaking(monkeypatch, broken):
    """Make coding's roundtrip_check and exact_roundtrip here both take
    broken for the refinement."""
    monkeypatch.setattr(coding, "refine_to_good", lambda s, m: broken)
    monkeypatch.setitem(globals(), "refine_to_good", lambda s, m: broken)


def test_roundtrip_mismatch_at_the_last_new_point(monkeypatch):
    # the refinement is broken at exactly one point, the last new one
    # before the orbit repeats: the check must find it there
    for pmap, sub, x0, (mu, lam) in flip_instances():
        last_new = list(exact_orbit(pmap, x0, mu + lam))[-1]
        breaking(monkeypatch, isolating(sub, last_new, "X"))
        mismatch = RoundtripResult(False, mu + lam - 1)
        assert exact_roundtrip(pmap, sub, x0, mu + lam) == mismatch
        k = brent_closing(mu, lam)
        for n in {max(mu + lam - 1, 1), mu + lam, k, k + 1, 10**4}:
            expected = mismatch if n >= mu + lam else OK
            assert roundtrip_check(pmap, sub, x0, n) == expected, (x0, n)


def test_roundtrip_walks_only_to_locate_a_mismatch(monkeypatch, map_lookups, stream_values):
    # the rotation by 1/3 visits 0, 1/3, 2/3 from 0.  Broken at 2/3, the
    # check walks to it, 2 lookups and 3 values, however long the word.
    # Broken at 1/2, which the orbit never visits, it walks until the cycle
    # closes, brent_closing(0, 3) = 6 lookups and 7 values, and stops
    # there: every distinct point has been read
    third = lambda k: ExactScalar.from_rational(Fraction(k, 3), 0)
    R, x0 = rotation(third(1)), third(0)
    sub = cut_subdivision([third(0), third(2), third(3)], False)
    half = ExactScalar.from_rational(Fraction(1, 2), 0)
    cases = [(third(2), (3, 4, 10, 10**4), RoundtripResult(False, 2), (2, 3)),
             (half, (10**4, 10**6), OK, (brent_closing(0, 3), 7))]
    for x, lengths, verdict, cost in cases:
        breaking(monkeypatch, isolating(sub, x, "X"))
        for n in lengths:
            map_lookups.clear()
            stream_values.clear()
            # the orbit has period 3: the exact walk's verdict is the same
            # at 10**4 points as at 10**6
            assert roundtrip_check(R, sub, x0, n) == verdict
            assert exact_roundtrip(R, sub, x0, min(n, 10**4)) == verdict
            assert (len(map_lookups), len(stream_values)) == cost, (x, n)


def test_roundtrip_mismatch_on_orbits_that_never_close(monkeypatch):
    # Q(sqrt 5) orbits whose first 2000 exact points are distinct, with the
    # refinement broken at orbit point j: the first, a middle and the last
    rng = random.Random(41)
    found = 0
    while found < 3:
        pmap, sub, x0 = random_instance(rng, 5)
        if first_repeat(pmap, x0, 2000) is not None:
            continue
        found += 1
        points = list(exact_orbit(pmap, x0, 2000))
        for j in (0, rng.randrange(1, 1999), 1999):
            breaking(monkeypatch, isolating(sub, points[j], "X"))
            assert exact_roundtrip(pmap, sub, x0, 2000) == RoundtripResult(False, j)
            for n in {j, j + 1, 2000} - {0}:
                assert roundtrip_check(pmap, sub, x0, n) == exact_roundtrip(pmap, sub, x0, n)


def test_agreement_is_one_true_cell_unless_a_point_is_broken():
    rng = random.Random(23)
    for d in (0, 5):
        for _ in range(10):
            pmap, sub, x0 = random_instance(rng, d)
            refined, gluing = refine_to_good(sub, pmap)
            table = coding._agreement(refined, gluing, sub)
            assert [value for _, _, value in table.cells] == [True]
            assert list(table.faults()) == []
    for pmap, sub, x0, (mu, lam) in flip_instances():
        x = list(exact_orbit(pmap, x0, mu + lam))[-1]
        broken, gluing = isolating(sub, x, "X")
        table = coding._agreement(broken, gluing, sub)
        assert list(table.faults()) == []
        false = [(lo, hi) for lo, hi, value in table.cells if not value]
        assert false == [(key(x, AT), key(x, AT))]
        assert [value for _, _, value in table.cells] in (
            [False, True], [True, False], [True, False, True])


def test_walk_past_a_repeat_goes_on_like_the_exact_walk():
    for pmap, sub, x0, (mu, lam) in flip_instances():
        n = brent_closing(mu, lam) + 3 * lam + 1
        walk = coding._LatticeOrbit(pmap, x0)
        points = [walk.map.scalar(A, B) for A, B, _, _ in islice(walk.points(), n)]
        assert points == list(exact_orbit(pmap, x0, n))
        assert lattice_cycle(pmap, x0, n)[1] == lam


def test_rotation_with_a_longer_period_never_closes():
    # the rotation by 3/10007 repeats after 10007 points, past 10**4
    R = rotation(ExactScalar.from_rational(Fraction(3, 10007), 0))
    sub = cut_subdivision([ExactScalar.from_rational(Fraction(k, 3), 0) for k in range(4)],
                          False)
    x0 = ExactScalar.from_rational(Fraction(1, 5), 0)
    assert lattice_cycle(R, x0, 10**4) == (10**4, None)
    assert_prefixes_agree(R, sub, x0, (10**4,))
    assert lattice_cycle(R, x0, 10**5) == (brent_closing(0, 10007), 10007)


def test_invalid_maps_close_cycles_like_the_exact_walk():
    # the cycle checks run on the maps with a clean report; the others are
    # refused before any point
    rng = random.Random(21)
    closed = 0
    for pmap in invalid_maps(rng):
        sub = random_subdivision(rng, pmap.d)
        starts = (ExactScalar.zero(pmap.d), *field_points(rng, pmap.d)[:4])
        if not pmap.validate().ok:
            for x0 in starts:
                assert_walks_refuse(pmap, sub, x0, 200)
            continue
        for x0 in starts:
            points, stop = stopped(exact_orbit(pmap, x0, 200))
            if stop is not None or len(set(points)) == len(points):
                continue
            closed += 1
            for n in closing_lengths(pmap, x0, 200):
                assert stopped(iter_orbit(pmap, x0, n)) == stopped(exact_orbit(pmap, x0, n))
                assert lattice_letters(pmap, sub, x0, n) == exact_letters(pmap, sub, x0, n)
                assert (outcome(roundtrip_check, pmap, sub, x0, n)
                        == outcome(exact_roundtrip, pmap, sub, x0, n))
    assert closed > 100
