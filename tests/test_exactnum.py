import operator
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ietwords import (
    ExactScalar,
    FieldMismatch,
    NonSquarefreeRadicand,
    OutOfExpectedRange,
    ParseError,
    ZeroDenominator,
    format_scalar,
    make_scalar,
    mod1,
    parse_scalar,
)
from ietwords import exactnum
from ietwords.exactnum import is_squarefree

from oracles import decimal_cmp, rational_hash, read_scalar_text, scalar_sum, squarefree

ALPHA = make_scalar(-1, 2, 1, 2, 5)  # (sqrt(5) - 1) / 2


def parts(x):
    """(a_num, a_den, b_num, b_den) of x = a_num/a_den + (b_num/b_den)*sqrt(d)."""
    a, b = x.rational_part, x.radical_part
    return a.numerator, a.denominator, b.numerator, b.denominator


def order(x, y):
    """-1, 0 or 1 by real value, read from the comparison operators."""
    return (x > y) - (x < y)


def test_canonical_form_reduces():
    x = make_scalar(2, 4, 0, 1, 0)
    assert x.rational_part == Fraction(1, 2)
    y = make_scalar(6, -4, 0, 1, 0)
    assert y.rational_part == Fraction(-3, 2)


def test_d_zero_and_one_are_rational_contexts():
    assert make_scalar(1, 2, 7, 3, 0).radical_part == 0
    folded = make_scalar(1, 2, 1, 2, 1)  # 1/2 + 1/2*sqrt(1) == 1
    assert folded == make_scalar(1, 1, 0, 1, 0)
    assert folded.radical_part == 0


def test_construction_errors():
    with pytest.raises(ZeroDenominator):
        make_scalar(1, 0, 0, 1, 0)
    with pytest.raises(ZeroDenominator):
        make_scalar(1, 2, 1, 0, 5)
    for bad in (4, 8, 12, 18, 45):
        assert not is_squarefree(bad)
        with pytest.raises(NonSquarefreeRadicand):
            make_scalar(0, 1, 1, 1, bad)
    for good in (2, 3, 5, 6, 7, 10):
        assert is_squarefree(good)


def test_arithmetic_does_not_recheck_the_radicand(monkeypatch):
    y = make_scalar(1, 3, 2, 7, 5)
    calls = []
    monkeypatch.setattr(exactnum, "is_squarefree", lambda d: calls.append(d) or True)
    results = [ALPHA + y, ALPHA - y, ALPHA * y, -ALPHA]
    assert calls == []
    assert results[0] == make_scalar(-1, 6, 11, 14, 5)


def test_cmp_spec_values():
    assert order(ALPHA, make_scalar(2, 3, 0, 1, 5)) == -1
    assert order(make_scalar(2, 3, 0, 1, 5), ALPHA) == 1
    same = make_scalar(-1, 2, 1, 2, 5)
    assert order(ALPHA, same) == 0
    # sqrt(2) + sqrt(0-ish rational parts): opposite-sign branch
    x = make_scalar(3, 2, -1, 1, 2)  # 3/2 - sqrt(2) > 0
    assert x.sign() == 1
    y = make_scalar(7, 5, -1, 1, 2)  # 7/5 - sqrt(2) < 0
    assert y.sign() == -1


def test_cross_context_operations_raise():
    r2 = make_scalar(0, 1, 1, 1, 2)
    r5 = make_scalar(0, 1, 1, 1, 5)
    with pytest.raises(FieldMismatch):
        r2 + r5
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(FieldMismatch):
            compare(r2, r5)
    # equality is value-based and total: rationals can coincide across d
    assert make_scalar(1, 2, 0, 1, 5) == make_scalar(1, 2, 0, 1, 0)
    assert hash(make_scalar(1, 2, 0, 1, 5)) == hash(make_scalar(1, 2, 0, 1, 0))
    assert r2 != r5
    # other types are not ordered with scalars, whether or not a key is cached
    for other in (0.5, "1/2", None):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(r5, other)


def test_rational_hashes_are_the_numeric_hash(rng):
    # a rational scalar hashes as the equal int and Fraction do, in every
    # field; a denominator that is a multiple of the modulus has no inverse
    # modulo it, so the hash is that of infinity, signed
    P = sys.hash_info.modulus
    cases = [(0, 1), (1, 1), (-1, 1), (7, 1), (-7, 1), (-7, 3), (P - 1, 1), (P, 1), (-P, 1),
             (3 * P, 1), (2 * P, 3), (P + 1, P), (1, P), (-1, P), (-5, 2 * P), (2, P * P),
             (-(P + 2), 2)]                      # |m| / n = 1 modulo P, so -1 -> -2
    cases += [(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(300)]
    for m, n in cases:
        expected = rational_hash(m, n)
        assert expected == hash(Fraction(m, n)), (m, n)
        for d in (0, 5, 4000037):
            assert hash(ExactScalar(m, 0, n, d)) == expected, (m, n, d)
    for m, n in ((1, P), (-1, P), (-5, 2 * P), (2, P * P)):
        assert hash(ExactScalar(m, 0, n, 5)) == (sys.hash_info.inf if m > 0 else -sys.hash_info.inf)
    assert hash(ExactScalar(-(P + 2), 0, 2, 5)) == hash(ExactScalar(-1, 0, 1, 5)) == -2
    # equal scalars with a radical part hash alike
    assert hash(ALPHA) == hash(make_scalar(-1, 2, 1, 2, 5))


def test_arithmetic_against_fractions(rng):
    for _ in range(300):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        x = ExactScalar.from_rational(a)
        y = ExactScalar.from_rational(b)
        assert (x + y).rational_part == a + b
        assert (x - y).rational_part == a - b
        assert (-x).rational_part == -a
        assert (x * y).rational_part == a * b
        assert (x * 3).rational_part == 3 * a


def test_mixed_python_number_arithmetic():
    assert ALPHA + 1 == make_scalar(1, 2, 1, 2, 5)
    assert 1 - ALPHA == make_scalar(3, 2, -1, 2, 5)
    assert ALPHA * Fraction(1, 2) == make_scalar(-1, 4, 1, 4, 5)


def test_mod1():
    assert mod1(make_scalar(3, 2, 0, 1, 0)) == make_scalar(1, 2, 0, 1, 0)
    assert mod1(make_scalar(-1, 3, 0, 1, 0)) == make_scalar(2, 3, 0, 1, 0)
    two_alpha = ALPHA + ALPHA
    assert mod1(two_alpha) == two_alpha - 1  # 2*alpha is in (1, 2)
    assert mod1(ALPHA) == ALPHA
    with pytest.raises(OutOfExpectedRange):
        mod1(make_scalar(5, 2, 0, 1, 0))
    with pytest.raises(OutOfExpectedRange):
        mod1(make_scalar(-3, 2, 0, 1, 0))


def test_sign_integer_only_on_torture_pairs():
    # alpha vs a Fibonacci convergent: the gap is ~1e-12, far below float
    # comparison territory, and the answer is still exact
    fib_a, fib_b = 514229, 832040
    near = make_scalar(fib_a, fib_b, 0, 1, 5)
    verdict = order(ALPHA, near)
    assert verdict in (-1, 1)
    assert verdict == decimal_cmp((-1, 2, 1, 2, 5), (fib_a, fib_b, 0, 1, 5))
    assert (ALPHA - near).sign() == verdict


def test_cmp_agrees_with_decimal_oracle(rng):
    for _ in range(2000):
        x = make_scalar(
            rng.randint(-50, 50), rng.randint(1, 50),
            rng.randint(-50, 50), rng.randint(1, 50), 5,
        )
        y = make_scalar(
            rng.randint(-50, 50), rng.randint(1, 50),
            rng.randint(-50, 50), rng.randint(1, 50), 5,
        )
        expected = decimal_cmp(
            (*parts(x), 5),
            (*parts(y), 5),
        )
        assert order(x, y) == expected, (str(x), str(y))


def test_parse_format_spec_examples():
    assert parse_scalar("1/2") == make_scalar(1, 2, 0, 1, 0)
    assert parse_scalar("-1/2+1/2*sqrt(5)") == ALPHA
    assert format_scalar(ALPHA) == "-1/2+1/2*sqrt(5)"
    assert format_scalar(make_scalar(3, 2, -1, 2, 5)) == "3/2-1/2*sqrt(5)"
    assert format_scalar(make_scalar(7, 1, 0, 1, 0)) == "7"
    with pytest.raises(ZeroDenominator):
        parse_scalar("1/0")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_scalar("abc")
    assert e.value.position == 0
    with pytest.raises(ParseError) as e:
        parse_scalar("1/2+")
    assert e.value.position == 4
    with pytest.raises(ParseError) as e:
        parse_scalar("1/2+1/3*sqrt(5)junk")
    assert e.value.position == 15
    with pytest.raises(NonSquarefreeRadicand):
        parse_scalar("0+1*sqrt(12)")
    # radicands above MAX_RADICAND are refused before any trial division
    with pytest.raises(ParseError) as e:
        parse_scalar("0+1*sqrt(10000000000000000000009)", d=5)
    assert e.value.position == 9
    # digit runs stop at MAX_DIGITS, below int()'s own string limit
    longest = "9" * exactnum.MAX_DIGITS
    assert parse_scalar(f"1/{longest}").rational_part == Fraction(1, int(longest))
    for text, position in (("1/" + "1" * 5000, 2), ("1" * 5000, 0),
                           ("0+1*sqrt(" + "1" * 5000 + ")", 9)):
        with pytest.raises(ParseError) as e:
            parse_scalar(text)
        assert e.value.position == position
    # only ASCII digits are digits: int() refuses "²" and reads "٣" as 3
    for text in ("²", "1/²", "٣"):
        with pytest.raises(ParseError):
            parse_scalar(text)
    with pytest.raises(ParseError) as e:
        parse_scalar("12٣")
    assert (e.value.message, e.value.position) == ("trailing characters", 2)


def parse_outcome(text, d=None):
    """What parse_scalar makes of a text: the value's parts, or the
    exception's type with its message (and position for a ParseError)."""
    try:
        x = parse_scalar(text, d)
    except ParseError as e:
        return "ParseError", e.message, e.position
    except (ZeroDenominator, NonSquarefreeRadicand, FieldMismatch) as e:
        return type(e).__name__, str(e)
    return "value", x.rational_part, x.radical_part, x.d


def oracle_outcome(text, d=None):
    """parse_outcome spelled out from the character-by-character reader:
    a radicand must be squarefree, 0 and 1 fold the radical away, and a
    field d takes a rational value and refuses any other radicand."""
    read = read_scalar_text(text)
    if len(read) == 2:
        message, position = read
        if message == "zero denominator":
            return "ZeroDenominator", f"zero denominator at position {position}"
        return "ParseError", message, position
    a, b, radicand = read
    if not squarefree(radicand):
        return "NonSquarefreeRadicand", f"radicand {radicand} is not squarefree"
    if radicand <= 1:
        a, b = a + radicand * b, 0
    if d is not None and d != radicand:
        if b:
            return ("FieldMismatch",
                    f"scalar {text!r} lives in sqrt({radicand}), instance uses sqrt({d})")
        if not squarefree(d):
            return "NonSquarefreeRadicand", f"radicand {d} is not squarefree"
        radicand = d
    return "value", a, b, radicand


# pieces of scalar texts, valid and not: signs, "+-", whitespace, a
# non-ASCII digit, runs of MAX_DIGITS and one more digit, zero
# denominators, a cut-off "*sqrt(", radicands up to and past MAX_RADICAND
GRAMMAR_ATOMS = (
    "-", "+", "/", "*sqrt(", ")", "*sqr", "*sqrt", "0", "00", "1", "2", "3", "5", "7",
    "12", "45", " ", "\t", "\n", "٣", "²", "x", ".", "9" * exactnum.MAX_DIGITS,
    "1" * (exactnum.MAX_DIGITS + 1), "4000037", str(exactnum.MAX_RADICAND),
    str(exactnum.MAX_RADICAND + 1), "10000000000000000000009",
)

GRAMMAR_TEXTS = (
    "0", "-0", "1/2", "-1/2", " 1/2 ", "\n-3/4\t", "1/2+1/3*sqrt(5)", "1/2-1/3*sqrt(5)",
    "1+-2*sqrt(5)", "1--2*sqrt(5)", "1---2*sqrt(5)", "-1/2+-1/2*sqrt(5)", "+1", "--1",
    "1 /2", "1/ 2", "1+ 2*sqrt(5)", "1+2*sqrt( 5)", "٣", "12٣", "1/٣", "0+1*sqrt(٣)",
    "9" * exactnum.MAX_DIGITS, "1/" + "9" * exactnum.MAX_DIGITS, "9" * (exactnum.MAX_DIGITS + 1),
    "1/" + "1" * (exactnum.MAX_DIGITS + 1), "0+1*sqrt(" + "1" * (exactnum.MAX_DIGITS + 1) + ")",
    "1/0", "1/00", "-5/0+1*sqrt(5)", "1/0junk", "1+1/0*sqrt(5)", "1+1/0", "1/2+", "1/2-",
    "1+2", "1+2*sqr(5)", "1+2*sqrt5)", "1+2*sqrt(5", "1+2*sqrt()", "1+2*sqrt(5))",
    f"0+1*sqrt({exactnum.MAX_RADICAND})", f"0+1*sqrt({exactnum.MAX_RADICAND + 1}",
    "0+1*sqrt(10000000000000000000009)", "0+1*sqrt(12)", "1+0*sqrt(12)", "1+0*sqrt(7)",
    "2+3*sqrt(1)", "2+3*sqrt(0)", "1/2+1/3*sqrt(5)junk", "1/2/3", "1.5", "", " ", "abc",
)


def assert_grammar_agrees(text):
    for d in (None, 0, 2, 5, 12):
        assert parse_outcome(text, d) == oracle_outcome(text, d), (text[:60], d)


@pytest.mark.parametrize("text", GRAMMAR_TEXTS, ids=lambda t: repr(t[:24]))
def test_parse_scalar_matches_the_grammar_oracle(text):
    assert_grammar_agrees(text)


def test_parse_scalar_matches_the_grammar_oracle_on_seeded_texts(rng):
    for _ in range(1500):
        assert_grammar_agrees("".join(rng.choice(GRAMMAR_ATOMS)
                                      for _ in range(rng.randint(1, 9))))
    for _ in range(500):
        def rat():
            den = rng.choice(("", "/0", f"/{rng.randint(1, 99)}"))
            return rng.choice(("", "-")) + str(rng.randint(0, 99)) + den
        text = rat() + rng.choice("+-") + rat() + f"*sqrt({rng.randint(0, 30)}"
        assert_grammar_agrees(rng.choice(("", " ")) + text + rng.choice((")", ") ", "", "))", ")x")))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR_ATOMS), max_size=10).map("".join)
       | st.text(alphabet="0123456789-+/*sqrt() ٣\n", max_size=30))
def test_parse_scalar_matches_the_grammar_oracle_hypothesis(text):
    assert_grammar_agrees(text)


def test_parse_with_field_context():
    # rationals lift into the requested context
    x = parse_scalar("1/3", d=5)
    assert x.d == 5 and x.rational_part == Fraction(1, 3)
    with pytest.raises(FieldMismatch):
        parse_scalar("0+1*sqrt(2)", d=5)


def test_format_parse_roundtrip_random(rng):
    for _ in range(500):
        d = rng.choice((0, 2, 5))
        x = make_scalar(
            rng.randint(-99, 99), rng.randint(1, 99),
            rng.randint(-99, 99) if d else 0, rng.randint(1, 99), d,
        )
        text = format_scalar(x)
        y = parse_scalar(text)
        assert y == x
        assert format_scalar(y) == text


def fraction_format(x):
    """format_scalar written over Fractions, as the reference."""
    def rat(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    a, b = x.rational_part, x.radical_part
    if b == 0:
        return rat(a)
    return f"{rat(a)}{'+' if b > 0 else '-'}{rat(abs(b))}*sqrt({x.d})"


def test_format_scalar_matches_a_fraction_reference(rng):
    for _ in range(3000):
        d = rng.choice((0, 2, 5))
        big = rng.choice((1, 9, 99, 10**40))
        nums = [rng.choice((0, rng.randint(-big, big))) for _ in range(2)]
        dens = [rng.choice((1, rng.randint(1, big))) for _ in range(2)]
        x = make_scalar(nums[0], dens[0], nums[1], dens[1], d)
        assert format_scalar(x) == fraction_format(x)


@given(
    a=st.integers(-200, 200), b=st.integers(1, 200),
    c=st.integers(-200, 200), e=st.integers(1, 200),
)
def test_add_commutes_and_neg_inverts(a, b, c, e):
    x = make_scalar(a, b, c, e, 5)
    y = make_scalar(c, e, a, b, 5)
    assert x + y == y + x
    assert x + (-x) == ExactScalar.zero(5)
    assert (x - y) + y == x


SUM_RADICANDS = (0, 1, 2, 5, 4000037)


def triple(x):
    """x's stored (a, b, q), read without a Fraction, which would reduce it."""
    return (*x.on_lattice(x.denominator), x.denominator)


def assert_sums_match_the_full_gcd(x, y):
    d, tx, ty = x.d, triple(x), triple(y)
    neg = lambda t: (-t[0], -t[1], t[2])
    assert triple(x + y) == scalar_sum(tx, ty, d)
    assert triple(x - y) == scalar_sum(tx, neg(ty), d)
    assert triple(y - x) == scalar_sum(ty, neg(tx), d)
    assert triple(-x) == scalar_sum((0, 0, 1), neg(tx), d)
    assert triple(x + 1) == scalar_sum(tx, (1, 0, 1), d)
    assert triple(Fraction(1, 6) + x) == scalar_sum((1, 0, 6), tx, d)


def scalar_over(rng, q, d, top):
    """A canonical scalar of field d whose denominator is exactly q."""
    while True:
        x = ExactScalar(rng.randint(-top, top), rng.randint(-top, top), q, d)
        if x.denominator == q:
            return x


def test_sums_match_the_full_gcd_on_seeded_pairs(rng):
    for d in SUM_RADICANDS:
        for _ in range(150):
            top = rng.choice((9, 10**6, 10**40))
            x = scalar_over(rng, rng.randint(1, 60), d, top)
            q = rng.randint(1, 60)
            while gcd(q, x.denominator) > 1:
                q += 1
            pairs = [
                (x, ExactScalar(rng.randint(-top, top), rng.randint(-top, top),
                                rng.randint(1, 60), d)),
                (x, scalar_over(rng, q, d, top)),                         # coprime
                (x, scalar_over(rng, rng.randint(2, 30) * x.denominator, d, top)),
                (x, scalar_over(rng, x.denominator, d, top)),             # equal
            ]
            # 600-digit denominators sharing a 300-digit factor
            g = rng.randint(10**299, 10**300)
            pairs.append((scalar_over(rng, g * rng.randint(10**299, 10**300), d, 10**600),
                          scalar_over(rng, g * rng.randint(10**299, 10**300), d, 10**600)))
            for u, v in pairs:
                assert_sums_match_the_full_gcd(u, v)
                assert_sums_match_the_full_gcd(v, u)
            # equal denominators that cancel leave the canonical zero
            for u, v in pairs:
                assert triple(u - u) == triple(u + -u) == triple(-v + v) == (0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SUM_RADICANDS), st.integers(1, 10**30),
       *(st.integers(-10**30, 10**30) for _ in range(4)),
       *(st.integers(1, 10**30) for _ in range(2)))
def test_sums_match_the_full_gcd_hypothesis(d, g, a1, b1, a2, b2, s, t):
    assert_sums_match_the_full_gcd(ExactScalar(a1, b1, g * s, d), ExactScalar(a2, b2, g * t, d))


@given(st.integers(-400, 400), st.integers(1, 60), st.integers(-400, 400), st.integers(1, 60))
def test_sign_matches_rational_squeeze(an, ad, bn, bd):
    from math import isqrt

    x = make_scalar(an, ad, bn, bd, 5)
    # rational sqrt(5) to ~1e-10; the propagated error stays below 1e-7,
    # so any |value| above 1/1000 has an unambiguous sign
    root5 = Fraction(isqrt(5 * 10**20), 10**10)
    approx = Fraction(an, ad) + Fraction(bn, bd) * root5
    if abs(approx) > Fraction(1, 1000):
        assert x.sign() == (1 if approx > 0 else -1)
