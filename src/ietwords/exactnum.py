"""Exact arithmetic over a single real quadratic field Q(sqrt(d)).

A scalar is stored in the canonical form (a + b*sqrt(d)) / q with integers
a, b, positive integer q and gcd(a, b, q) = 1.  All predicates are decided
in integers; no floating point ever touches a decision path.  Two scalars
are ordered by their order keys floor(x * 2**64), computed once per
scalar, and by integer sign tests only when the keys tie; an int or
Fraction is compared by one sign test, never lifted into the field.  Sums
and differences are put in lowest terms by Henrici's rule, dividing out
only a factor of gcd(q1, q2), which is no longer than the smaller
denominator.

d = 0 and d = 1 are accepted as purely rational field markers (the radical
part is folded away at construction).  Scalars from different field
contexts never mix: arithmetic and ordering between them raise
FieldMismatch even when both happen to be rational.

Checking that d is squarefree takes trial division up to sqrt(d), so
radicands read from text are bounded by MAX_RADICAND (10**12): a larger
one is rejected before any division is tried.  Digit runs in text are
bounded by MAX_DIGITS, Python's default limit for int() on a string.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, sqrt


class ZeroDenominator(ValueError):
    """A scalar was built with a zero denominator."""


class NonSquarefreeRadicand(ValueError):
    """The radicand d is negative or has a square factor."""


class FieldMismatch(ValueError):
    """Two scalars from different field contexts were combined."""


class OutOfExpectedRange(ValueError):
    """mod1 was fed a value outside [-1, 2)."""


class ParseError(ValueError):
    """Scalar text did not match the grammar.

    `position` is the 0-based offset of the first offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# Largest radicand parse_scalar accepts; its squarefree check stays well
# under a second.
MAX_RADICAND = 10**12

# Longest digit run parse_scalar reads; int() refuses longer strings.
MAX_DIGITS = 4300


def _sign_of(a, b, d):
    """Sign of a + b*sqrt(d) for integers a, b; decided without radicals."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b|*sqrt(d) decided by squaring
    lhs = a * a
    rhs = b * b * d
    if a > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


@lru_cache(maxsize=256)
def is_squarefree(d):
    """True for d >= 0 with no square factor; 0 and 1 count as rational markers.

    Trial division costs O(sqrt(d)), so verdicts are cached: a field
    context is checked once, not on every scalar built in it.
    """
    if d < 0:
        return False
    if d <= 1:
        return True
    if d % 4 == 0:
        return False
    p = 3
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 2
    return True


class ExactScalar:
    """An element a + b*sqrt(d) of Q(sqrt(d)), immutable and totally ordered.

    The value is kept over one common denominator, which keeps translation
    orbits cheap; rational_part and radical_part give the two coefficients.
    Arithmetic results skip the radicand check, which the operands passed.
    The order key floor(x * 2**64) is kept once computed (see _floor64),
    and decides every comparison with a scalar whose key differs.  A
    rational value hashes as the equal int or Fraction does.
    """

    __slots__ = ("_a", "_b", "_q", "_d", "_k")

    def __init__(self, a, b, q, d):
        if q == 0:
            raise ZeroDenominator("denominator is zero")
        if not is_squarefree(d):
            raise NonSquarefreeRadicand(f"radicand {d} is not squarefree")
        if q < 0:
            a, b, q = -a, -b, -q
        if d == 0:
            b = 0
        elif d == 1:
            a, b = a + b, 0
        g = gcd(a, b, q)
        self._a = a // g
        self._b = b // g
        self._q = q // g
        self._d = d
        self._k = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, value, d=0):
        """Lift an int or Fraction into the field context d (radical part 0)."""
        return cls(value.numerator, 0, value.denominator, d)

    @classmethod
    def zero(cls, d=0):
        return cls(0, 0, 1, d)

    @classmethod
    def one(cls, d=0):
        return cls(1, 0, 1, d)

    # -- canonical fields -------------------------------------------------

    @property
    def d(self):
        return self._d

    @property
    def rational_part(self):
        return Fraction(self._a, self._q)

    @property
    def radical_part(self):
        return Fraction(self._b, self._q)

    @property
    def denominator(self):
        """The common denominator q of the canonical form (a + b*sqrt(d)) / q."""
        return self._q

    def on_lattice(self, den):
        """Integers (A, B) with self == (A + B*sqrt(d)) / den.

        den must be a multiple of the denominator.
        """
        k, rem = divmod(den, self._q)
        if rem:
            raise ValueError(f"{den} is not a multiple of the denominator {self._q}")
        return self._a * k, self._b * k

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other._d != self._d:
                raise FieldMismatch(
                    f"field contexts differ: sqrt({self._d}) vs sqrt({other._d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar.from_rational(other, self._d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._q, o._a, o._b, o._q, self._d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._q, -o._a, -o._b, o._q, self._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _result(
            self._a * o._a + self._b * o._b * self._d,
            self._a * o._b + self._b * o._a,
            self._q * o._q,
            self._d,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._q, self._d)

    # -- ordering ---------------------------------------------------------

    def sign(self):
        """Sign of the value, decided with integer arithmetic only."""
        return _sign_of(self._a, self._b, self._d)

    def _cmp(self, other):
        if isinstance(other, ExactScalar) and other._d == self._d:
            # the keys are monotone in the value: unequal keys decide
            k, l = self._k, other._k
            if k is None:
                k = _floor64(self)
            if l is None:
                l = _floor64(other)
            if k != l:
                return -1 if k < l else 1
            return _sign_of(
                self._a * other._q - other._a * self._q,
                self._b * other._q - other._b * self._q,
                self._d,
            )
        if isinstance(other, (int, Fraction)):
            # x - n/m = ((a*m - n*q) + b*m*sqrt(d)) / (q*m) with q, m > 0
            m = other.denominator
            return _sign_of(self._a * m - other.numerator * self._q, self._b * m, self._d)
        self._coerce(other)   # FieldMismatch for a scalar of another field
        raise TypeError(f"cannot compare ExactScalar with {type(other)!r}")

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            if self._d == other._d:
                return (
                    self._a == other._a
                    and self._b == other._b
                    and self._q == other._q
                )
            # across contexts only rational values can coincide
            return (
                self._b == 0
                and other._b == 0
                and self._a * other._q == other._a * self._q
            )
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and Fraction(self._a, self._q) == other
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._q, self._d))
        # the numeric hash of a/q (Python's "Hashing of numeric types"),
        # as hash(Fraction(a, q)) gives it: gcd(a, q) = 1, so q has no
        # inverse modulo the prime modulus only when it is a multiple of
        # it; hash() itself turns -1 into -2
        try:
            h = hash(hash(abs(self._a)) * pow(self._q, -1, sys.hash_info.modulus))
        except ValueError:
            h = sys.hash_info.inf
        return h if self._a >= 0 else -h

    # -- misc ---------------------------------------------------------------

    def approx(self):
        """Float approximation for display only, never for predicates."""
        return self._a / self._q + (self._b / self._q) * sqrt(self._d)

    def __repr__(self):
        return f"ExactScalar({format_scalar(self)!r}, d={self._d})"

    def __str__(self):
        return format_scalar(self)


def _result(a, b, q, d):
    """(a + b*sqrt(d)) / q from arithmetic on scalars of field d.

    q > 0, b is folded for d in {0, 1}, and d passed its check when the
    operands were built, so only the common factor is divided out.
    """
    g = gcd(a, b, q)
    if g > 1:
        a, b, q = a // g, b // g, q // g
    return _canonical(a, b, q, d)


def _sum(a1, b1, q1, a2, b2, q2, d):
    """(a1 + b1*sqrt(d)) / q1 + (a2 + b2*sqrt(d)) / q2 for canonical operands
    of field d, in lowest terms by Henrici's rule (as fractions.Fraction adds)."""
    g = gcd(q1, q2)
    if g == 1:
        return _canonical(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, q1 * q2, d)
    s, t = q1 // g, q2 // g
    a, b, q = a1 * t + a2 * s, b1 * t + b2 * s, s * q2
    # the operands are canonical, so a prime dividing a, b and s*q2 divides
    # neither s nor t (else it divides a1, b1, q1 or a2, b2, q2): it divides g
    g = gcd(g, a, b)
    if g > 1:
        a, b, q = a // g, b // g, q // g
    return _canonical(a, b, q, d)


def _canonical(a, b, q, d):
    """The scalar (a + b*sqrt(d)) / q from a triple already in canonical form."""
    x = object.__new__(ExactScalar)
    x._a, x._b, x._q, x._d, x._k = a, b, q, d, None
    return x


def _floor64(x):
    """floor(x * 2**64) for an ExactScalar, int or Fraction, in integers only.

    For x = (a + b*sqrt(d)) / q with b != 0, d > 1 is squarefree, so
    s*sqrt(d) with s = b * 2**64 is irrational and its floor is
    r = isqrt(s*s*d) when s > 0 and -r - 1 when s < 0.  Then a * 2**64 +
    s*sqrt(d) lies strictly between t and t + 1 for that floor t, and
    floor(x * 2**64) = (a * 2**64 + t) // q.  The result is a monotone
    function of the value, so a smaller key means a smaller value; equal
    keys say nothing.  A scalar keeps its key in the slot _k, filled at its
    first comparison with a scalar or its first position key, so it pays
    one isqrt however often it is compared; ExactScalar._cmp decides by
    the integer signs of the difference only when two keys tie.
    """
    if isinstance(x, ExactScalar):
        k = x._k
        if k is None:
            t = 0
            if x._b:
                s = x._b << 64
                r = isqrt(s * s * x._d)
                t = r if s > 0 else -r - 1
            k = x._k = ((x._a << 64) + t) // x._q
        return k
    if isinstance(x, int):
        return x << 64
    if isinstance(x, Fraction):
        return (x.numerator << 64) // x.denominator
    raise TypeError(f"cannot order {type(x)!r} with exact scalars")


# -- spec operation surface ------------------------------------------------


def make_scalar(a_num, a_den, b_num, b_den, d):
    """Canonical scalar a_num/a_den + (b_num/b_den)*sqrt(d)."""
    if a_den == 0 or b_den == 0:
        raise ZeroDenominator("denominator is zero")
    if a_den < 0:
        a_num, a_den = -a_num, -a_den
    if b_den < 0:
        b_num, b_den = -b_num, -b_den
    q = a_den * b_den // gcd(a_den, b_den)
    return ExactScalar(a_num * (q // a_den), b_num * (q // b_den), q, d)


def mod1(x):
    """Reduce a one-translation-step value from [-1, 2) into [0, 1)."""
    one = ExactScalar.one(x.d)
    if x < -1 or x >= 2:
        raise OutOfExpectedRange(f"{x} outside [-1, 2)")
    if x.sign() < 0:
        return x + one
    if x >= one:
        return x - one
    return x


# -- text form ---------------------------------------------------------------
#
# scalar := rat | rat ("+"|"-") rat "*sqrt(" uint ")"
# rat    := ["-"] uint [ "/" uint ]
# uint   := [0-9]+, ASCII only: \d also matches "٣", which int() reads
#
# _SCALAR reads the grammar with every digit run, "*sqrt(" and ")" left
# optional, so it matches every text, as far as the grammar can go; its
# groups then hold a valid text's pieces, or show where the first error
# is: 1 and 5 are the signs, 2, 3, 6 and 7 the numerators and the
# denominators (None when a "/" is absent), 4 the operator, 8 "*sqrt(",
# 9 the radicand and 10 the ")".  An empty digit run is a missing digit.
_SCALAR = re.compile(r"(-?)([0-9]*)(?:/([0-9]*))?"
                     r"(?:([+-])(-?)([0-9]*)(?:/([0-9]*))?(?:(\*sqrt\()([0-9]*)(\)?))?)?")


def _bad_run(m, g):
    """Raise the ParseError for group g's digit run, which is empty or has
    more than MAX_DIGITS digits."""
    message = f"more than {MAX_DIGITS} digits" if m[g] else "expected a digit"
    raise ParseError(message, m.start(g))


def _den(m, g):
    """Group g's denominator, which is present."""
    run = m[g]
    if not 0 < len(run) <= MAX_DIGITS:
        _bad_run(m, g)
    den = int(run)
    if den == 0:
        raise ZeroDenominator(f"zero denominator at position {m.end(g)}")
    return den


def parse_scalar(text, d=None):
    """Parse the scalar grammar; round-trips with format_scalar.

    With `d` given, a bare rational is lifted into that field context and a
    radical with a different radicand raises FieldMismatch.  A radicand
    above MAX_RADICAND or a run of more than MAX_DIGITS digits raises
    ParseError.  The first error from the left is raised: a ParseError or
    a ZeroDenominator where the text breaks the grammar, then
    NonSquarefreeRadicand, then FieldMismatch.
    """
    s = text.strip()
    m = _SCALAR.match(s)
    minus, a, q, op, b_minus, b, q_b, root, radicand, close = m.groups()
    if not 0 < len(a) <= MAX_DIGITS:
        _bad_run(m, 2)
    a, q = -int(a) if minus else int(a), 1 if q is None else _den(m, 3)
    if op:
        if not 0 < len(b) <= MAX_DIGITS:
            _bad_run(m, 6)
        b = -int(b) if (op == "-") != (b_minus == "-") else int(b)
        q_b = 1 if q_b is None else _den(m, 7)
        if root is None:
            raise ParseError("expected '*sqrt('", m.end())
        if not 0 < len(radicand) <= MAX_DIGITS:
            _bad_run(m, 9)
        radicand = int(radicand)
        if radicand > MAX_RADICAND:
            raise ParseError(f"radicand exceeds {MAX_RADICAND}", m.start(9))
        if not close:
            raise ParseError("expected ')'", m.start(10))
    if m.end() != len(s):
        raise ParseError("trailing characters", m.end())
    if op:
        if not is_squarefree(radicand):
            raise NonSquarefreeRadicand(f"radicand {radicand} is not squarefree")
        # over the common denominator, the radical folded away for 0 and 1
        g = q * q_b // gcd(q, q_b)
        a, b, q = a * (g // q), b * (g // q_b), g
        if radicand <= 1:
            a, b = a + radicand * b, 0
    else:
        b = radicand = 0
    if d is not None and d != radicand:
        if b:
            raise FieldMismatch(
                f"scalar {text!r} lives in sqrt({radicand}), instance uses sqrt({d})"
            )
        if not is_squarefree(d):
            raise NonSquarefreeRadicand(f"radicand {d} is not squarefree")
        radicand = d
    return _result(a, b, q, radicand)


def format_scalar(x):
    """Canonical text form, each part in lowest terms; parse_scalar(format_scalar(x)) == x."""
    a, b, q = x._a, x._b, x._q
    if b == 0:
        return str(a) if q == 1 else f"{a}/{q}"   # canonical: gcd(a, q) == 1
    g = gcd(a, q)
    rational = str(a // g) if g == q else f"{a // g}/{q // g}"
    sign, b = ("+", b) if b > 0 else ("-", -b)
    g = gcd(b, q)
    radical = str(b // g) if g == q else f"{b // g}/{q // g}"
    return f"{rational}{sign}{radical}*sqrt({x._d})"
