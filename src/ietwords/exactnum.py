"""Exact arithmetic over a single real quadratic field Q(sqrt(d)).

A scalar is stored in the canonical form (a + b*sqrt(d)) / q with integers
a, b, positive integer q and gcd(a, b, q) = 1.  All predicates, including
the total order, are decided by integer sign tests; no floating point ever
touches a decision path.

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


# Comparison verdicts, aligned with the sign of the difference.
LT, EQ, GT = -1, 0, 1

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
    The order key floor(x * 2**64) is kept once computed (see _floor64).
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
        f = Fraction(value)
        return cls(f.numerator, 0, f.denominator, d)

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

    def is_rational(self):
        return self._b == 0

    def as_field(self, d):
        """Recontext a rational scalar into field d; identity when d matches."""
        if d == self._d:
            return self
        if self._b != 0:
            raise FieldMismatch(
                f"cannot move sqrt({self._d}) value into field sqrt({d})"
            )
        return ExactScalar(self._a, 0, self._q, d)

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
        return _result(
            self._a * o._q + o._a * self._q,
            self._b * o._q + o._b * self._q,
            self._q * o._q,
            self._d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _result(
            self._a * o._q - o._a * self._q,
            self._b * o._q - o._b * self._q,
            self._q * o._q,
            self._d,
        )

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
        return _result(-self._a, -self._b, self._q, self._d)

    # -- ordering ---------------------------------------------------------

    def sign(self):
        """Sign of the value, decided with integer arithmetic only."""
        return _sign_of(self._a, self._b, self._d)

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare ExactScalar with {type(other)!r}")
        return _sign_of(
            self._a * o._q - o._a * self._q,
            self._b * o._q - o._b * self._q,
            self._d,
        )

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
        if self._b == 0:
            return hash(Fraction(self._a, self._q))
        return hash((self._a, self._b, self._q, self._d))

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
    keys say nothing.  A scalar keeps its key in the slot _k.
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


def cmp(x, y):
    """LT, EQ or GT by real value; requires a shared field context."""
    return x._cmp(y)


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


def _parse_uint(text, pos):
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ParseError("expected a digit", start)
    if pos - start > MAX_DIGITS:
        raise ParseError(f"more than {MAX_DIGITS} digits", start)
    return int(text[start:pos]), pos


def _parse_rat(text, pos):
    sign = 1
    if pos < len(text) and text[pos] == "-":
        sign = -1
        pos += 1
    num, pos = _parse_uint(text, pos)
    den = 1
    if pos < len(text) and text[pos] == "/":
        den, pos = _parse_uint(text, pos + 1)
        if den == 0:
            raise ZeroDenominator(f"zero denominator at position {pos}")
    return sign * num, den, pos


def parse_scalar(text, d=None):
    """Parse the scalar grammar; round-trips with format_scalar.

    With `d` given, a bare rational is lifted into that field context and a
    radical with a different radicand raises FieldMismatch.  A radicand
    above MAX_RADICAND or a run of more than MAX_DIGITS digits raises
    ParseError.
    """
    s = text.strip()
    a_num, a_den, pos = _parse_rat(s, 0)
    b_num, b_den, radicand = 0, 1, 0
    if pos < len(s) and s[pos] in "+-":
        op = s[pos]
        b_num, b_den, pos = _parse_rat(s, pos + 1)
        if op == "-":
            b_num = -b_num
        if not s.startswith("*sqrt(", pos):
            raise ParseError("expected '*sqrt('", pos)
        pos += len("*sqrt(")
        start = pos
        radicand, pos = _parse_uint(s, pos)
        if radicand > MAX_RADICAND:
            raise ParseError(f"radicand exceeds {MAX_RADICAND}", start)
        if not s.startswith(")", pos):
            raise ParseError("expected ')'", pos)
        pos += 1
    if pos != len(s):
        raise ParseError("trailing characters", pos)
    value = make_scalar(a_num, a_den, b_num, b_den, radicand)
    if d is not None:
        if value.is_rational():
            return value.as_field(d)
        if value.d != d:
            raise FieldMismatch(
                f"scalar {text!r} lives in sqrt({value.d}), instance uses sqrt({d})"
            )
    return value


def _format_rat(num, den):
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def format_scalar(x):
    """Canonical text form; parse_scalar(format_scalar(x)) == x."""
    a, b, q = x._a, x._b, x._q
    if b == 0:
        return _format_rat(a, q)
    sign = "+" if b > 0 else "-"
    return f"{_format_rat(a, q)}{sign}{_format_rat(abs(b), q)}*sqrt({x._d})"
