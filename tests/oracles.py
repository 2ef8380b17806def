"""Independent oracles used by the test suite.

Everything in this file is deliberately written from first principles and
kept separate from the library: decimal evaluation for order checks,
substitution words for golden prefixes, brute-force scans that double
check the fast implementations, content ids spelled out from plain
number tuples, set algebra on plain (lo, lo_in, hi, hi_in) tuples, the
rule for when such a tuple is an interval, decided by exact comparisons,
the overlay of two tilings by one lookup per cell, the scalar grammar
read one character at a time, scalar sums reduced by the full gcd, and
the numeric hash of a rational.  None of it imports from ietwords.
"""

import hashlib
import sys
from bisect import bisect_right
from decimal import ROUND_FLOOR, Decimal, getcontext
from fractions import Fraction
from functools import total_ordering
from math import gcd


def decimal_value(a_num, a_den, b_num, b_den, d, prec=50):
    """Evaluate a_num/a_den + (b_num/b_den)*sqrt(d) with `prec` digits."""
    getcontext().prec = prec
    a = Decimal(a_num) / Decimal(a_den)
    b = Decimal(b_num) / Decimal(b_den)
    return a + b * Decimal(d).sqrt()


def scalar_sum(x, y, d):
    """(a, b, q) of x + y, for x and y the canonical (a, b, q) triples of
    (a + b*sqrt(d)) / q: cross-multiplied, then divided by gcd(a, b, q)."""
    (a1, b1, q1), (a2, b2, q2) = x, y
    a, b, q = a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, q1 * q2
    if d <= 1:                       # the radical of d = 0 or 1 is rational
        a, b = a + d * b, 0
    g = gcd(a, b, q)
    return a // g, b // g, q // g


def decimal_cmp(x, y, prec=50):
    """Order two (a_num, a_den, b_num, b_den, d) tuples by decimal value."""
    vx = decimal_value(*x, prec=prec)
    vy = decimal_value(*y, prec=prec)
    if vx < vy:
        return -1
    if vx > vy:
        return 1
    return 0


def rational_hash(m, n):
    """hash(m / n) for integers m and n > 0, by the algorithm of the
    "Hashing of numeric types" section of the Python docs: P is the prime
    sys.hash_info.modulus; after common factors of P are removed, |m| times
    the inverse of n modulo P (by Fermat), or hash_info.inf when P divides
    n and there is no inverse; negated for m < 0, and -1 becomes -2."""
    P = sys.hash_info.modulus
    while m % P == n % P == 0:
        m, n = m // P, n // P
    if n % P == 0:
        value = sys.hash_info.inf
    else:
        value = (abs(m) % P) * pow(n, P - 2, P) % P
    if m < 0:
        value = -value
    return -2 if value == -1 else value


def substitution_word(rules, seed, length):
    """Iterate a substitution from `seed` until the prefix has `length` letters.

    `rules` maps a letter to the tuple of letters it rewrites to.  The seed
    must grow under iteration, e.g. the Fibonacci rules below.
    """
    word = list(seed)
    while len(word) < length:
        word = [out for letter in word for out in rules[letter]]
    return tuple(word[:length])


FIBONACCI_RULES = {"0": ("0", "1"), "1": ("0",)}


def fibonacci_word(length):
    """Prefix of the fixed point of 0 -> 01, 1 -> 0."""
    return substitution_word(FIBONACCI_RULES, "0", length)


def factor_set(letters, n):
    """All distinct length-n factors of a finite word, by direct enumeration."""
    letters = tuple(letters)
    return {letters[i:i + n] for i in range(len(letters) - n + 1)}


def complexity_by_slices(letters, n_max):
    """[p(1), ..., p(n_max)]: one set of factor slices per length."""
    letters = tuple(letters)
    return [len(factor_set(letters, n)) for n in range(1, n_max + 1)]


def recurrence_window_by_starts(letters, n):
    """The occurrence formula over a dict of factor -> ascending starts.

    A factor at starts s_1..s_m needs W >= s_1 + n, W >= gap + n - 1 for
    each successive gap and W >= L - s_m; the window is the max over all
    factors, or None when some factor occurs only once.
    """
    letters = tuple(letters)
    length = len(letters)
    starts = {}
    for i in range(length - n + 1):
        starts.setdefault(letters[i:i + n], []).append(i)
    needed = 0
    for occ in starts.values():
        if len(occ) < 2:
            return None
        worst_gap = max(b - a for a, b in zip(occ, occ[1:]))
        needed = max(needed, occ[0] + n, worst_gap + n - 1, length - occ[-1])
    return needed


def recurrence_window_scan(letters, n):
    """Smallest W such that every length-W window holds every length-n factor.

    Quadratic-time scan: try W = n, n+1, ... and slide a window of that
    size across the word, recomputing factor counts incrementally.  Always
    terminates because the full word is a valid window.
    """
    letters = tuple(letters)
    length = len(letters)
    factors = factor_set(letters, n)
    for window in range(n, length + 1):
        if _every_window_contains(letters, n, window, factors):
            return window
    raise AssertionError("unreachable: the full prefix is always a window")


def _every_window_contains(letters, n, window, factors):
    length = len(letters)
    counts = {}
    missing = len(factors)
    # factors starting in [i, i + window - n] belong to the window at i
    for s in range(0, window - n + 1):
        f = letters[s:s + n]
        counts[f] = counts.get(f, 0) + 1
        if counts[f] == 1:
            missing -= 1
    if missing:
        return False
    for i in range(1, length - window + 1):
        gone = letters[i - 1:i - 1 + n]
        counts[gone] -= 1
        if counts[gone] == 0:
            missing += 1
        new = letters[i + window - n:i + window]
        counts[new] = counts.get(new, 0) + 1
        if counts[new] == 1:
            missing -= 1
        if missing:
            return False
    return True


def eventual_period_scan(letters, min_tail_periods=3):
    """Smallest (preperiod, period) backed by enough of the prefix.

    Checks periods in increasing order; a period q is accepted when the
    maximal periodic tail spans at least `min_tail_periods` full periods
    and starts in the first half of the word.  Returns None when no
    period up to len/2 qualifies.
    """
    letters = tuple(letters)
    length = len(letters)
    for q in range(1, length // 2 + 1):
        p = 0
        for i in range(length - q - 1, -1, -1):
            if letters[i] != letters[i + q]:
                p = i + 1
                break
        if length - p >= min_tail_periods * q and p <= length // 2:
            return (p, q)
    return None


def cuts_inside_cells(cells, cuts):
    """Cell index -> the cut keys strictly between that cell's start and end
    keys, in order; cells holding none are left out.  Every cut is compared
    with every cell, on the (lo_key, hi_key, value) keys as they are."""
    inside = {}
    for i, (lo, hi, _) in enumerate(cells):
        mine = [cut for cut in cuts if lo < cut < hi]
        if mine:
            inside[i] = mine
    return inside


def overlay_by_lookup(cells, other):
    """The common refinement of two tilings of [0, 1), each a list of
    (lo_key, hi_key, value) tuples sorted by start with every cell ending
    just before the next begins, as (lo_key, hi_key, (value, other value)).

    For each cell, the other cell holding its start is found by bisecting
    the other starts; from there the other cells are clipped to the cell
    until one reaches its end.  A clipped piece keeps the cell's start or
    the other cell's, whichever comes later, and the cell's start on a tie.
    """
    starts = [lo for lo, _, _ in other]
    out = []
    for lo, hi, value in cells:
        i = bisect_right(starts, lo) - 1
        while other[i][1] < hi:
            out.append((lo, other[i][1], (value, other[i][2])))
            i += 1
            lo = other[i][0]
        out.append((lo, hi, (value, other[i][2])))
    return out


def rational_grid(denominator):
    """All points k/denominator in [0, 1), plus midpoints between them."""
    pts = [Fraction(k, 2 * denominator) for k in range(2 * denominator)]
    return pts


def piece_value(pieces, x):
    """Evaluate a piecewise-affine map given as [(lo, hi, slope, c)] Fractions."""
    for lo, hi, slope, c in pieces:
        if lo <= x < hi:
            return slope * x + c
    raise ValueError(f"{x} not covered")


def discontinuity_scan(pieces):
    """Interior piece boundaries where the left limit differs from the value."""
    points = []
    for (l1, h1, s1, c1), (l2, h2, s2, c2) in zip(pieces, pieces[1:]):
        p = l2
        if s1 * p + c1 != s2 * p + c2:
            points.append(p)
    return points


def color_scan(classes, x):
    """classes: {letter: [(lo, lo_in, hi, hi_in), ...]}, all Fractions."""
    for letter, comps in classes.items():
        for lo, lo_in, hi, hi_in in comps:
            if (lo < x or (x == lo and lo_in)) and (x < hi or (x == hi and hi_in)):
                return letter
    return None


def condition2_brute_force(pieces, classes, denominator):
    """Same-image-color straddle failures found by a literal grid pair scan.

    All map and class endpoints must be multiples of 1/denominator; the
    scan then walks every pair (A, B) of half-grid points straddling a
    discontinuity inside one class component and records (letter, p)
    whenever the images of A and B share a color.
    """
    grid = rational_grid(denominator)
    cuts = discontinuity_scan(pieces)
    image_color = {g: color_scan(classes, piece_value(pieces, g)) for g in grid}
    failures = set()
    for letter, comps in classes.items():
        for lo, lo_in, hi, hi_in in comps:
            member = [
                g for g in grid
                if (lo < g or (g == lo and lo_in)) and (g < hi or (g == hi and hi_in))
            ]
            for p in cuts:
                if not (lo < p < hi):
                    continue
                a_side = [g for g in member if g < p]
                b_side = [g for g in member if g > p]
                if any(
                    image_color[a] == image_color[b]
                    for a in a_side
                    for b in b_side
                ):
                    failures.add((letter, p))
    return failures


def scalar_text(rational, radical, d):
    """The text of rational + radical*sqrt(d), parts given as Fractions,
    each part in lowest terms: "p", "p/q", then "+" or "-" and the
    radical part's absolute value with "*sqrt(d)" unless it is zero."""
    def rat(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if radical == 0:
        return rat(rational)
    return f"{rat(rational)}{'+' if radical > 0 else '-'}{rat(abs(radical))}*sqrt({d})"


def read_scalar_text(text, max_digits=4300, max_radicand=10**12):
    """The scalar grammar read one character at a time, from the left:

        scalar := rat | rat ("+"|"-") rat "*sqrt(" uint ")"
        rat    := ["-"] uint ["/" uint],   uint := one or more of 0-9

    on the text with surrounding whitespace stripped.  Returns (a, b,
    radicand) for a + b*sqrt(radicand), a and b Fractions as written and
    radicand 0 when there is no radical, or the first error as (message,
    position): a digit run that is empty or longer than max_digits, a
    zero denominator (("zero denominator", the offset after it)), a
    missing "*sqrt(" or ")", a radicand above max_radicand (at its first
    digit), or trailing characters."""
    s = text.strip()
    pos = 0

    class Bad(Exception):
        pass

    def uint():
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] in "0123456789":
            pos += 1
        if pos == start:
            raise Bad("expected a digit", start)
        if pos - start > max_digits:
            raise Bad(f"more than {max_digits} digits", start)
        return int(s[start:pos])

    def rat():
        nonlocal pos
        sign = 1
        if s.startswith("-", pos):
            sign, pos = -1, pos + 1
        num, den = uint(), 1
        if s.startswith("/", pos):
            pos += 1
            den = uint()
            if den == 0:
                raise Bad("zero denominator", pos)
        return Fraction(sign * num, den)

    try:
        a, b, radicand = rat(), Fraction(0), 0
        if pos < len(s) and s[pos] in "+-":
            op = s[pos]
            pos += 1
            b = rat() if op == "+" else -rat()
            if not s.startswith("*sqrt(", pos):
                raise Bad("expected '*sqrt('", pos)
            pos += len("*sqrt(")
            start = pos
            radicand = uint()
            if radicand > max_radicand:
                raise Bad(f"radicand exceeds {max_radicand}", start)
            if not s.startswith(")", pos):
                raise Bad("expected ')'", pos)
            pos += 1
        if pos != len(s):
            raise Bad("trailing characters", pos)
    except Bad as e:
        return e.args
    return a, b, radicand


def squarefree(n):
    """True for n >= 0 with no square factor above 1, by trial division."""
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return n >= 0


def _short_hash(prefix, text):
    return prefix + hashlib.sha256(text.encode()).hexdigest()[:12]


def subdivision_id(classes):
    """The content id of a subdivision given as {letter: [(lo, hi), ...]},
    components left to right, each end a (rational part, radical part, d,
    closed) tuple: classes in letter order, each component as
    "lo,closed,hi,closed" with closed 0 or 1."""
    def end(rational, radical, d, closed):
        return f"{scalar_text(rational, radical, d)},{int(closed)}"
    return _short_hash("sub:", ";".join(
        f"{letter}:" + "|".join(f"{end(*lo)},{end(*hi)}" for lo, hi in comps)
        for letter, comps in sorted(classes.items())))


def map_id(pieces):
    """The content id of a map given as [(lo, hi, slope, intercept)], left
    to right, each scalar a (rational part, radical part, d) tuple."""
    return _short_hash("map:", ";".join(
        f"{scalar_text(*lo)},{scalar_text(*hi)},{slope},{scalar_text(*c)}"
        for lo, hi, slope, c in pieces))


def surd_sign(a, b, d):
    """Sign of a + b*sqrt(d) for rationals a, b and d = 0 or a squarefree
    d > 1: the common sign of a and b when they agree or one is zero, else
    the sign of the part with the larger square, a**2 against b**2 * d."""
    sa, sb = (a > 0) - (a < 0), ((b > 0) - (b < 0)) if d else 0
    if not sb or sa == sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > b * b * d else sb


@total_ordering
class Surd:
    """The number a + b*sqrt(d) of a field, or a plain rational.

    `field` is the field's d, or None for a plain int or Fraction; numbers
    compare by value whatever their fields, and a sum takes the field of
    whichever operand has one.
    """

    def __init__(self, a, b=0, field=None):
        self.a, self.b, self.field = Fraction(a), Fraction(b), field

    def __eq__(self, other):
        return (self.a, self.b) == (other.a, other.b)

    def __lt__(self, other):
        d = self.field or other.field or 0
        return surd_sign(self.a - other.a, self.b - other.b, d) < 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        field = self.field if self.field is not None else other.field
        return Surd(self.a + other.a, self.b + other.b, field)

    def __neg__(self):
        return Surd(-self.a, -self.b, self.field)

    def __sub__(self, other):
        return self + -other

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.field})"


# A set of numbers is a list of components (lo, lo_in, hi, hi_in): the
# numbers from lo to hi, each end held iff its flag is set.

def set_canonical(comps):
    """The union as sorted, disjoint, non-adjacent components: two merge
    when they overlap, or meet at a point one of them holds."""
    out = []
    for lo, lo_in, hi, hi_in in sorted(comps, key=lambda c: (c[0], not c[1])):
        if out:
            last_lo, last_lo_in, last_hi, last_hi_in = out[-1]
            if lo < last_hi or (lo == last_hi and (lo_in or last_hi_in)):
                if (hi, hi_in) > (last_hi, last_hi_in):
                    out[-1] = (last_lo, last_lo_in, hi, hi_in)
                continue
        out.append((lo, lo_in, hi, hi_in))
    return out


def set_fields(comps):
    """The fields of the endpoints, plain rationals left out."""
    return {x.field for lo, _, hi, _ in comps for x in (lo, hi)} - {None}


def set_contains(comps, x):
    return any((lo < x or (lo == x and lo_in)) and (x < hi or (x == hi and hi_in))
               for lo, lo_in, hi, hi_in in comps)


def set_meets(a, b):
    """The meet of each component of a with each of b, left to right, the
    empty ones left out.  Each end is the inner of the two: a held end
    lies outside an open one at the same value, and of two equal ends
    the one from a is kept."""
    out = []
    for a_lo, a_lo_in, a_hi, a_hi_in in a:
        for b_lo, b_lo_in, b_hi, b_hi_in in b:
            lo, lo_in = ((b_lo, b_lo_in) if (b_lo, not b_lo_in) > (a_lo, not a_lo_in)
                         else (a_lo, a_lo_in))
            hi, hi_in = (b_hi, b_hi_in) if (b_hi, b_hi_in) < (a_hi, a_hi_in) else (a_hi, a_hi_in)
            if lo < hi or (lo == hi and lo_in and hi_in):
                out.append((lo, lo_in, hi, hi_in))
    return out


def set_image(comps, slope, intercept):
    """Each component's image under x -> slope*x + intercept, slope 1 or -1."""
    if slope == 1:
        return [(lo + intercept, lo_in, hi + intercept, hi_in) for lo, lo_in, hi, hi_in in comps]
    return [(intercept - hi, hi_in, intercept - lo, lo_in) for lo, lo_in, hi, hi_in in comps]


def interval_verdict(lo, lo_in, hi, hi_in, half_open=False):
    """Whether the Surds lo and hi, each with its field, bound an interval:
    ("ok", its text) when they do, else (exception name, message).

    Ends from two fields are refused first.  A component must hold a point:
    lo < hi, or lo == hi with both ends held.  A map's half-open domain
    [lo, hi) needs 0 <= lo < hi <= 1, with 0 and 1 in lo's field.
    """
    def text(x):
        return scalar_text(x.a, x.b, x.field)

    if lo.field != hi.field:
        return "FieldMismatch", f"field contexts differ: sqrt({lo.field}) vs sqrt({hi.field})"
    if half_open:
        if not Surd(0, 0, lo.field) <= lo < hi <= Surd(1, 0, lo.field):
            return "ValueError", f"need 0 <= lo < hi <= 1, got [{text(lo)}, {text(hi)})"
        lo_in, hi_in = True, False
    elif hi < lo:
        return "ValueError", f"empty component: lo {text(lo)} > hi {text(hi)}"
    elif lo == hi and not (lo_in and hi_in):
        return "ValueError", "a single point needs both endpoints included"
    return "ok", f"{'[' if lo_in else '('}{text(lo)}, {text(hi)}{']' if hi_in else ')'}"


def floor_scaled(x, scale=2**64):
    """floor(x * scale) for a Surd: a 60-digit decimal guess, moved until
    exact signs put x * scale in [n, n + 1)."""
    a, b, d = x.a * scale, x.b * scale, x.field or 0
    guess = decimal_value(a.numerator, a.denominator, b.numerator, b.denominator, d, prec=60)
    n = int(guess.to_integral_value(rounding=ROUND_FLOOR))
    while surd_sign(a - n, b, d) < 0:
        n -= 1
    while surd_sign(a - n - 1, b, d) >= 0:
        n += 1
    return n
