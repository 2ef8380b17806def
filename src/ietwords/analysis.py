"""Finite-prefix word analytics: complexity, recurrence windows, periods.

Everything here is evidence at a scale: the verdict sentinels say
"...AT_SCALE" because a finite prefix can never certify an infinite-word
property, only fail to falsify it.
"""

from __future__ import annotations

from dataclasses import dataclass


class PrefixTooShort(ValueError):
    """The analyzed prefix is too short for the requested depth."""


class _Verdict:
    """Named sentinel verdict (singleton per name)."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name

    def __str__(self):
        return self._name


NOT_RECURRENT_AT_SCALE = _Verdict("NOT_RECURRENT_AT_SCALE")
APERIODIC_AT_SCALE = _Verdict("APERIODIC_AT_SCALE")


def _letters_of(word):
    letters = word.letters if hasattr(word, "letters") else tuple(word)
    if not letters:
        raise ValueError("empty word")
    return letters


def _as_chars(letters):
    """Encode letters as single characters so slicing stays C-speed.

    Factor identity only needs injectivity of the encoding; collisions are
    impossible because distinct letters get distinct code points.
    """
    alphabet = sorted(set(letters))
    table = {letter: chr(0x21 + i) for i, letter in enumerate(alphabet)}
    return "".join(table[l] for l in letters)


@dataclass(frozen=True)
class ComplexityProfile:
    """p(n) for 1 <= n <= n_max, measured on a specific prefix length."""

    values: tuple          # ((n, p_n), ...)
    prefix_length: int

    def p(self, n):
        for m, pn in self.values:
            if m == n:
                return pn
        raise KeyError(n)

    def rows(self):
        return list(self.values)


@dataclass(frozen=True)
class RecurrenceProfile:
    """Smallest all-factors window per n, or NOT_RECURRENT_AT_SCALE."""

    values: tuple          # ((n, window-or-verdict), ...)
    prefix_length: int

    def window(self, n):
        for m, w in self.values:
            if m == n:
                return w
        raise KeyError(n)

    def rows(self):
        return list(self.values)


def complexity(word, n_max):
    """Distinct-factor counts p(1..n_max) by direct enumeration.

    Hash-based set membership with exact equality on the encoded factor
    strings: fast, and never merges distinct factors.
    """
    letters = _letters_of(word)
    length = len(letters)
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if length < n_max:
        raise PrefixTooShort(f"prefix of length {length} < n_max {n_max}")
    s = _as_chars(letters)
    values = []
    for n in range(1, n_max + 1):
        values.append((n, len({s[i : i + n] for i in range(length - n + 1)})))
    return ComplexityProfile(tuple(values), length)


def recurrence_window(word, n):
    """Smallest W so every length-W window contains every length-n factor.

    Let a factor occur at ascending starts s_1..s_m.  Every length-W window
    sees it iff W >= s_1 + n (the window at the left edge), W >= gap + n - 1
    for each successive-occurrence gap (the window wedged between two
    occurrences), and W >= L - s_m (the window at the right edge).  The
    answer is the max of these over all factors.  A factor with fewer than
    two occurrences has an unbounded gap as far as this prefix can tell,
    so the verdict is NOT_RECURRENT_AT_SCALE.
    """
    letters = _letters_of(word)
    length = len(letters)
    if n < 1:
        raise ValueError("need n >= 1")
    if length < 4 * n:
        raise PrefixTooShort(f"prefix of length {length} < 4n = {4 * n}")
    s = _as_chars(letters)
    starts = {}
    for i in range(length - n + 1):
        starts.setdefault(s[i : i + n], []).append(i)

    needed = 0
    for occ in starts.values():
        if len(occ) < 2:
            return NOT_RECURRENT_AT_SCALE
        worst_gap = max(b - a for a, b in zip(occ, occ[1:]))
        needed = max(needed, occ[0] + n, worst_gap + n - 1, length - occ[-1])
    return needed


def recurrence_profile(word, n_max):
    """recurrence_window for every n up to n_max that the prefix supports."""
    letters = _letters_of(word)
    top = min(n_max, len(letters) // 4)
    values = tuple((n, recurrence_window(letters, n)) for n in range(1, top + 1))
    return RecurrenceProfile(values, len(letters))


def _z_array(s):
    """z[k] = length of the longest common prefix of s and s[k:]."""
    length = len(s)
    z = [0] * length
    z[0] = length
    left = right = 0
    for k in range(1, length):
        if k < right:
            z[k] = min(right - k, z[k - left])
        while k + z[k] < length and s[z[k]] == s[k + z[k]]:
            z[k] += 1
        if k + z[k] > right:
            left, right = k, k + z[k]
    return z


def detect_period(word):
    """Smallest eventual period the prefix supports, with its preperiod.

    A candidate period q needs a periodic tail of at least three full
    periods and a preperiod no longer than half the word.  That rules out
    the squares of Fibonacci-length blocks that end Fibonacci-word
    prefixes, but not every repetition of an aperiodic word: the Fibonacci
    word contains powers of exponent up to 2 + golden ratio (about 3.62),
    so some of its prefixes pass.  The 1000- and 2000-letter prefixes read
    APERIODIC_AT_SCALE, while the 3000- and 5000-letter ones read
    (987, 610) and (1597, 987).  The verdict describes the prefix, not the
    infinite word.  Returns the pair (preperiod, period) for the smallest
    workable q, else APERIODIC_AT_SCALE.

    The minimal preperiod for a given q comes from one Z-array of the
    reversed word: s[p:] is q-periodic iff the common suffix of the word
    and its first L-q letters has length >= L - q - p.
    """
    letters = _letters_of(word)
    length = len(letters)
    z = _z_array(_as_chars(letters)[::-1])
    half = length // 2
    for q in range(1, half + 1):
        common_suffix = z[q]
        preperiod = max(0, length - q - common_suffix)
        if preperiod <= half and length - preperiod >= 3 * q:
            return (preperiod, q)
    return APERIODIC_AT_SCALE
