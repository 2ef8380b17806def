"""Finite-prefix word analytics: complexity, recurrence windows, periods.

Factor complexity and recurrence windows for every n come from one suffix
automaton of the word (Blumer et al., TCS 1985): a state is a class of
factors with the same end positions, covering a range of lengths, so one
pass over the states answers all n at once.  The last word's automaton
is kept, so complexity and recurrence_profile on one word build it once.
Periods come from slice comparisons of the word's letter codes, one per
candidate period.  Both read the letters as they are: they only hash
letters and compare them for equality.

Everything here is evidence at a scale: the verdict sentinels say
"...AT_SCALE" because a finite prefix can never certify an infinite-word
property, only fail to falsify it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate, islice
from operator import sub


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
    """The letters of a SymbolicWord, a sequence of letters, or a str of
    whitespace-separated letters, the form SymbolicWord.text() writes."""
    if isinstance(word, str):
        word = word.split()
    letters = word.letters if hasattr(word, "letters") else tuple(word)
    if not letters:
        raise ValueError("empty word")
    return letters


@dataclass(frozen=True)
class ComplexityProfile:
    """p(n) for 1 <= n <= n_max, measured on a specific prefix length."""

    values: tuple          # ((n, p(n)), ...)
    prefix_length: int

    def p(self, n):
        return dict(self.values)[n]     # KeyError when n has no value

    def rows(self):
        return list(self.values)


@dataclass(frozen=True)
class RecurrenceProfile:
    """Smallest all-factors window per n, or NOT_RECURRENT_AT_SCALE."""

    values: tuple          # ((n, window), ...)
    prefix_length: int

    def window(self, n):
        return dict(self.values)[n]     # KeyError when n has no value

    def rows(self):
        return list(self.values)


def complexity(word, n_max):
    """Distinct-factor counts p(1..n_max), read off one suffix automaton.

    Every factor belongs to exactly one state v, and v holds one factor of
    each length in (length[link v], length v], so p(n) is the number of
    states whose range covers n: one difference array over those ranges.
    """
    letters = _letters_of(word)
    length = len(letters)
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if length < n_max:
        raise PrefixTooShort(f"prefix of length {length} < n_max {n_max}")
    link, longest, _ = _automaton(letters)
    diff = [0] * (n_max + 2)
    for v in range(1, len(longest)):
        lo = longest[link[v]] + 1
        if lo <= n_max:
            diff[lo] += 1
            diff[min(longest[v], n_max) + 1] -= 1
    counts = accumulate(diff[1 : n_max + 1])
    return ComplexityProfile(tuple(enumerate(counts, 1)), length)


def recurrence_window(word, n):
    """Smallest W so every length-W window contains every length-n factor.

    Let a factor occur at ascending starts s_1..s_m.  Every length-W window
    sees it iff W >= s_1 + n (the window at the left edge), W >= gap + n - 1
    for each successive-occurrence gap (the window wedged between two
    occurrences), and W >= L - s_m (the window at the right edge).  The
    answer is the max of these over all factors.  A factor with fewer than
    two occurrences has an unbounded gap as far as this prefix can tell,
    so the verdict is NOT_RECURRENT_AT_SCALE.

    The factors' occurrences come from one suffix automaton (see _windows).
    """
    letters = _letters_of(word)
    length = len(letters)
    if n < 1:
        raise ValueError("need n >= 1")
    if length < 4 * n:
        raise PrefixTooShort(f"prefix of length {length} < 4n = {4 * n}")
    return _windows(letters, n)[-1]


def recurrence_profile(word, n_max):
    """recurrence_window for every n up to n_max that the prefix supports."""
    letters = _letters_of(word)
    top = min(n_max, len(letters) // 4)
    windows = _windows(letters, top) if top >= 1 else []
    return RecurrenceProfile(tuple(enumerate(windows, 1)), len(letters))


@lru_cache(maxsize=1)
def _automaton(s):
    """The suffix automaton of the letter tuple s, built online (Blumer et
    al., TCS 1985).

    Returns tuples (link, length, ends): the suffix link and the longest
    factor length of every state (state 0 is the root, with link -1), and
    ends[i], the state created when s[i] was added, whose end positions
    include i.  The transition dicts are needed only while building, so
    they die here.  The last word's automaton stays alive until a call
    with another word, and a call with the same word returns it again.
    """
    nxt, link, length, ends = [{}], [-1], [0], []
    last = 0
    for c in s:
        cur = len(length)
        nxt.append({})
        link.append(0)
        length.append(length[last] + 1)
        p = last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p != -1:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                nxt.append(nxt[q].copy())
                link.append(link[q])
                length.append(length[p] + 1)
                while p != -1 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        ends.append(cur)
        last = cur
    return tuple(link), tuple(length), tuple(ends)


def _windows(s, top):
    """Recurrence windows of s for n = 1..top, from one suffix automaton.

    State v holds the factors of lengths (length[link v], length v], all
    with the end positions E_v.  In end positions, the left-edge term
    s_1 + n is min E + 1, the right-edge term L - s_m is L - max E + n - 1,
    and start gaps are end gaps, so v needs max(min E + 1,
    max(maxgap E, L - max E) + n - 1) at each n it covers, or is
    NOT_RECURRENT_AT_SCALE when |E| < 2.

    Only states with length[link v] < top cover some n <= top, and their
    links do too.  Each end position is attached to its deepest such
    state, and the lists are merged up the links in decreasing length, so
    they hold at most len(s) * (top + 1) entries in all.
    """
    link, length, ends = _automaton(s)
    total = len(s)
    deepest = list(range(len(length)))
    kept = []                                 # states covering some n <= top
    for v in sorted(range(1, len(length)), key=length.__getitem__):
        if length[link[v]] >= top:
            deepest[v] = deepest[link[v]]
        else:
            kept.append(v)
    occ = {v: [] for v in kept}
    for i, v in enumerate(ends):
        occ[deepest[v]].append(i)

    starting = [[] for _ in range(top + 1)]   # by lo: (hi, left, inner term)
    lonely = [0] * (top + 2)                  # difference array of |E| < 2
    for v in reversed(kept):
        lo = length[link[v]] + 1
        hi = min(length[v], top)
        e = occ.pop(v)
        e.sort()
        if link[v]:
            occ[link[v]].extend(e)
        if len(e) < 2:
            lonely[lo] += 1
            lonely[hi + 1] -= 1
        else:
            gap = max(map(sub, islice(e, 1, None), e))
            starting[lo].append((hi, e[0] + 1, max(gap, total - e[-1])))

    windows = []
    left, inner = [], []                      # max-heaps of (-term, hi)
    for n, missing in enumerate(accumulate(lonely[1 : top + 1]), 1):
        for hi, a, b in starting[n]:
            heappush(left, (-a, hi))
            heappush(inner, (-b, hi))
        if missing:
            windows.append(NOT_RECURRENT_AT_SCALE)
            continue
        while left[0][1] < n:
            heappop(left)
        while inner[0][1] < n:
            heappop(inner)
        windows.append(max(-left[0][0], -inner[0][0] + n - 1))
    return windows


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

    The tail s[p:] has period q iff s[p+q:] == s[p:L-q], and then so does
    every later tail, so each q takes one comparison at the longest
    preperiod allowed, and the first q that passes a binary search for the
    least one.  The letters are compared as integer codes through
    memoryview slices, which compare in C without copying.
    """
    letters = _letters_of(word)
    length = len(letters)
    codes = {c: i for i, c in enumerate(dict.fromkeys(letters))}
    s = memoryview(array("Q", map(codes.__getitem__, letters)))
    for q in range(1, length // 3 + 1):
        lo, hi = 0, min(length // 2, length - 3 * q)
        if s[hi + q:] == s[hi : length - q]:
            while lo < hi:
                mid = (lo + hi) // 2
                if s[mid + q:] == s[mid : length - q]:
                    hi = mid
                else:
                    lo = mid + 1
            return (lo, q)
    return APERIODIC_AT_SCALE
