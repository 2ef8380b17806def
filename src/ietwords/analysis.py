"""Finite-prefix word analytics: complexity, recurrence windows, periods.

Factor complexity and recurrence windows for every n come from one suffix
automaton of the word (Blumer et al., TCS 1985): a state is a class of
factors with the same end positions, covering a range of lengths, so one
pass over the states answers all n at once.  The last word's automaton
is kept, so complexity and recurrence_profile on one word build it once.
Periods come from one search for the least shift at which the word's
last third recurs, and one slice comparison there.  Both read the letters
as they are: they only hash letters and compare them for equality.

Everything here is evidence at a scale: the verdict sentinels say
"...AT_SCALE" because a finite prefix can never certify an infinite-word
property, only fail to falsify it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .coding import _require_count


class PrefixTooShort(ValueError):
    """The analyzed prefix is too short for the requested depth."""


class _Verdict:
    """Named sentinel verdict (singleton per name)."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
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


@dataclass(frozen=True)
class RecurrenceProfile:
    """Smallest all-factors window per n, or NOT_RECURRENT_AT_SCALE."""

    values: tuple          # ((n, window), ...)
    prefix_length: int


def complexity(word, n_max):
    """Distinct-factor counts p(1..n_max), read off one suffix automaton.

    Every factor belongs to exactly one state v, and v holds one factor of
    each length in (length[link v], length v], so p(n) is the number of
    states whose range covers n: one difference array over those ranges.
    """
    letters = _letters_of(word)
    length = len(letters)
    _require_count(n_max, "n_max", 1)
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
    _require_count(n, "n", 1)
    if length < 4 * n:
        raise PrefixTooShort(f"prefix of length {length} < 4n = {4 * n}")
    return _windows(letters, n)[-1]


def recurrence_profile(word, n_max):
    """recurrence_window for every n up to n_max that the prefix supports."""
    letters = _letters_of(word)
    _require_count(n_max, "n_max", 1)
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

    State v holds the factors of lengths lo = length[link v] + 1 to
    hi = length v, all with the end positions E.  In end positions, the
    left-edge term s_1 + n is min E + 1, the right-edge term L - s_m is
    L - max E + n - 1, and start gaps are end gaps, so v needs
    max(min E + 1, max(maxgap E, L - max E) + n - 1) at each n it covers, or
    is NOT_RECURRENT_AT_SCALE when |E| < 2.  With no such length-n factor,
    window n is the max of these over all v with lo <= n (two prefix maxima):
    a v with hi < n needs no more.  Left: if e = min E >= n - 1, the length-n
    factor ending at e ends only in E, first at e; else e + 1 < n, the
    length-n prefix's left term.  Right: the same with max E, as max E < n - 1
    would put a later v in the prefix's second occurrence.  Gap g between ends
    e < e': if e >= n - 2, the length-n factor ending at e' has a gap >= g or
    first ends at e' (left term >= g + n - 1); else the prefix holds v at e,
    so it recurs g or more later.

    Only states with length[link v] < top cover some n <= top, and their
    links do too.  Each end position is attached to its deepest such
    state, and the lists are merged up the links in decreasing length, so
    they hold at most len(s) * (top + 1) entries in all.  L is appended to
    each list once it is merged, so its last gap is the right-edge term.
    """
    link, length, ends = _automaton(s)
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

    left = [0] * (top + 1)                    # by lo: max left-edge term
    inner = [0] * (top + 1)                   # by lo: max gap or right term
    lonely = [0] * (top + 2)                  # difference array of |E| < 2
    for v in reversed(kept):
        lo = length[link[v]] + 1
        e = occ.pop(v)
        e.sort()
        if link[v]:
            occ[link[v]].extend(e)
        if len(e) < 2:
            lonely[lo] += 1
            lonely[min(length[v], top) + 1] -= 1
            continue
        if left[lo] <= e[0]:
            left[lo] = e[0] + 1
        e.append(len(s))                      # the right-edge term as a last gap
        gap = max(map(sub, e[1:], e))
        if inner[lo] < gap:
            inner[lo] = gap

    needs = zip(accumulate(lonely[1 : top + 1]), accumulate(left[1:], max),
                accumulate(inner[1:], max))
    return [NOT_RECURRENT_AT_SCALE if missing else max(a, b + n - 1)
            for n, (missing, a, b) in enumerate(needs, 1)]


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
    every later tail, so q takes one comparison at the longest preperiod
    allowed, hi = min(L//2, L - 3q), and a q that passes a bisect for the
    least one.  Only one q is compared: the least shift at which the last
    m = L//3 letters t occur again, s[L-m-q : L-q] == t, found by str.find
    on the reversed word, where t is the first m letters.

    Every valid q is such a shift: if s[hi:] has period q, the two factors
    agree whenever m <= L - q - hi.  When hi = L - 3q that bound is 2q, and
    3q >= L - L//2 there, so 2q >= L/3; when hi = L//2 it is at least
    (2/3)(L - L//2) >= L/3.  So m = L//3 is always short enough.

    And if the least shift q0 fails, so does every other shift q: t occurs
    at the shifts 0, q0 and q, so it has the periods q0 and q - q0, whose
    sum q is at most m, and by Fine and Wilf's theorem the period
    g = gcd(q0, q).  The last m + q0 letters repeat their last q0, which
    lie in t and so have period g; so t recurs at shift g, and g = q0
    divides q.  If s[hi:] had period q, it would repeat its last q
    letters, which lie in t and have period q0, so it would have period
    q0; hi only grows as q shrinks, so q0 would pass.

    The search reads the word as a str with one code point per letter,
    chr(i % 0x110000) for the i-th distinct letter, and so do the
    comparisons.  Past 0x110000 distinct letters codes collide, which only
    adds shifts: then each shift found is compared on the letters
    themselves, in increasing order, until one passes.
    """
    letters = _letters_of(word)
    length, m = len(letters), len(letters) // 3
    codes = {c: chr(i % 0x110000) for i, c in enumerate(dict.fromkeys(letters))}
    s = "".join(map(codes.__getitem__, letters))
    r, q, exact = s[::-1], 0, len(codes) <= 0x110000
    if not exact:                     # colliding codes: compare the letters
        s = letters
    while (q := r.find(r[:m], q + 1, 2 * m)) > 0:
        hi = min(length // 2, length - 3 * q)
        if s[hi + q:] == s[hi : length - q]:
            return bisect_left(range(hi), True, key=lambda p: s[p + q:] == s[p : length - q]), q
        if exact:                     # the least shift decides
            break
    return APERIODIC_AT_SCALE
