import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ietwords import (
    APERIODIC_AT_SCALE,
    NOT_RECURRENT_AT_SCALE,
    PrefixTooShort,
    SymbolicWord,
    complexity,
    detect_period,
    recurrence_profile,
    recurrence_window,
)
from ietwords.analysis import _automaton

from oracles import (
    complexity_by_slices,
    eventual_period_scan,
    factor_set,
    fibonacci_word,
    recurrence_window_by_starts,
    recurrence_window_scan,
)


def random_word(rng, sigma, length):
    return [chr(ord("a") + rng.randrange(sigma)) for _ in range(length)]


@st.composite
def words(draw):
    """Random, eventually periodic and Fibonacci words of 1-200 letters."""
    length = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["random", "periodic", "fibonacci"]))
    if kind == "fibonacci":
        shift = draw(st.integers(0, 50))
        return list(fibonacci_word(length + shift)[shift:])
    letters = st.sampled_from("abcd"[: draw(st.integers(1, 4))])
    if kind == "random":
        return draw(st.lists(letters, min_size=length, max_size=length))
    block = draw(st.lists(letters, min_size=1, max_size=8))
    pre = draw(st.lists(letters, max_size=5))
    return (pre + block * length)[:length]


@st.composite
def words_and_depths(draw):
    """A word and an n_max in 1..len(word), often len(word) itself."""
    word = draw(words())
    n_max = draw(st.one_of(st.just(len(word)), st.integers(1, len(word))))
    return word, n_max


def oracle_profile(word, n_max):
    """recurrence_profile rows from the dict-of-starts oracle."""
    rows = []
    for n in range(1, min(n_max, len(word) // 4) + 1):
        w = recurrence_window_by_starts(word, n)
        rows.append((n, NOT_RECURRENT_AT_SCALE if w is None else w))
    return rows


# -------------------------------------------------------------- complexity

@settings(max_examples=150, deadline=None)
@given(words_and_depths())
def test_complexity_matches_slice_oracle(case):
    word, n_max = case
    prof = complexity(word, n_max)
    assert prof.prefix_length == len(word)
    assert prof.rows() == list(enumerate(complexity_by_slices(word, n_max), 1))


def test_fibonacci_complexity_is_n_plus_one():
    word = fibonacci_word(1000)
    prof = complexity(word, 50)
    assert all(pn == n + 1 for n, pn in prof.values)
    assert prof.prefix_length == 1000
    assert prof.p(7) == 8
    with pytest.raises(KeyError):
        prof.p(51)


def test_complexity_of_periodic_word_is_bounded():
    prof = complexity(list("AB" * 20), 8)
    assert [pn for _, pn in prof.values] == [2] * 8


def test_complexity_counts_match_direct_enumeration(rng):
    for _ in range(30):
        word = random_word(rng, rng.randint(1, 4), rng.randint(20, 80))
        prof = complexity(word, 10)
        for n, pn in prof.values:
            assert pn == len(factor_set(word, n))


def test_complexity_input_validation():
    with pytest.raises(PrefixTooShort):
        complexity(list("abc"), 4)
    with pytest.raises(ValueError):
        complexity(list("abc"), 0)
    with pytest.raises(ValueError):
        complexity(list(""), 1)


def test_complexity_accepts_words_and_sequences():
    w = SymbolicWord("a b a b".split())
    assert complexity(w, 2).rows() == complexity(list("abab"), 2).rows()


def test_str_words_are_read_as_text_writes_them():
    # a str is whitespace-separated letters, as SymbolicWord.text() writes
    # and glue_word reads, so refined letters such as A0 stay whole
    word = SymbolicWord(["A0", "A1", "B0"] * 10 + ["A0"])
    for text in (word.text(), word.text(wrap=7)):
        assert complexity(text, 5) == complexity(word, 5)
        assert recurrence_profile(text, 5) == recurrence_profile(word, 5)
        assert detect_period(text) == detect_period(word) == (0, 3)
    assert complexity(word, 1).p(1) == 3


# ------------------------------------------------------- shared automaton

def test_shared_automaton_never_goes_stale(rng):
    # two words of one length, each as a list, as text and as two
    # SymbolicWords built separately: whatever ran before, every answer
    # is the one for the word at hand
    words = [fibonacci_word(48), tuple(random_word(rng, 3, 48))]
    forms = [(word, form) for word in words
             for form in (list(word), " ".join(word), SymbolicWord(word),
                          SymbolicWord(list(word)))]
    calls = [
        (lambda w: complexity(w, 12).rows(),
         lambda word: list(enumerate(complexity_by_slices(word, 12), 1))),
        (lambda w: recurrence_profile(w, 12).rows(),
         lambda word: oracle_profile(word, 12)),
        (lambda w: recurrence_window(w, 2),
         lambda word: recurrence_window_by_starts(word, 2) or NOT_RECURRENT_AT_SCALE),
    ]
    steps = [(call, word, form) for call, (word, form) in product(calls, forms)]
    for first, then in product(steps, repeat=2):
        for (call, oracle), word, form in (first, then):
            assert call(form) == oracle(word)


def test_complexity_then_recurrence_builds_one_automaton():
    word = SymbolicWord(fibonacci_word(300))
    _automaton.cache_clear()
    complexity(word, 50)
    recurrence_profile(word, 50)
    recurrence_window(word, 7)
    info = _automaton.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    complexity(SymbolicWord(fibonacci_word(299)), 50)
    assert _automaton.cache_info().misses == 2


# -------------------------------------------------------------- recurrence

@settings(max_examples=150, deadline=None)
@given(words_and_depths())
def test_recurrence_profile_matches_starts_oracle(case):
    word, n_max = case
    prof = recurrence_profile(word, n_max)
    assert prof.prefix_length == len(word)
    assert prof.rows() == oracle_profile(word, n_max)


@settings(max_examples=100, deadline=None)
@given(words().filter(lambda w: len(w) >= 4), st.data())
def test_recurrence_window_matches_starts_oracle(word, data):
    n = data.draw(st.integers(1, len(word) // 4))
    expect = recurrence_window_by_starts(word, n)
    got = recurrence_window(word, n)
    assert got == (NOT_RECURRENT_AT_SCALE if expect is None else expect)


def test_recurrence_profile_of_short_words_is_empty():
    for word in (list("a"), list("ab"), list("abc")):
        prof = recurrence_profile(word, 10)
        assert prof.rows() == []
        assert prof.prefix_length == len(word)


def test_one_letter_word():
    word = list("a" * 40)
    assert [pn for _, pn in complexity(word, 40).values] == [1] * 40
    # a^n starts at every position, so the edges set the window: W = n
    assert recurrence_profile(word, 40).rows() == [(n, n) for n in range(1, 11)]


def test_recurrence_verdict_changes_with_n():
    word = list("aab" + "ab" * 8)      # "aa" occurs once, every letter often
    rows = recurrence_profile(word, 10).rows()
    assert rows == oracle_profile(word, 10)
    assert isinstance(rows[0][1], int)
    assert all(w is NOT_RECURRENT_AT_SCALE for _, w in rows[1:])


def test_recurrence_window_of_periodic_word():
    # in "ABABAB...", every length-1 factor recurs within any 2 letters
    assert recurrence_window(list("AB" * 10), 1) == 2
    assert recurrence_window(list("AB" * 10), 2) == 3


def test_recurrence_requires_two_occurrences():
    # "abcd...": each letter occurs once, so no finite window is justified
    word = [chr(ord("a") + i) for i in range(8)]
    assert recurrence_window(word, 1) is NOT_RECURRENT_AT_SCALE


def test_recurrence_window_matches_sliding_scan(rng):
    for _ in range(25):
        word = random_word(rng, rng.randint(1, 3), rng.randint(16, 60))
        n = rng.randint(1, len(word) // 4)
        counts = {}
        for i in range(len(word) - n + 1):
            f = tuple(word[i : i + n])
            counts[f] = counts.get(f, 0) + 1
        got = recurrence_window(word, n)
        if min(counts.values()) < 2:
            assert got is NOT_RECURRENT_AT_SCALE
        else:
            assert got == recurrence_window_scan(word, n)


def test_fibonacci_recurrence_windows_match_scan():
    word = fibonacci_word(400)
    for n in (1, 2, 3, 5, 8):
        assert recurrence_window(word, n) == recurrence_window_scan(word, n)


def test_recurrence_prefix_guard():
    with pytest.raises(PrefixTooShort):
        recurrence_window(list("abcabc"), 2)  # needs length >= 8


def test_recurrence_profile_caps_depth():
    word = fibonacci_word(100)
    prof = recurrence_profile(word, 50)
    assert prof.values[-1][0] == 25  # 100 // 4
    assert prof.prefix_length == 100
    assert prof.window(1) == recurrence_window(word, 1)
    with pytest.raises(KeyError):
        prof.window(26)


# ----------------------------------------------------------------- periods

def test_detect_period_examples():
    assert detect_period(list("AAB" * 10)) == (0, 3)
    assert detect_period(list("A" * 12)) == (0, 1)
    assert detect_period(list("x" + "ab" * 20)) == (1, 2)


def test_detect_period_accepts_exactly_three_periods():
    assert detect_period(list("xyz" * 3)) == (0, 3)


def test_fibonacci_prefix_reads_as_aperiodic():
    assert detect_period(fibonacci_word(1000)) is APERIODIC_AT_SCALE


def test_random_aperiodic_noise_reads_as_aperiodic(rng):
    for _ in range(10):
        word = random_word(rng, 4, 200)
        verdict = detect_period(word)
        # noise essentially never carries a long periodic tail
        assert verdict is APERIODIC_AT_SCALE or verdict[1] > 1


def test_detect_period_agrees_with_scan_oracle(rng):
    for _ in range(60):
        q = rng.randint(1, 6)
        block = random_word(rng, 3, q)
        pre = random_word(rng, 3, rng.randint(0, 4))
        reps = rng.randint(3, 9)
        word = pre + block * reps
        if len(pre) > len(word) // 2:
            continue
        got = detect_period(word)
        expect = eventual_period_scan(word)
        assert got == expect


def test_detect_period_matches_scan_on_noise(rng):
    for _ in range(40):
        word = random_word(rng, 2, rng.randint(12, 64))
        got = detect_period(word)
        expect = eventual_period_scan(word)
        if expect is None:
            assert got is APERIODIC_AT_SCALE
        else:
            assert got == expect


def planted_words(rng, alphabet):
    """Words of every length 1-60: a random preperiod, then a random block
    repeated, cut to length, over the given letters."""
    for length in range(1, 61):
        for _ in range(8):
            q = rng.randint(1, 8)
            block = [rng.choice(alphabet) for _ in range(q)]
            pre = [rng.choice(alphabet) for _ in range(rng.randint(0, length))]
            yield (pre + block * length)[:length]


@pytest.mark.parametrize("alphabet", [
    ["a", "b"],
    [0, 1, 2, 10, 12],
    ["A", "A1", "A10", "A0"],           # some letters prefix others
])
def test_detect_period_matches_scan_on_planted_words(rng, alphabet):
    for word in planted_words(rng, alphabet):
        expect = eventual_period_scan(word)
        got = detect_period(word)
        assert got == (APERIODIC_AT_SCALE if expect is None else expect), word


def test_detect_period_reads_large_alphabets():
    # 70000 distinct letters, then a tail of period 2
    word = list(range(70000)) + [0, 1] * 35000
    assert detect_period(word) == eventual_period_scan(word) == (70000, 2)
