"""Embedded golden suites for `iet-words selftest`.

Each suite re-derives its expected answers from first principles inside
this module (substitution words, orbit periods, brute re-checks), so a
passing selftest is evidence about the library, not about the library
agreeing with itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .analysis import complexity, detect_period
from .coding import code, roundtrip_check
from .exactnum import ExactScalar, format_scalar, make_scalar, parse_scalar
from .instances import (
    fibonacci_instance,
    random_instance,
)
from .intervalsets import interval
from .intervalmap import rotation
from .subdivision import GoodnessCertificate, Subdivision, is_good, refine_to_good


def _substitution_fibonacci(length):
    """0 -> 01, 1 -> 0, iterated from "0" until long enough."""
    word = "0"
    while len(word) < length:
        word = "".join("01" if ch == "0" else "0" for ch in word)
    return word[:length]


def _suite_scalar_roundtrip(seed):
    rng = random.Random(seed)
    for i in range(300):
        d = rng.choice((0, 5))
        x = make_scalar(
            rng.randint(-40, 40), rng.randint(1, 40),
            rng.randint(-40, 40) if d else 0, rng.randint(1, 40),
            d,
        )
        text = format_scalar(x)
        if parse_scalar(text) != x:
            return False, f"round-trip failed for {text!r}"
        if (-x).sign() != -x.sign():
            return False, f"sign inconsistency for {text!r}"
    return True, "300 scalars round-tripped through text"


def _suite_fibonacci_prefix(seed):
    del seed  # deterministic suite
    spec = fibonacci_instance(1000)
    word = code(spec.pmap, spec.sub, spec.x0, spec.length)
    expected = _substitution_fibonacci(1000)
    if "".join(word.letters) != expected:
        k = next(i for i, (a, b) in enumerate(zip(word.letters, expected)) if a != b)
        return False, f"golden-rotation word differs from substitution at index {k}"
    profile = complexity(word, 50)
    bad = [(n, p) for n, p in profile.values if p != n + 1]
    if bad:
        return False, f"complexity not n+1 at {bad[:3]}"
    return True, "1000 letters match the substitution word; p(n) = n+1 up to 50"


def _suite_rational_periods(seed):
    rng = random.Random(seed)
    zero, half = ExactScalar.zero(0), ExactScalar.from_rational(Fraction(1, 2), 0)
    two_classes = Subdivision({"A": interval(zero, half), "B": interval(half, ExactScalar.one(0))})
    for trial in range(10):
        q = rng.randint(3, 30)
        p = rng.choice([v for v in range(1, q) if gcd(v, q) == 1])
        angle = ExactScalar.from_rational(Fraction(p, q), 0)
        word = code(rotation(angle), two_classes, zero, 4 * q + 8)
        result = detect_period(word)
        if not isinstance(result, tuple):
            return False, f"rotation {p}/{q}: no period found"
        _, period = result
        if q % period != 0:
            return False, f"rotation {p}/{q}: period {period} does not divide {q}"
    return True, "10 rational rotations have periods dividing q"


def _suite_refinement_roundtrip(seed):
    rng = random.Random(seed)
    for i in range(20):
        pmap, sub, x0 = random_instance(rng)
        refined, gluing = refine_to_good(sub, pmap)
        verdict = is_good(refined, pmap)
        if not isinstance(verdict, GoodnessCertificate):
            return False, f"instance {i}: refined subdivision not good"
        bound = sub.component_count() + len(pmap.discontinuities())
        if len(refined.alphabet) > bound:
            return False, f"instance {i}: alphabet {len(refined.alphabet)} > bound {bound}"
        outcome = roundtrip_check(pmap, sub, x0, 300)
        if not outcome.ok:
            return False, f"instance {i}: glue-back mismatch at {outcome.mismatch_index}"
    return True, "20 refinements good, glue-back exact for 300 steps each"


SUITES = (
    ("scalar-roundtrip", _suite_scalar_roundtrip),
    ("fibonacci-prefix", _suite_fibonacci_prefix),
    ("rational-periods", _suite_rational_periods),
    ("refinement-roundtrip", _suite_refinement_roundtrip),
)


def run_selftest(seed=0, write=print):
    """Run every embedded suite; True iff all pass."""
    all_ok = True
    for name, suite in SUITES:
        ok, detail = suite(seed)
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
