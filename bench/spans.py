"""Spans around calls into each ietwords module, recorded by the benchmark.

Nothing here reaches inside the library: every span wraps one public call
that the benchmark itself makes.  Spans are aggregated in memory by name
(total seconds and call count), with a few counters and maxima beside
them, and turned into the per-layer metrics at the end of a traced run.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

from ietwords import (
    ExactScalar,
    GoodnessCertificate,
    SpecError,
    code,
    complexity,
    detect_period,
    dumps,
    is_good,
    parse_spec,
    recurrence_profile,
    refine_to_good,
    roundtrip_check,
    to_iet,
)

clock = time.perf_counter

# Orbit points or endpoints kept per field for the scalar add/compare timing.
OPERAND_SAMPLE = 64
SCALAR_REPEATS = 20

# cli.main turns these into exit code 1; the replay catches the same ones.
DOMAIN_ERRORS = (ValueError, RuntimeError, KeyError, ArithmeticError)


class Spans:
    """Span totals and call counts by name, plus counters and maxima."""

    def __init__(self):
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.highs = {}
        self.operands = defaultdict(list)      # field d -> sample of scalars

    def add(self, name, seconds, calls=1):
        self.total[name] += seconds
        self.calls[name] += calls

    def timed(self, name, fn, *args):
        t0 = clock()
        result = fn(*args)
        self.add(name, clock() - t0)
        return result

    def count(self, name, n):
        self.counts[name] += n

    def high(self, name, value):
        self.highs[name] = max(self.highs.get(name, value), value)

    def operand(self, x):
        sample = self.operands[x.d]
        if len(sample) < OPERAND_SAMPLE:
            sample.append(x)
        self.high("exactnum.coeff_bits", coeff_bits(x))


def coeff_bits(x):
    """Largest bit length among the numerators and denominators of x."""
    a, b = x.rational_part, x.radical_part
    return max(a.numerator.bit_length(), a.denominator.bit_length(),
               b.numerator.bit_length(), b.denominator.bit_length())


def violations(verdict):
    return 0 if isinstance(verdict, GoodnessCertificate) else len(verdict)


# ------------------------------------------------------- traced call paths


def walk(tr, pmap, sub, x0, n, refined=None, gluing=None, expect=None):
    """Step the orbit of x0 one public call at a time, as roundtrip_check does.

    With `refined`/`gluing`, compares the glued refined letter with the
    original one at each point; otherwise compares the letter with
    `expect[k]`.  Returns the first index where they differ, or None.
    """
    add = tr.add
    x = x0
    for k in range(n):
        tr.operand(x)
        t0 = clock()
        letter = sub.color_of(x)
        t1 = clock()
        add("subdivision.color_of", t1 - t0)
        if refined is None:
            agrees = letter == expect[k]
        else:
            fine = refined.color_of(x)
            add("subdivision.color_of", clock() - t1)
            agrees = gluing(fine) == letter
        t2 = clock()
        x_next = pmap.apply(x)
        t3 = clock()
        add("intervalmap.apply", t3 - t2)
        add("coding.step", t3 - t0)
        if not agrees:
            return k
        x = x_next
    return None


def word_peak(tr, pmap, sub, x0, n):
    """Peak traced allocation while code() builds an n-letter word."""
    tracemalloc.start()
    try:
        code(pmap, sub, x0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tr.high("coding.word_peak_kb", peak / 1024)


def image_parts(tr, pmap, sub):
    """Each class's image, split along the pieces, through BoundarySet calls."""
    from ietwords import interval

    domains = [(p, interval(p.domain.lo, p.domain.hi)) for p in pmap.pieces]
    for letter in sub.alphabet:
        cls = sub.class_of(letter)
        for piece, dom in domains:
            t0 = clock()
            part = cls.intersect(dom)
            t1 = clock()
            tr.add("intervalsets.intersect", t1 - t0)
            tr.count("intervalsets.calls", 1)
            if not part.is_empty():
                tr.timed("intervalsets.transform", part.transform,
                         piece.slope, piece.intercept)
                tr.count("intervalsets.calls", 1)


def endpoint_operands(tr, sub):
    for letter in sub.alphabet:
        for c in sub.class_of(letter).components:
            tr.operand(c.lo)
            tr.operand(c.hi)


def _analyze(tr, spec, n_max):
    word = tr.timed("coding.code", code, spec.pmap, spec.sub, spec.x0, spec.length)
    tr.count("coding.steps", spec.length)
    n_max = min(n_max, len(word))
    tr.timed("analysis.complexity", complexity, word, n_max)
    tr.timed("analysis.recurrence_profile", recurrence_profile, word, n_max)
    tr.timed("analysis.detect_period", detect_period, word)
    return word


def _generate(tr, spec, n_max):
    word = tr.timed("coding.code", code, spec.pmap, spec.sub, spec.x0, spec.length)
    tr.count("coding.steps", spec.length)
    return word


def _check_good(tr, spec, n_max):
    verdict = tr.timed("subdivision.is_good", is_good, spec.sub, spec.pmap)
    tr.count("subdivision.violations", violations(verdict))


def _refine(tr, spec, n_max):
    refined, _ = tr.timed("subdivision.refine_to_good", refine_to_good, spec.sub, spec.pmap)
    tr.count("subdivision.refined_letters", len(refined.alphabet))


def _roundtrip(tr, spec, n_max):
    tr.timed("coding.roundtrip_check", roundtrip_check,
             spec.pmap, spec.sub, spec.x0, spec.length)
    tr.count("coding.steps", spec.length)


def _to_iet(tr, spec, n_max):
    tr.timed("intervalmap.to_iet", to_iet, spec.pmap)


# The library calls each iet-words command makes after parse_spec.
COMMAND_CALLS = {
    "generate": _generate,
    "check-good": _check_good,
    "refine": _refine,
    "roundtrip": _roundtrip,
    "analyze": _analyze,
    "to-iet": _to_iet,
}


def replay_cli(tr, command, text, n_max):
    """Time parse_spec and the command's library calls on one document.

    Returns (seconds spent, the library result or None).
    """
    t0 = clock()
    try:
        spec = parse_spec(text)
    except SpecError:
        spec = None
    spent = clock() - t0
    tr.add("jsonio.parse_spec", spent)
    if spec is None:
        return spent, None
    t0 = clock()
    try:
        result = COMMAND_CALLS[command](tr, spec, n_max)
    except DOMAIN_ERRORS:
        result = None
    return spent + clock() - t0, result


def redump(tr, out):
    """Time dumps() on the decoded CLI JSON output; returns seconds spent."""
    obj = json.loads(out)
    t0 = clock()
    text = dumps(obj)
    spent = clock() - t0
    tr.add("jsonio.dumps", spent)
    tr.count("jsonio.bytes_out", len(text.encode()))
    return spent


def scalar_timings(tr, radicands):
    """ExactScalar add and < on the sampled operands; zero() per radicand."""
    for xs in tr.operands.values():
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        for _ in range(SCALAR_REPEATS):
            t0 = clock()
            for x, y in pairs:
                x + y
            t1 = clock()
            for x, y in pairs:
                x < y
            t2 = clock()
            tr.add("exactnum.add", t1 - t0, len(pairs))
            tr.add("exactnum.lt", t2 - t1, len(pairs))
    for d in radicands:
        t0 = clock()
        for _ in range(SCALAR_REPEATS):
            ExactScalar.zero(d)
        tr.add(f"exactnum.zero.d{d}", clock() - t0, SCALAR_REPEATS)


# ----------------------------------------------------------- layer metrics


def layer_table(radicands, commands):
    """(metric, unit, how, span-or-counter name) for every per-layer metric."""
    table = [
        ("exactnum.add_us", "us", "mean_us", "exactnum.add"),
        ("exactnum.lt_us", "us", "mean_us", "exactnum.lt"),
        *[(f"exactnum.zero_us.d{d}", "us", "mean_us", f"exactnum.zero.d{d}")
          for d in radicands],
        ("exactnum.coeff_bits_max", "count", "high", "exactnum.coeff_bits"),
        ("intervalmap.apply_us", "us", "mean_us", "intervalmap.apply"),
        ("intervalmap.apply_calls", "count", "calls", "intervalmap.apply"),
        ("intervalmap.validate_s", "s", "total_s", "intervalmap.validate"),
        ("intervalmap.discontinuities_s", "s", "total_s", "intervalmap.discontinuities"),
        ("subdivision.color_of_us", "us", "mean_us", "subdivision.color_of"),
        ("subdivision.color_of_calls", "count", "calls", "subdivision.color_of"),
        ("subdivision.is_good_s", "s", "total_s", "subdivision.is_good"),
        ("subdivision.refine_to_good_s", "s", "total_s", "subdivision.refine_to_good"),
        ("subdivision.construct_s", "s", "total_s", "subdivision.construct"),
        ("subdivision.refined_letters", "count", "count", "subdivision.refined_letters"),
        ("subdivision.violations", "count", "count", "subdivision.violations"),
        ("intervalsets.intersect_us", "us", "mean_us", "intervalsets.intersect"),
        ("intervalsets.transform_us", "us", "mean_us", "intervalsets.transform"),
        ("intervalsets.calls", "count", "count", "intervalsets.calls"),
        ("coding.roundtrip_check_s", "s", "total_s", "coding.roundtrip_check"),
        ("coding.code_s", "s", "total_s", "coding.code"),
        ("coding.steps", "count", "count", "coding.steps"),
        ("coding.step_us", "us", "mean_us", "coding.step"),
        ("coding.word_peak_kb", "KB", "high", "coding.word_peak_kb"),
        ("analysis.complexity_s", "s", "total_s", "analysis.complexity"),
        ("analysis.recurrence_profile_s", "s", "total_s", "analysis.recurrence_profile"),
        ("analysis.detect_period_s", "s", "total_s", "analysis.detect_period"),
        ("jsonio.parse_spec_ms", "ms", "mean_ms", "jsonio.parse_spec"),
        ("jsonio.dumps_ms", "ms", "mean_ms", "jsonio.dumps"),
        ("jsonio.bytes_out", "B", "count", "jsonio.bytes_out"),
        *[(f"cli.main_ms.{c}", "ms", "mean_ms", f"cli.main.{c}") for c in commands],
        ("cli.self_ms", "ms", "mean_ms", "cli.self"),
    ]
    return table


def layer_metrics(tr, table):
    """Metric -> (value, unit) for every entry of `table` the spans cover."""
    out = {}
    for name, unit, how, key in table:
        if how in ("mean_us", "mean_ms", "total_s", "calls"):
            calls = tr.calls.get(key, 0)
            if not calls:
                continue
            total = tr.total[key]
            value = {"mean_us": total / calls * 1e6, "mean_ms": total / calls * 1e3,
                     "total_s": total, "calls": calls}[how]
        elif how == "count":
            if key not in tr.counts:
                continue
            value = tr.counts[key]
        else:
            if key not in tr.highs:
                continue
            value = tr.highs[key]
        out[name] = (value, unit)
    return out
