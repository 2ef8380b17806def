"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload turns a seed into a fixed list of operations ("ops").  An op
runs public ietwords calls (`run`), renders everything they returned as
bytes for the output digest (`render`), and checks the result against facts
derived independently of the call (`check`).  `traced` runs the same calls
one layer at a time under spans (see spans.py) and returns the same result,
so a traced pass yields the same digest as an untraced one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from math import gcd, isqrt

from ietwords import (
    IET,
    AffinePiece,
    BoundarySet,
    Component,
    ExactScalar,
    GoodnessCertificate,
    HalfOpenInterval,
    PiecewiseMap,
    Subdivision,
    code,
    complexity,
    detect_period,
    dumps,
    iet_to_map,
    instance_to_json,
    is_good,
    make_scalar,
    mod1,
    recurrence_profile,
    refine_to_good,
    rotation,
    roundtrip_check,
)
from ietwords import cli, instances
from ietwords.jsonio import InstanceSpec

import spans as sp

# Radicands of the CLI documents, and of the per-radicand ExactScalar.zero
# timing that every traced run reports.  The large ones make the cost of
# the per-result squarefree check visible; they are fixed (not drawn from
# the seed) because that cost grows with sqrt(d).
RADICANDS = (0, 2, 3, 5, 100003, 1000003, 4000037)

SIZES = {
    "full": {
        "roundtrip_corpus": {"instances": 24, "steps": 2000},
        "long_word_analysis": {"variants": 3, "length": 1500, "n_max": 100},
        # k = 24 holds the median sample and k = 64 the p90 one, each well
        # inside its block, so neither percentile sits between two sizes
        "goodness_large_partition": {"k": [12] * 6 + [24] * 12 + [48] * 4 + [64] * 6 + [200]},
        "cli_quadratic_fields": {"radicands": RADICANDS, "length": 30, "n_max": 7},
    },
    "smoke": {
        "roundtrip_corpus": {"instances": 4, "steps": 100},
        "long_word_analysis": {"variants": 1, "length": 300, "n_max": 20},
        "goodness_large_partition": {"k": [8, 12]},
        "cli_quadratic_fields": {"radicands": (0, 5), "length": 40, "n_max": 10},
    },
}


# ------------------------------------------------------------ exact inputs


def frac_sqrt(d):
    """sqrt(d) - floor(sqrt(d)): an irrational angle in (0, 1) for d > 1."""
    return make_scalar(-isqrt(d), 1, 1, 1, d)


def rational_angle(rng, d, q_lo, q_hi):
    """p/q in lowest terms with q drawn from [q_lo, q_hi]; returns (angle, q)."""
    q = rng.randint(q_lo, q_hi)
    p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
    return ExactScalar.from_rational(Fraction(p, q), d), q


def point_pool(rng, d, count):
    """`count` distinct exact points of (0, 1), sorted.

    Half are multiples of frac(sqrt d) mod 1 when d > 1, so endpoints are
    genuinely quadratic; the rest are rationals.
    """
    zero = ExactScalar.zero(d)
    points = set()
    if d > 1:
        alpha, x = frac_sqrt(d), zero
        for _ in range(count // 2):
            x = mod1(x + alpha)
            points.add(x)
    top = 4 * count + 8
    while len(points) < count:
        den = rng.randint(2, top)
        points.add(ExactScalar.from_rational(Fraction(rng.randint(1, den - 1), den), d))
    return sorted(points)


def segments(cuts, d):
    bounds = [ExactScalar.zero(d), *cuts, ExactScalar.one(d)]
    return list(zip(bounds, bounds[1:]))


def irreducible_permutation(rng, k):
    """A permutation sending no initial block {0..j-1}, j < k, to itself."""
    perm = list(range(k))
    while True:
        rng.shuffle(perm)
        if all(max(perm[:j]) >= j for j in range(1, k)):
            return tuple(perm)


def make_iet(rng, d, k, pool):
    cuts = sorted(rng.sample(pool, k - 1))
    lengths = tuple(hi - lo for lo, hi in segments(cuts, d))
    return IET(lengths, irreducible_permutation(rng, k))


def make_flip_map(rng, d, k, pool):
    """k pieces of slope +1 or -1 (the first is -1) with images inside [0, 1)."""
    one = ExactScalar.one(d)
    pieces = []
    for i, (lo, hi) in enumerate(segments(sorted(rng.sample(pool, k - 1)), d)):
        slope = -1 if i == 0 else rng.choice((1, -1))
        if slope == 1:
            c = -lo + (one - (hi - lo)) * Fraction(rng.randint(0, 16), 16)
        else:
            # the image (c - hi, c - lo] must stay strictly below 1
            c = hi + (one + lo - hi) * Fraction(rng.randint(0, 15), 16)
        pieces.append(AffinePiece(HalfOpenInterval(lo, hi), slope, c))
    return PiecewiseMap(pieces)


def letter_names(count):
    width = len(str(count - 1))
    return [f"c{i:0{width}d}" for i in range(count)]


def random_subdivision(rng, d, letters, components, pool):
    """`components` segments over `letters`, every letter used, with
    neighbouring segments of different letters where the shuffle allows."""
    labels = list(letters) + [rng.choice(letters) for _ in range(components - len(letters))]
    for _ in range(40):
        rng.shuffle(labels)
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    segs = segments(sorted(rng.sample(pool, components - 1)), d)
    flags = [[True, False] for _ in segs]
    for i in range(len(segs) - 1):
        if rng.random() < 0.25:       # hand the boundary point to the left segment
            flags[i][1] = True
            flags[i + 1][0] = False
    classes = {}
    for (lo, hi), (lo_in, hi_in), label in zip(segs, flags, labels):
        classes.setdefault(label, []).append(Component(lo, lo_in, hi, hi_in))
    return Subdivision({c: BoundarySet(comps) for c, comps in classes.items()})


def convex_subdivision(bounds, letters):
    """One [lo, hi) class per (lo, hi) pair."""
    return Subdivision({
        letter: BoundarySet([Component(lo, True, hi, False)])
        for letter, (lo, hi) in zip(letters, bounds)
    })


def rotation_instance(alpha):
    """The rotation by alpha and its two-letter natural partition."""
    d = alpha.d
    cut = ExactScalar.one(d) - alpha
    sub = Subdivision({
        "1": BoundarySet([Component(ExactScalar.zero(d), True, cut, False)]),
        "0": BoundarySet([Component(cut, True, ExactScalar.one(d), False)]),
    })
    return rotation(alpha), sub


def fibonacci_word(length):
    """Prefix of the fixed point of 0 -> 01, 1 -> 0, built by substitution."""
    word = "0"
    while len(word) < length:
        word = "".join("01" if c == "0" else "0" for c in word)
    return word[:length]


def alphabet_bound(sub, pmap):
    return sub.component_count() + len(pmap.discontinuities())


def _lines(*parts):
    return "\n".join(str(p) for p in parts).encode()


# ------------------------------------------------------ roundtrip_corpus


class RoundtripOp:
    """refine_to_good + is_good(refined) + roundtrip_check over a long orbit."""

    def __init__(self, label, pmap, sub, x0, steps):
        self.label = label
        self.pmap, self.sub, self.x0, self.steps = pmap, sub, x0, steps
        self.instance = (pmap, sub, x0)

    def run(self):
        refined, gluing = refine_to_good(self.sub, self.pmap)
        cert = is_good(refined, self.pmap)
        verdict = roundtrip_check(self.pmap, self.sub, self.x0, self.steps)
        return refined, gluing, cert, verdict

    def traced(self, tr):
        refined, gluing = tr.timed("subdivision.refine_to_good", refine_to_good,
                                   self.sub, self.pmap)
        cert = tr.timed("subdivision.is_good", is_good, refined, self.pmap)
        verdict = tr.timed("coding.roundtrip_check", roundtrip_check,
                           self.pmap, self.sub, self.x0, self.steps)
        tr.count("subdivision.refined_letters", len(refined.alphabet))
        tr.count("subdivision.violations", sp.violations(cert))
        tr.count("coding.steps", self.steps)
        walked = sp.walk(tr, self.pmap, self.sub, self.x0, self.steps,
                         refined=refined, gluing=gluing)
        if walked != verdict.mismatch_index:
            raise RuntimeError(f"traced walk mismatch {walked} != roundtrip_check {verdict}")
        return refined, gluing, cert, verdict

    def render(self, result):
        refined, gluing, cert, verdict = result
        return _lines(refined.content_id(), sorted(gluing.mapping.items()), cert, verdict)

    def check(self, result):
        refined, _, cert, verdict = result
        if not isinstance(cert, GoodnessCertificate):
            return "refined subdivision has no is_good certificate"
        if len(refined.alphabet) > alphabet_bound(self.sub, self.pmap):
            return "refined alphabet exceeds components + discontinuities"
        if not verdict.ok:
            return f"round trip failed: {verdict}"
        return None


def setup_roundtrip(rng, size, workdir):
    ops = []
    for i in range(size["instances"]):
        d = 5 if i % 2 == 0 else 0
        pmap, sub, x0 = instances.random_instance(rng, d)
        ops.append(RoundtripOp(f"rt{i}.d{d}", pmap, sub, x0, size["steps"]))
    return ops


# ---------------------------------------------------- long_word_analysis


class WordOp:
    """code one long word, then complexity, recurrence_profile, detect_period."""

    def __init__(self, label, pmap, sub, x0, length, n_max, expect):
        self.label = label
        self.pmap, self.sub, self.x0 = pmap, sub, x0
        self.steps, self.n_max, self.expect = length, n_max, expect
        self.instance = (pmap, sub, x0)

    def run(self):
        word = code(self.pmap, self.sub, self.x0, self.steps)
        return (word, complexity(word, self.n_max),
                recurrence_profile(word, self.n_max), detect_period(word))

    def traced(self, tr):
        word = tr.timed("coding.code", code, self.pmap, self.sub, self.x0, self.steps)
        tr.count("coding.steps", self.steps)
        sp.word_peak(tr, self.pmap, self.sub, self.x0, self.steps)
        walked = sp.walk(tr, self.pmap, self.sub, self.x0, self.steps, expect=word.letters)
        if walked is not None:
            raise RuntimeError(f"traced walk disagrees with code() at letter {walked}")
        return (word,
                tr.timed("analysis.complexity", complexity, word, self.n_max),
                tr.timed("analysis.recurrence_profile", recurrence_profile, word, self.n_max),
                tr.timed("analysis.detect_period", detect_period, word))

    def render(self, result):
        word, comp, rec, period = result
        return _lines(word.text(), comp.values, [(n, str(w)) for n, w in rec.values], period)

    def check(self, result):
        word, comp, _, period = result
        kind, value = self.expect
        counts = [p for _, p in comp.values]
        if kind == "fibonacci" and "".join(word.letters) != value:
            return "golden word differs from the 0->01, 1->0 substitution word"
        if kind in ("fibonacci", "sturmian") and counts != list(range(2, self.n_max + 2)):
            return "rotation word complexity is not n + 1"
        if kind == "iet" and any(p > (value - 1) * n + 1 for n, p in comp.values):
            return f"{value}-interval IET word exceeds p(n) <= {value - 1}n + 1"
        if kind == "rational":
            if not isinstance(period, tuple) or value % period[1]:
                return f"rational rotation period {period} does not divide q = {value}"
        return None


def setup_long_words(rng, size, workdir):
    length, n_max = size["length"], size["n_max"]
    ops = []
    fib = fibonacci_word(length + 500)
    pool5 = point_pool(rng, 5, 32)
    golden, fib_sub = instances.golden_rotation(), instances.fibonacci_partition()
    for v in range(size["variants"]):
        # golden rotation from T^j(alpha): the Fibonacci word shifted by j
        j = 0 if v == 0 else rng.randrange(1, 500)
        x0 = instances.golden_alpha()
        for _ in range(j):
            x0 = golden.apply(x0)
        ops.append(WordOp(f"golden{v}.j{j}", golden, fib_sub, x0, length, n_max,
                          ("fibonacci", fib[j:j + length])))

        # m <= 2 keeps the partial quotients of frac(m sqrt 2) at most 4, so
        # every factor up to n_max shows up within the word
        m = rng.randint(1, 2)
        alpha2 = make_scalar(-isqrt(2 * m * m), 1, m, 1, 2)      # frac(m sqrt 2)
        pmap, sub = rotation_instance(alpha2)
        ops.append(WordOp(f"sqrt2rot{v}.m{m}", pmap, sub, rng.choice(point_pool(rng, 2, 8)),
                          length, n_max, ("sturmian", None)))

        k = rng.randint(3, 4)
        iet = make_iet(rng, 5, k, pool5)
        pmap = iet_to_map(iet)
        sub = convex_subdivision([(p.domain.lo, p.domain.hi) for p in pmap.pieces],
                                 "abcd")
        ops.append(WordOp(f"iet{v}.k{k}", pmap, sub, rng.choice(pool5), length, n_max,
                          ("iet", k)))

        q_hi = min(200, length // 4)          # detect_period needs 3 periods
        alpha, q = rational_angle(rng, 0, q_hi // 4, q_hi)
        pmap, sub = rotation_instance(alpha)
        x0 = ExactScalar.from_rational(Fraction(rng.randrange(997), 997), 0)
        ops.append(WordOp(f"rational{v}.q{q}", pmap, sub, x0, length, n_max,
                          ("rational", q)))
    return ops


# ---------------------------------------------- goodness_large_partition


class PairOp:
    """validate + is_good(sub) + refine_to_good + is_good(refined); no orbits."""

    steps = 0

    def __init__(self, label, pmap, sub):
        self.label = label
        self.pmap, self.sub = pmap, sub
        self.instance = (pmap, sub, ExactScalar.zero(pmap.d))

    def _fresh_map(self):
        # validate() caches its report on the map object; a fresh map keeps
        # every pass doing the same work
        return PiecewiseMap(self.pmap.pieces)

    def run(self):
        pmap = self._fresh_map()
        report = pmap.validate()
        verdict = is_good(self.sub, pmap)
        refined, gluing = refine_to_good(self.sub, pmap)
        return report, verdict, refined, gluing, is_good(refined, pmap)

    def traced(self, tr):
        pmap = self._fresh_map()
        report = tr.timed("intervalmap.validate", pmap.validate)
        tr.timed("intervalmap.discontinuities", pmap.discontinuities)
        tr.timed("subdivision.construct", Subdivision, self.sub.classes)
        verdict = tr.timed("subdivision.is_good", is_good, self.sub, pmap)
        refined, gluing = tr.timed("subdivision.refine_to_good", refine_to_good,
                                   self.sub, pmap)
        cert = tr.timed("subdivision.is_good", is_good, refined, pmap)
        tr.timed("subdivision.construct", Subdivision, refined.classes)
        sp.image_parts(tr, pmap, self.sub)
        sp.endpoint_operands(tr, self.sub)
        tr.count("subdivision.refined_letters", len(refined.alphabet))
        tr.count("subdivision.violations", sp.violations(verdict))
        return report, verdict, refined, gluing, cert

    def render(self, result):
        report, verdict, refined, gluing, cert = result
        shown = verdict if isinstance(verdict, GoodnessCertificate) else "\n".join(map(str, verdict))
        return _lines(report, shown, refined.content_id(),
                      sorted(gluing.mapping.items()), cert)

    def check(self, result):
        report, verdict, refined, _, cert = result
        if not report.ok:
            return f"generated map is invalid: {report}"
        if not isinstance(cert, GoodnessCertificate):
            return "refined subdivision has no is_good certificate"
        if len(refined.alphabet) > alphabet_bound(self.sub, self.pmap):
            return "refined alphabet exceeds components + discontinuities"
        split = sorted(l for l in self.sub.alphabet if len(self.sub.class_of(l)) > 1)
        flagged = [] if isinstance(verdict, GoodnessCertificate) else sorted(
            v.letter for v in verdict if v.kind == "not-convex")
        if flagged != split:
            return f"not-convex violations {flagged} != split classes {split}"
        return None


def setup_partitions(rng, size, workdir):
    ops = []
    for i, k in enumerate(size["k"]):
        components = k + k // 4
        # map cuts and class boundaries come from disjoint halves of one pool,
        # so every discontinuity lies strictly inside a class component and
        # pairs of one size cost about the same
        pool = point_pool(rng, 5, 2 * (k + components))
        rng.shuffle(pool)
        map_pool, sub_pool = sorted(pool[:k + components]), sorted(pool[k + components:])
        if i % 2 == 0:
            pmap = iet_to_map(make_iet(rng, 5, k, map_pool))
        else:
            pmap = make_flip_map(rng, 5, k, map_pool)
        sub = random_subdivision(rng, 5, letter_names(k), components, sub_pool)
        ops.append(PairOp(f"pair{i}.k{k}", pmap, sub))
    return ops


# -------------------------------------------------- cli_quadratic_fields

COMMANDS = ("generate", "check-good", "refine", "roundtrip", "analyze", "to-iet")
WALKING = ("generate", "roundtrip", "analyze")
JSON_COMMANDS = ("refine", "to-iet")        # print JSON even without --json

# field_d = 12 is not squarefree: parse_spec rejects it, exit code 2
MALFORMED = """{"field_d": 12, "map": {"lengths": ["1"], "permutation": [0]},
 "subdivision": {"classes": {"a": [{"lo": "0", "hi": "1"}]}}, "x0": "0", "length": 5}
"""


class CliOp:
    """One in-process `iet-words` invocation on one instance document."""

    def __init__(self, label, command, path, as_json, text, n_max, instance, expected, steps):
        self.label, self.command, self.as_json = label, command, as_json
        self.argv = [command, str(path)]
        if command == "analyze":
            self.argv += ["--nmax", str(n_max)]
        if as_json:
            self.argv.append("--json")
        self.text, self.n_max = text, n_max
        self.instance, self.expected, self.steps = instance, expected, steps

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(self.argv)
        return status, out.getvalue(), err.getvalue()

    def _prints_json(self, out):
        return bool(out) and (self.as_json or self.command in JSON_COMMANDS)

    def traced(self, tr):
        t0 = time.perf_counter()
        result = self.run()
        main_s = time.perf_counter() - t0
        tr.add(f"cli.main.{self.command}", main_s)
        inner, word = sp.replay_cli(tr, self.command, self.text, self.n_max)
        status, out, _ = result
        if self._prints_json(out):
            inner += sp.redump(tr, out)
        tr.add("cli.self", main_s - inner)
        if self.command == "generate" and word is not None:
            pmap, sub, x0 = self.instance
            sp.word_peak(tr, pmap, sub, x0, len(word))
            walked = sp.walk(tr, pmap, sub, x0, len(word), expect=word.letters)
            if walked is not None:
                raise RuntimeError(f"traced walk disagrees with code() at letter {walked}")
        return result

    def render(self, result):
        return _lines(*result)

    def check(self, result):
        status, out, err = result
        if status != self.expected:
            return f"exit code {status}, expected {self.expected}: {err.strip()}"
        if self._prints_json(out) and dumps(json.loads(out)) != out:
            return "JSON output is not canonical"
        if self.command == "roundtrip" and status == 0 and not self.as_json and out != "OK\n":
            return f"roundtrip printed {out!r}"
        return None


def cli_documents(rng, d):
    """Three instances in field d: (kind, spec, is_good, is_translation)."""
    pool = point_pool(rng, d, 16)
    alpha = frac_sqrt(d) if d > 1 else rational_angle(rng, d, 7, 40)[0]
    pmap, sub = rotation_instance(alpha)
    natural = (pmap, sub, None)

    iet = make_iet(rng, d, rng.randint(3, 4), pool)
    # five segments over three letters: some letter gets two components
    split = random_subdivision(rng, d, "ABC", 5, pool)
    exchanged = (iet_to_map(iet), split, iet)

    flip = make_flip_map(rng, d, 3, pool)
    aligned = convex_subdivision([(p.domain.lo, p.domain.hi) for p in flip.pieces], "pqr")
    flipped = (flip, aligned, None)

    docs = []
    for kind, (pmap, sub, form), good, translation in (
            ("rotation", natural, True, True),
            ("iet", exchanged, False, True),
            ("flip", flipped, True, False)):
        docs.append((kind, pmap, sub, rng.choice(pool), form, good, translation))
    return docs


def expected_status(command, good, translation):
    if command == "check-good":
        return 0 if good else 1
    if command == "to-iet":
        return 0 if translation else 1
    return 0


def setup_cli(rng, size, workdir):
    length, n_max = size["length"], size["n_max"]
    entries = []
    for d in size["radicands"]:
        for kind, pmap, sub, x0, form, good, translation in cli_documents(rng, d):
            spec = InstanceSpec(d, pmap, sub, x0, length, form)
            text = dumps(instance_to_json(spec))
            expected = {c: expected_status(c, good, translation) for c in COMMANDS}
            entries.append((f"d{d}.{kind}", text, (pmap, sub, x0), expected, length))
    entries.append(("malformed", MALFORMED, None, dict.fromkeys(COMMANDS, 2), 0))

    ops = []
    for name, text, instance, expected, length in entries:
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            steps = length if command in WALKING else 0
            for as_json in (False, True):
                label = f"{name}.{command}{'.json' if as_json else ''}"
                ops.append(CliOp(label, command, path, as_json, text, n_max,
                                 instance, expected[command], steps))
    return ops


SETUPS = {
    "roundtrip_corpus": setup_roundtrip,
    "long_word_analysis": setup_long_words,
    "goodness_large_partition": setup_partitions,
    "cli_quadratic_fields": setup_cli,
}


def setup(workload, seed, size, workdir):
    """The workload's ops for this seed, built anew each call."""
    return SETUPS[workload](random.Random(f"{workload}:{seed}"), SIZES[size][workload], workdir)


PROBE_STEPS = 120
PROBE_N_MAX = 10


def probe(tr, ops, workdir):
    """Drive every layer once on the workload's first instance.

    Gives a value to the per-layer metrics of layers the workload's own ops
    do not call; the run reports which metrics came from here.
    """
    pmap, sub, x0 = next(op.instance for op in ops if op.instance is not None)
    PairOp("probe", pmap, sub).traced(tr)
    RoundtripOp("probe", pmap, sub, x0, PROBE_STEPS).traced(tr)
    WordOp("probe", pmap, sub, x0, PROBE_STEPS, PROBE_N_MAX, None).traced(tr)
    text = dumps(instance_to_json(InstanceSpec(pmap.d, pmap, sub, x0, PROBE_STEPS)))
    path = workdir / "probe.json"
    path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        for as_json in (False, True):
            CliOp("probe", command, path, as_json, text, PROBE_N_MAX,
                  (pmap, sub, x0), None, 0).traced(tr)
