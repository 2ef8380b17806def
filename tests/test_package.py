"""The package as a whole: its imports, its export list and the README."""

import ast
import hashlib
import os
import pydoc
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import ietwords
from ietwords import (IET, AffinePiece, BoundarySet, Component, ExactScalar, FieldMismatch,
                      GluingMap, HalfOpenInterval, PiecewiseMap, SpecError, Subdivision,
                      SymbolicWord, UnknownLetter, ZeroDenominator, cli, code, complexity,
                      glue_word, interval, iter_code, iter_orbit, make_scalar, orbit, parse_spec,
                      recurrence_profile, recurrence_window, refine_to_good, rotation,
                      roundtrip_check)
from ietwords.exactnum import format_scalar
from ietwords.instances import (fibonacci_partition, golden_alpha, golden_rotation,
                                random_instance, random_rational_instance)
from oracles import fibonacci_word

from conftest import q

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(ietwords.__file__).parent.glob("*.py"))


def test_modules_import_at_top_level():
    # an import cycle should break when the package is imported, not when
    # some function first runs
    nested = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert len(SOURCES) > 1
    assert nested == []


def test_oracles_import_nothing_from_the_package():
    # an oracle that shares code with ietwords would share its faults
    source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [name for name in imported
                             if name.split(".")[0] in ("", "ietwords")], imported


def test_pydoc_lists_every_public_name():
    names = ietwords.__all__
    assert names == sorted(names)
    public = {name for name, value in vars(ietwords).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(names) == public
    # pydoc shows a name imported from a submodule only when __all__ lists it
    text = pydoc.render_doc(ietwords, renderer=pydoc.plaintext)
    for name in names:
        assert re.search(rf"^    (class )?{name}\b", text, re.M), name
    # nor does it show a private name in the class tree or as a base class
    tree = text.split("\nCLASSES\n", 1)[1].split("\n    class ", 1)[0]
    assert "ietwords.analysis.ComplexityProfile" in tree
    assert not re.search(r"[\s.(]_", tree), tree
    assert not re.search(r"^    class \w+\([^)]*\b_", text, re.M)


def test_public_names_are_these():
    # adding or removing a public name is an API change: it shows up here
    assert ietwords.__all__ == [
        "APERIODIC_AT_SCALE", "AffinePiece", "BoundarySet", "ComplexityProfile", "Component",
        "CorruptMap", "CoverageGapError", "ExactScalar", "FieldMismatch", "GluingMap",
        "GoodnessCertificate", "GoodnessViolation", "HalfOpenInterval", "IET", "InstanceSpec",
        "NOT_RECURRENT_AT_SCALE", "NonSquarefreeRadicand", "NotBijective",
        "NotTranslationPiecewise", "OK", "OutOfExpectedRange", "OutsideUnitIntervalError",
        "OverlapError", "ParseError", "PiecewiseMap", "PointOutsideDomain", "PrefixTooShort",
        "RecurrenceProfile", "RoundtripResult", "SpecError", "Subdivision", "SymbolicWord", "UnknownLetter",
        "WordOrigin", "ZeroDenominator", "code", "complexity", "detect_period", "dumps",
        "format_scalar", "glue_word", "gluing_from_json", "identity_map", "iet_to_json",
        "iet_to_map", "instance_to_json", "interval", "is_good", "iter_code", "iter_orbit",
        "make_scalar", "map_from_json", "map_to_json", "mod1", "orbit", "parse_scalar",
        "parse_spec", "recurrence_profile", "recurrence_window", "refine_to_good", "rotation",
        "roundtrip_check", "subdivision_from_json", "subdivision_to_json", "to_iet",
        "word_to_json",
    ]


def test_rarely_reached_lines_keep_their_output(tmp_path, capsys):
    # one line per output or refusal that only the demos, or nothing else
    # in the suite, reaches
    third = rotation(q(1, 3))
    sub = Subdivision({"A": interval(q(0), q(1, 2)), "B": interval(q(1, 2), q(1))})
    word = code(third, sub, q(0), 13)
    glued = glue_word(word, GluingMap({"A": "X", "B": "X"}))
    doc = tmp_path / "third.json"
    doc.write_text('{"field_d": 0, "map": {"lengths": ["2/3", "1/3"], "permutation": [1, 0]},'
                   ' "subdivision": {"classes": {"A": [{"lo": "0", "hi": "1/2"}],'
                   ' "B": [{"lo": "1/2", "hi": "1"}]}}, "x0": "0", "length": 12}')
    assert cli.main(["analyze", str(doc)]) == 0
    analyzed = capsys.readouterr().out.splitlines()
    cases = [
        (lambda: code(third, sub, q(0), 0), (ValueError, "need n >= 1")),
        (lambda: type(glued), SymbolicWord),
        (lambda: (glued.letters, glued.origin.projected, word.origin.projected),
         (("X",) * 13, True, False)),
        (lambda: glued.origin == replace(word.origin, projected=True), True),
        (lambda: repr(word), "SymbolicWord(13 letters: A A B A A B A A B A A B ...)"),
        (lambda: make_scalar(1, 2, 1, -2, 5) == make_scalar(1, 2, -1, 2, 5), True),
        (lambda: repr(make_scalar(1, 2, 1, -2, 5)), "ExactScalar('1/2-1/2*sqrt(5)', d=5)"),
        (lambda: analyzed[-1], "period: preperiod 0, period 3"),
        (lambda: repr(BoundarySet([Component(q(0), False, q(1, 4), True),
                                   Component(q(1, 2), True, q(1, 2), True)])),
         "BoundarySet((0, 1/4] u [1/2, 1/2])"),
        (lambda: repr(sub), "Subdivision({A: BoundarySet([0, 1/2)), B: BoundarySet([1/2, 1))})"),
        (lambda: repr(GluingMap({"B": "X", "A": "X"})), "GluingMap(A->X, B->X)"),
        (lambda: str(UnknownLetter("Z")), "letter 'Z' is not in the gluing domain"),
    ]
    for call, expected in cases:
        try:
            got = call()
        except Exception as e:
            got = type(e), str(e)
        assert got == expected, (got, expected)


def test_refusals_keep_their_types_and_messages():
    # one line per refusal that the rest of the suite leaves unexercised
    half = {d: ExactScalar.from_rational(Fraction(1, 2), d) for d in (0, 5)}
    one = {d: ExactScalar.one(d) for d in (0, 5)}
    piece = {d: AffinePiece(HalfOpenInterval(ExactScalar.zero(d), one[d]), 1, ExactScalar.zero(d))
             for d in (0, 5)}
    golden, fib, alpha = golden_rotation(), fibonacci_partition(), golden_alpha()
    iet_doc = {"field_d": 0, "map": {"lengths": ["1"], "permutation": 0},
               "subdivision": {"classes": {"A": [{"lo": "0", "hi": "1"}]}}, "x0": "0", "length": 1}
    cases = [
        (lambda: ExactScalar(1, 0, 0, 5), ZeroDenominator, "denominator is zero"),
        (lambda: ExactScalar(1, 0, 3, 0).on_lattice(4), ValueError,
         "4 is not a multiple of the denominator 3"),
        (lambda: PiecewiseMap([]), ValueError, "a map needs at least one piece"),
        (lambda: PiecewiseMap([piece[0], piece[5]]), FieldMismatch,
         "pieces from different field contexts"),
        (lambda: AffinePiece(piece[0].domain, 1, half[5]), FieldMismatch,
         "intercept from a different field context"),
        (lambda: IET((one[0],), (0, 1)), ValueError, "lengths and permutation sizes differ"),
        (lambda: IET((half[0], half[5]), (0, 1)), FieldMismatch,
         "lengths from different field contexts"),
        (lambda: IET((), ()), ValueError, "an IET needs at least one interval"),
        (lambda: IET((Fraction(1, 2), Fraction(1, 2)), (1, 0)), TypeError,
         "length 0 must be an ExactScalar, got Fraction"),
        (lambda: rotation(0), TypeError, "angle must be an ExactScalar, got int"),
        (lambda: Subdivision({}), ValueError, "a subdivision needs at least one class"),
        (lambda: Subdivision({"A": interval(ExactScalar.zero(0), half[0]),
                              "B": interval(half[5], one[5])}),
         FieldMismatch, "class endpoints from different field contexts"),
        (lambda: GluingMap({}), ValueError, "empty gluing map"),
        (lambda: refine_to_good(Subdivision({"A": interval(ExactScalar.zero(5), one[5])}),
                                rotation(half[0])),
         FieldMismatch, "subdivision and map use different field contexts"),
        (lambda: parse_spec("[]"), SpecError, "/: expected a JSON object"),
        (lambda: parse_spec(iet_doc), SpecError, "/map/permutation: expected an array"),
        (lambda: BoundarySet().sample_point(), ValueError, "empty set has no points"),
        (lambda: recurrence_window("a b a b", 0), ValueError, "need n >= 1"),
        # lengths and depths are ints; iter_code and iter_orbit also take 0
        (lambda: list(iter_code(golden, fib, alpha, -1)), ValueError, "need n >= 0"),
        (lambda: list(iter_orbit(golden, alpha, -1)), ValueError, "need n >= 0"),
        (lambda: list(iter_code(golden, fib, alpha, 2.5)), TypeError,
         "n must be an integer, got float"),
        (lambda: code(golden, fib, alpha, 2.5), TypeError, "n must be an integer, got float"),
        (lambda: orbit(golden, alpha, 2.5), TypeError, "n must be an integer, got float"),
        (lambda: roundtrip_check(golden, fib, alpha, 2.5), TypeError,
         "n must be an integer, got float"),
        (lambda: complexity("a b a b", 2.5), TypeError, "n_max must be an integer, got float"),
        (lambda: recurrence_window("a b a b", 2.5), TypeError, "n must be an integer, got float"),
        (lambda: recurrence_profile("a b a b " * 2, 2.5), TypeError,
         "n_max must be an integer, got float"),
        # bool is an int subclass, but not a count; nor is a wrap width of
        # another type
        (lambda: complexity(["a"] * 3, True), TypeError, "n_max must be an integer, got bool"),
        (lambda: recurrence_window("a b a b", True), TypeError, "n must be an integer, got bool"),
        (lambda: code(golden, fib, alpha, True), TypeError, "n must be an integer, got bool"),
        (lambda: list(iter_orbit(golden, alpha, False)), TypeError,
         "n must be an integer, got bool"),
        (lambda: SymbolicWord("ab").text(wrap=True), TypeError,
         "wrap must be an integer, got bool"),
        (lambda: SymbolicWord("ab").text(wrap=2.5), TypeError,
         "wrap must be an integer, got float"),
        (lambda: SymbolicWord("ab").text(wrap="2"), TypeError,
         "wrap must be an integer, got str"),
    ]
    for call, kind, message in cases:
        try:
            call()
        except Exception as e:
            assert (type(e), str(e)) == (kind, message)
        else:
            raise AssertionError(f"no {kind.__name__}: {message}")
    # a negative denominator is moved into the numerators, and so is its sign
    assert ExactScalar(1, 1, -2, 5) == ExactScalar(-1, -1, 2, 5)
    assert ExactScalar(1, 1, -2, 5).denominator == 2
    assert repr(BoundarySet()) == "BoundarySet(empty)"


def test_seeded_instances_stay_the_same():
    # the content ids and start points that seeds 0-49 draw, hashed; a
    # change to how instances draws a map, a subdivision or a start point
    # changes every seeded test and benchmark that reads them
    lines = []
    for seed in range(50):
        for d in (0, 5):
            pmap, sub, x0 = random_instance(random.Random(seed), d)
            lines.append(f"{pmap.content_id()} {sub.content_id()} {format_scalar(x0)}")
        pmap, sub, x0, q = random_rational_instance(random.Random(seed))
        lines.append(f"{pmap.content_id()} {sub.content_id()} {format_scalar(x0)} {q}")
    assert lines[:3] == ["map:d7cec747d930 sub:4ccec7c7ccf3 1/8",
                         "map:a778a31db023 sub:1af9965490e1 13/56",
                         "map:4bea705b6c83 sub:4a1cfe7dd79d 1/16 16"]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f155922813eafd36c92a84bfa0fe163bc9b9f7e073772f50c47a40a9e4a1aa3f"


def test_readme_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    source = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", source], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    word, good, roundtrip = done.stdout.splitlines()
    assert word.split() == list(fibonacci_word(30))
    assert good.startswith("good for map:")
    assert roundtrip == "OK"
