import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ietwords
from ietwords import (GoodnessViolation, PiecewiseMap, Subdivision, cli, code, coding, dumps,
                      parse_spec, word_to_json)
from ietwords.cli import main

GOLDEN = {
    "field_d": 5,
    "map": {
        "pieces": [
            {"lo": "0", "hi": "3/2-1/2*sqrt(5)", "slope": 1,
             "intercept": "-1/2+1/2*sqrt(5)"},
            {"lo": "3/2-1/2*sqrt(5)", "hi": "1", "slope": 1,
             "intercept": "-3/2+1/2*sqrt(5)"},
        ]
    },
    "subdivision": {
        "classes": {
            "1": [{"lo": "0", "hi": "3/2-1/2*sqrt(5)"}],
            "0": [{"lo": "3/2-1/2*sqrt(5)", "hi": "1"}],
        }
    },
    "x0": "-1/2+1/2*sqrt(5)",
    "length": 30,
}


@pytest.fixture
def golden_spec(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return str(path)


@pytest.fixture
def coarse_spec(tmp_path):
    doc = json.loads(json.dumps(GOLDEN))
    doc["subdivision"] = {"classes": {"A": [{"lo": "0", "hi": "1"}]}}
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- generate

def test_generate_text(capsys, golden_spec):
    rc, out, _ = run(capsys, "generate", golden_spec)
    assert rc == 0
    assert out.split() == list("010010100100101001010010010100")


def test_generate_json_and_length_override(capsys, golden_spec):
    rc, out, _ = run(capsys, "generate", golden_spec, "--length", "8", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["letters"] == list("01001010")
    assert doc["origin"]["length"] == 8


def test_generate_wraps_long_words(capsys, golden_spec):
    rc, out, _ = run(capsys, "generate", golden_spec, "--length", "200")
    assert rc == 0
    lines = out.strip("\n").split("\n")
    assert [len(line.split()) for line in lines] == [80, 80, 40]


@pytest.mark.parametrize("length", [1, 79, 80, 81, 160])
def test_generate_text_streams_the_wrapped_word(capsys, golden_spec, monkeypatch, length):
    spec = parse_spec(json.dumps(GOLDEN))
    expected = code(spec.pmap, spec.sub, spec.x0, length).text(wrap=80) + "\n"

    def no_whole_word(*args):
        raise AssertionError("the text path builds the whole word")

    monkeypatch.setattr(coding, "SymbolicWord", no_whole_word)
    rc, out, _ = run(capsys, "generate", golden_spec, "--length", str(length))
    assert rc == 0 and out == expected


@pytest.mark.parametrize("length", [1, 2, 3, 10_000])
def test_generate_json_streams_the_word(capsys, tmp_path, monkeypatch, length):
    # 10^4 letters cross the chunk of letters written at once and the
    # stream's buffer; the second document's letters need escaping
    quoted = json.loads(json.dumps(GOLDEN))
    classes = quoted["subdivision"]["classes"]
    classes['a"b'], classes["ö"] = classes.pop("0"), classes.pop("1")
    for doc in (GOLDEN, quoted):
        spec = parse_spec(json.dumps(doc))
        expected = dumps(word_to_json(code(spec.pmap, spec.sub, spec.x0, length)))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with monkeypatch.context() as patch:
            patch.setattr(coding, "SymbolicWord", None)
            rc, out, _ = run(capsys, "generate", str(path), "--length", str(length), "--json")
        assert rc == 0 and out == expected


def test_nonpositive_lengths_are_errors(capsys, golden_spec):
    for command in ("generate", "roundtrip", "analyze"):
        for length in ("0", "-3"):
            rc, out, err = run(capsys, command, golden_spec, "--length", length)
            assert (rc, out, err) == (1, "", "error: need n >= 1\n"), (command, length)


# -------------------------------------------------------------- check-good

def test_check_good_pass(capsys, golden_spec):
    rc, out, _ = run(capsys, "check-good", golden_spec)
    assert rc == 0 and "good" in out.lower()
    rc, out, _ = run(capsys, "check-good", golden_spec, "--json")
    assert rc == 0 and json.loads(out)["good"] is True


def test_check_good_violations(capsys, coarse_spec):
    rc, out, _ = run(capsys, "check-good", coarse_spec)
    assert rc == 1
    assert out.startswith("violation:") and "'A'" in out
    rc, out, _ = run(capsys, "check-good", coarse_spec, "--json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["good"] is False
    assert doc["violations"][0]["kind"] == "shared-image-color"
    assert len(doc["violations"][0]["witness"]) == 2


def test_check_good_writes_nothing_before_an_error(capsys, tmp_path, monkeypatch):
    # a reversal of three thirds has two cuts inside the one class, so two
    # violations; formatting the second fails, as a number past Python's
    # digit limit does, and the first must not have been written
    doc = {"field_d": 0, "map": {"lengths": ["1/3", "1/3", "1/3"], "permutation": [2, 1, 0]},
           "subdivision": {"classes": {"A": [{"lo": "0", "hi": "1"}]}},
           "x0": "0", "length": 5}
    path = tmp_path / "two-violations.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "check-good", str(path))
    assert rc == 1 and out.count("violation: ") == 2
    calls = []
    real_str = GoodnessViolation.__str__

    def fails_second(v):
        calls.append(v)
        if len(calls) == 2:
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")
        return real_str(v)

    monkeypatch.setattr(GoodnessViolation, "__str__", fails_second)
    rc, out, err = run(capsys, "check-good", str(path))
    assert rc == 1 and out == "" and len(calls) == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------------------ refine

def test_refine_emits_subdivision_and_gluing(capsys, coarse_spec):
    rc, out, _ = run(capsys, "refine", coarse_spec)
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc["subdivision"]["classes"]) == ["A0", "A1"]
    assert doc["gluing"] == {"A0": "A", "A1": "A"}


# --------------------------------------------------------------- roundtrip

def test_roundtrip_ok(capsys, golden_spec, coarse_spec):
    rc, out, _ = run(capsys, "roundtrip", golden_spec)
    assert rc == 0 and out == "OK\n"
    rc, out, _ = run(capsys, "roundtrip", coarse_spec, "--json")
    assert rc == 0 and json.loads(out) == {"ok": True, "mismatch_index": None}


# ----------------------------------------------------------------- analyze

def test_analyze_text(capsys, golden_spec):
    rc, out, _ = run(capsys, "analyze", golden_spec, "--length", "120",
                     "--nmax", "5")
    assert rc == 0
    assert "complexity" in out and "recurrence" in out
    assert "period: APERIODIC_AT_SCALE" in out


def test_analyze_json(capsys, golden_spec):
    rc, out, _ = run(capsys, "analyze", golden_spec, "--length", "120",
                     "--nmax", "5", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["prefix_length"] == 120
    assert doc["complexity"] == [[n, n + 1] for n in range(1, 6)]
    assert all(isinstance(w, int) for _, w in doc["recurrence"])
    assert doc["period"] == "APERIODIC_AT_SCALE"


def test_analyze_rejects_a_depth_below_one(capsys, golden_spec):
    for flags in ((), ("--json",)):
        rc, out, err = run(capsys, "analyze", golden_spec, "--nmax", "0", *flags)
        assert (rc, out, err) == (1, "", "error: need n_max >= 1\n")


def long_iet_document(path):
    """An IET in Q(sqrt 5) with the 20 lengths 1/20 +- 1/D_j, for distinct
    2000-digit D_j, and a shuffled permutation: about 80 KB, but its
    intercepts have more digits than a number may be formatted with."""
    lengths = [str(Fraction(1, 20) + sign * Fraction(1, 10**1999 + j))
               for j in range(10) for sign in (1, -1)]
    permutation = list(range(20))
    random.Random(0).shuffle(permutation)
    doc = {
        "field_d": 5,
        "map": {"lengths": lengths, "permutation": permutation},
        "subdivision": {"classes": {"a": [{"lo": "0", "hi": "1/2"}],
                                    "b": [{"lo": "1/2", "hi": "1"}]}},
        "x0": "0",
        "length": 10,
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_formats_no_content_ids(capsys, tmp_path, monkeypatch, golden_spec):
    # analyze prints no map or subdivision id, so it builds none, and the
    # digit limit on formatted numbers does not reach it
    expected = [run(capsys, "analyze", golden_spec, *flags) for flags in ((), ("--json",))]

    def no_ids(self):
        raise AssertionError("analyze builds a content id")

    monkeypatch.setattr(PiecewiseMap, "content_id", no_ids)
    monkeypatch.setattr(Subdivision, "content_id", no_ids)
    assert [run(capsys, "analyze", golden_spec, *flags) for flags in ((), ("--json",))] == expected
    monkeypatch.undo()
    path = long_iet_document(tmp_path / "long-iet.json")
    for flags in ((), ("--json",)):
        rc, out, err = run(capsys, "analyze", path, *flags)
        assert (rc, err) == (0, "") and "prefix" in out


def test_analyze_periodic_instance(capsys, tmp_path):
    doc = {
        "field_d": 0,
        "map": {"lengths": ["2/3", "1/3"], "permutation": [1, 0]},
        "subdivision": {"classes": {
            "A": [{"lo": "0", "hi": "2/3"}],
            "B": [{"lo": "2/3", "hi": "1"}],
        }},
        "x0": "0",
        "length": 60,
    }
    path = tmp_path / "third.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "analyze", str(path), "--nmax", "4", "--json")
    assert rc == 0
    assert json.loads(out)["period"] == [0, 3]


# ------------------------------------------------------------------ to-iet

def test_to_iet(capsys, golden_spec):
    rc, out, _ = run(capsys, "to-iet", golden_spec)
    assert rc == 0
    doc = json.loads(out)
    assert doc["permutation"] == [1, 0]
    assert doc["lengths"] == ["3/2-1/2*sqrt(5)", "-1/2+1/2*sqrt(5)"]


def test_to_iet_rejects_reflections(capsys, tmp_path):
    doc = {
        "field_d": 0,
        "map": {"pieces": [{"lo": "0", "hi": "1", "slope": -1,
                            "intercept": "1"}]},
        "subdivision": {"classes": {"A": [{"lo": "0", "hi": "1"}]}},
        "x0": "0",
        "length": 4,
    }
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "to-iet", str(path))
    assert rc == 1 and "error:" in err


# ------------------------------------------------------------- error paths

def test_exit_2_on_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "generate", str(tmp_path / "nope.json"))
    assert rc == 2 and "cannot read" in err


def test_exit_2_on_bad_json(capsys, tmp_path):
    # besides a syntax error: an integer literal past Python's 4300-digit
    # limit, and nesting past the recursion limit
    path = tmp_path / "bad.json"
    for text in ("{broken", '{"field_d": ' + "1" * 5000 + "}", "[" * 100_000):
        path.write_text(text)
        rc, _, err = run(capsys, "generate", str(path))
        assert rc == 2 and err.startswith("spec error: /: invalid JSON"), text[:20]


def test_exit_2_on_schema_error(capsys, tmp_path):
    # 1.0 and true compare equal to 1 but are not integer slopes
    for slope in (2, 1.0, True):
        doc = json.loads(json.dumps(GOLDEN))
        doc["map"]["pieces"][1]["slope"] = slope
        path = tmp_path / "slope.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "generate", str(path))
        assert rc == 2 and "/map/pieces/1/slope" in err, slope


def test_exit_1_on_domain_error(capsys, tmp_path):
    doc = json.loads(json.dumps(GOLDEN))
    doc["x0"] = "1"
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "generate", str(path))
    assert rc == 1 and "outside [0, 1)" in err


def test_exit_1_on_broken_partitions(capsys, tmp_path):
    cases = [
        ({"a": [{"lo": "0", "hi": "1/2"}],
          "b": [{"lo": "1/2", "hi": "1", "lo_in": False}]}, "no class covers 1/2"),
        ({"a": [{"lo": "-1/2", "hi": "1/2"}],
          "b": [{"lo": "1/2", "hi": "1"}]}, "class 'a' extends beyond [0, 1)"),
    ]
    for classes, message in cases:
        doc = json.loads(json.dumps(GOLDEN))
        doc["subdivision"] = {"classes": classes}
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "check-good", str(path))
        assert rc == 1 and err == f"error: {message}\n"


def test_exit_1_on_letters_that_are_not_single_tokens(capsys, tmp_path):
    # "a b" and "" would make generate's text output ambiguous
    doc = json.loads(json.dumps(GOLDEN))
    doc["subdivision"] = {"classes": {"a b": [{"lo": "0", "hi": "1/2"}],
                                      "": [{"lo": "1/2", "hi": "1"}]}}
    path = tmp_path / "letters.json"
    path.write_text(json.dumps(doc))
    for command in ("check-good", "generate"):
        rc, out, err = run(capsys, command, str(path))
        assert rc == 1 and out == "" and err.startswith("error: letter "), command


def test_exit_2_on_oversized_radicands(capsys, tmp_path):
    # trial division on either radicand would run for hours
    huge = 10**22 + 9
    doc = json.loads(json.dumps(GOLDEN))
    doc["x0"] = f"0+1*sqrt({huge})"
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "generate", str(path))
    assert rc == 2 and "/x0" in err and "radicand exceeds" in err
    doc = json.loads(json.dumps(GOLDEN))
    doc["field_d"] = huge
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "generate", str(path))
    assert rc == 2 and "/field_d" in err


def test_exit_2_on_overlong_digit_runs(capsys, tmp_path):
    # int() refuses strings of more than 4300 digits with a bare ValueError
    doc = json.loads(json.dumps(GOLDEN))
    doc["x0"] = "1/" + "1" * 5000
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "generate", str(path))
    assert rc == 2 and "/x0" in err and "digits" in err


def test_exit_2_when_spec_missing(capsys):
    rc, _, err = run(capsys, "generate")
    assert rc == 2 and "needs a spec" in err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_closed_stdout_exits_141_quietly(golden_spec):
    # `iet-words generate ... | head -c 5`: 10**5 letters overflow the pipe,
    # so the write after the reader has gone fails with a broken pipe
    package_root = str(Path(ietwords.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from ietwords.cli import main; sys.exit(main())",
         "generate", golden_spec, "--length", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(5) == b"0 1 0"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# ------------------------------------------------------------ determinism

def test_outputs_are_byte_deterministic(capsys, golden_spec):
    pairs = []
    for _ in range(2):
        _, out, _ = run(capsys, "refine", golden_spec)
        pairs.append(out)
    assert pairs[0] == pairs[1]
    for _ in range(2):
        _, out, _ = run(capsys, "analyze", golden_spec, "--json")
        pairs.append(out)
    assert pairs[2] == pairs[3]


def test_back_to_back_calls_start_from_the_defaults(capsys, golden_spec):
    # one parser serves every call in a process; no flag may carry over
    _, as_json, _ = run(capsys, "check-good", golden_spec, "--json")
    _, text, _ = run(capsys, "check-good", golden_spec)
    assert json.loads(as_json)["good"] is True
    assert text.startswith("good for ")
    _, short, _ = run(capsys, "generate", golden_spec, "--length", "5")
    _, default, _ = run(capsys, "generate", golden_spec)
    assert short.split() == list("01001")
    assert len(default.split()) == GOLDEN["length"]


def test_selftest_passes(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)
