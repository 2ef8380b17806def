import json

import pytest

from ietwords import (
    IET,
    CorruptMap,
    GluingMap,
    OverlapError,
    PointOutsideDomain,
    SpecError,
    SymbolicWord,
    code,
    dumps,
    format_scalar,
    gluing_from_json,
    gluing_to_json,
    iet_to_json,
    iet_to_map,
    instance_to_json,
    InstanceSpec,
    make_scalar,
    map_from_json,
    map_to_json,
    parse_spec,
    rotation,
    subdivision_from_json,
    subdivision_to_json,
    word_to_json,
)
from ietwords.instances import fibonacci_instance, random_instance

from conftest import q

GOLDEN_DOC = {
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


# -------------------------------------------------------------- roundtrips

def test_map_json_roundtrip(rng):
    for _ in range(15):
        pmap, _, _ = random_instance(rng)
        back, iet = map_from_json(map_to_json(pmap), pmap.d)
        assert back == pmap and iet is None


def test_iet_json_roundtrip():
    iet = IET((q(1, 4), q(1, 4), q(1, 2)), (2, 0, 1))
    doc = iet_to_json(iet)
    assert doc == {"lengths": ["1/4", "1/4", "1/2"], "permutation": [2, 0, 1]}
    pmap, back = map_from_json(doc, 0)
    assert back == iet and pmap == iet_to_map(iet)


def test_subdivision_json_roundtrip(rng):
    for _ in range(15):
        _, sub, _ = random_instance(rng)
        assert subdivision_from_json(subdivision_to_json(sub), sub.d) == sub


def test_subdivision_flag_defaults():
    doc = {"classes": {"A": [{"lo": "0", "hi": "1"}]}}
    sub = subdivision_from_json(doc, 0)
    comp = sub.class_of("A").components[0]
    assert comp.lo_in is True and comp.hi_in is False


def test_a_shared_cut_is_parsed_once():
    # one object per scalar text, so content_id formats a shared cut once;
    # a bad value still fails at its first occurrence
    doc = {"classes": {"A": [{"lo": "0", "hi": "1/3"}], "B": [{"lo": "1/3", "hi": "2/3"}],
                       "C": [{"lo": "2/3", "hi": "1"}]}}
    cells = subdivision_from_json(doc, 0).table.cells
    assert all(a[1][1] is b[0][1] for a, b in zip(cells, cells[1:]))
    for bad in ("1/3+", ["1/3"], 0.5):
        broken = json.loads(json.dumps(doc))
        broken["classes"]["A"][0]["hi"] = broken["classes"]["B"][0]["lo"] = bad
        with pytest.raises(SpecError) as e:
            subdivision_from_json(broken, 0)
        assert path_of(e) == "/subdivision/classes/A/0/hi"


def test_a_shared_map_end_is_parsed_once():
    # a piece's hi and the next piece's lo are one object, as in a
    # subdivision; a bad value still fails at its first occurrence
    doc = {"pieces": [{"lo": "0", "hi": "1/3", "slope": 1, "intercept": "2/3"},
                      {"lo": "1/3", "hi": "1", "slope": -1, "intercept": "4/3"}]}
    left, right = map_from_json(doc, 0)[0].pieces
    assert left.domain.hi is right.domain.lo
    for bad in ("1/3+", ["1/3"], 0.5):
        broken = json.loads(json.dumps(doc))
        broken["pieces"][0]["hi"] = broken["pieces"][1]["lo"] = bad
        with pytest.raises(SpecError) as e:
            map_from_json(broken, 0)
        assert path_of(e) == "/map/pieces/0/hi"


def test_gluing_json_roundtrip():
    g = GluingMap({"A0": "A", "A1": "A"})
    assert gluing_from_json(gluing_to_json(g)).mapping == g.mapping
    with pytest.raises(SpecError):
        gluing_from_json({"A0": 3})
    with pytest.raises(SpecError):
        gluing_from_json([])


def test_word_json_shape(golden):
    R, sub, alpha = golden
    w = code(R, sub, alpha, 8)
    doc = word_to_json(w)
    assert doc["letters"] == list(w.letters)
    assert doc["origin"]["x0"] == format_scalar(alpha)
    assert doc["origin"]["projected"] is False
    assert word_to_json(SymbolicWord(("a",)))["origin"] is None


def test_instance_document_roundtrip():
    spec = parse_spec(json.dumps(GOLDEN_DOC))
    assert spec.field_d == 5 and spec.length == 30 and spec.iet is None
    assert spec.x0 == make_scalar(-1, 2, 1, 2, 5)
    again = parse_spec(instance_to_json(spec))
    assert again.pmap == spec.pmap and again.sub == spec.sub
    assert again.x0 == spec.x0 and again.length == spec.length


def test_instance_document_iet_form():
    doc = {
        "field_d": 0,
        "map": {"lengths": ["1/4", "1/4", "1/2"], "permutation": [2, 0, 1]},
        "subdivision": {"classes": {"A": [{"lo": "0", "hi": "1"}]}},
        "x0": "0",
        "length": 5,
    }
    spec = parse_spec(doc)
    assert spec.iet == IET((q(1, 4), q(1, 4), q(1, 2)), (2, 0, 1))
    assert instance_to_json(spec)["map"] == doc["map"]


def test_fibonacci_instance_parses(golden):
    R, sub, alpha = golden
    spec = fibonacci_instance(100)
    assert spec.pmap == R and spec.sub == sub and spec.x0 == alpha


# ------------------------------------------------------------ spec errors

def path_of(excinfo):
    return excinfo.value.path


def test_parse_spec_bad_json_text():
    with pytest.raises(SpecError) as e:
        parse_spec("{not json")
    assert path_of(e) == "/"


@pytest.mark.parametrize(
    "mangle, path",
    [
        (lambda d: d.pop("field_d"), "/"),
        (lambda d: d.__setitem__("field_d", 12), "/field_d"),
        (lambda d: d.__setitem__("field_d", "5"), "/field_d"),
        (lambda d: d.pop("map"), "/"),
        (lambda d: d.__setitem__("map", {}), "/map"),
        (lambda d: d["map"]["pieces"].__setitem__(0, {}), "/map/pieces/0"),
        (lambda d: d["map"]["pieces"][0].__setitem__("slope", 2),
         "/map/pieces/0/slope"),
        (lambda d: d["map"]["pieces"][0].__setitem__("lo", 0.0),
         "/map/pieces/0/lo"),
        (lambda d: d["map"]["pieces"][0].__setitem__("lo", "zero"),
         "/map/pieces/0/lo"),
        (lambda d: d["subdivision"].__setitem__("classes", {}),
         "/subdivision/classes"),
        (lambda d: d["subdivision"]["classes"].__setitem__("1", []),
         "/subdivision/classes/1"),
        (lambda d: d.__setitem__("x0", 0.25), "/x0"),
        (lambda d: d.__setitem__("x0", "1/2+1/3*sqrt(2)"), "/x0"),
        (lambda d: d.__setitem__("length", 0), "/length"),
        (lambda d: d.__setitem__("length", True), "/length"),
    ],
)
def test_parse_spec_schema_errors(mangle, path):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    mangle(doc)
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert path_of(e) == path


def test_empty_piece_is_a_schema_error():
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["map"]["pieces"][0].update(lo="1/2", hi="1/2")
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert str(e.value) == "/map/pieces/0: need 0 <= lo < hi <= 1, got [1/2, 1/2)"


def test_scalar_parse_position_is_reported():
    doc = json.loads(json.dumps(GOLDEN_DOC))
    doc["x0"] = "1/2+"
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert "position 4" in str(e.value)


def test_domain_problems_keep_their_own_types():
    # schema is fine; the *content* is broken -> not a SpecError
    overlapping = json.loads(json.dumps(GOLDEN_DOC))
    overlapping["subdivision"]["classes"]["0"][0]["lo"] = "1/4"
    with pytest.raises(OverlapError):
        parse_spec(overlapping)

    gap = json.loads(json.dumps(GOLDEN_DOC))
    gap["map"]["pieces"][0]["hi"] = "1/4"
    with pytest.raises(CorruptMap):
        parse_spec(gap)

    outside = json.loads(json.dumps(GOLDEN_DOC))
    outside["x0"] = "1"
    with pytest.raises(PointOutsideDomain):
        parse_spec(outside)


# ------------------------------------------------------------- canonical

def test_dumps_is_deterministic(rng):
    pmap, sub, x0 = random_instance(rng)
    spec = InstanceSpec(pmap.d, pmap, sub, x0, 10)
    first = dumps(instance_to_json(spec))
    second = dumps(instance_to_json(spec))
    assert first == second and first.endswith("\n")
    assert json.loads(first) == instance_to_json(spec)


def test_dumps_sorts_keys():
    text = dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')


def test_no_floats_ever_serialized(golden):
    R, sub, alpha = golden
    spec = InstanceSpec(5, R, sub, alpha, 7)
    blob = instance_to_json(spec)

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(blob)
    walk(map_to_json(rotation(q(1, 3))))
