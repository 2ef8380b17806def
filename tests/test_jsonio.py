import json
from collections import Counter
from math import isqrt

import pytest

from ietwords import intervalmap, intervalsets, jsonio
from ietwords import (
    IET,
    BoundarySet,
    CorruptMap,
    CoverageGapError,
    ExactScalar,
    GluingMap,
    OverlapError,
    PiecewiseMap,
    PointOutsideDomain,
    SpecError,
    Subdivision,
    SymbolicWord,
    code,
    dumps,
    format_scalar,
    gluing_from_json,
    iet_to_json,
    iet_to_map,
    instance_to_json,
    interval,
    InstanceSpec,
    make_scalar,
    map_from_json,
    map_to_json,
    parse_spec,
    refine_to_good,
    rotation,
    subdivision_from_json,
    subdivision_to_json,
    word_to_json,
)
from ietwords.instances import (fibonacci_instance, random_iet, random_instance,
                                random_piecewise_map, random_point, random_subdivision)

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


@pytest.mark.parametrize("d", [0, 2, 5, 4000037])
def test_generated_documents_redump_to_their_own_bytes(rng, d):
    # alpha = frac(sqrt d) puts radicals in the map, the cells and x0
    alpha = make_scalar(-isqrt(d), 1, 1, 1, d) if d > 1 else q(2, 7, d)
    one = ExactScalar.one(d)
    for i in range(12):
        if i % 3 == 0:
            pmap, form = rotation(alpha), None
        elif i % 3 == 1:
            form = IET((alpha, one - alpha), (1, 0)) if i % 2 else random_iet(rng, d)
            pmap = iet_to_map(form)
        else:
            pmap, form = random_piecewise_map(rng, d), None
        if i % 2:
            sub = random_subdivision(rng, d)
        else:
            sub = Subdivision({"a": interval(ExactScalar.zero(d), alpha),
                               "b": interval(alpha, one)})
        x0 = alpha if i % 4 == 0 else random_point(rng, d)
        text = dumps(instance_to_json(InstanceSpec(d, pmap, sub, x0, 7 + i, form)))
        assert dumps(instance_to_json(parse_spec(text))) == text


def test_each_interval_is_keyed_once(rng, monkeypatch):
    # an interval's keys come from the one check that builds it and are
    # kept: a map reads its domains' keys, and sets and the writer build
    # components from ranges checked before
    maps, iets, subs = [], [], []
    for d in (0, 2, 5):
        for _ in range(5):
            maps.append(random_piecewise_map(rng, d))
            iets.append(random_iet(rng, d))
            pmap, sub, _ = random_instance(rng, d)
            subs += [sub, refine_to_good(sub, pmap)[0]]
        intervalsets._unit_keys(d)                  # cached before counting
    docs = [(map_to_json(m), m.d, len(m)) for m in maps]
    docs += [(iet_to_json(iet), iet.d, len(iet.lengths)) for iet in iets]
    calls = []

    def count(owner, name):
        function = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for module in (intervalsets, intervalmap, jsonio):
        count(module, "key_range")
    count(intervalsets, "key")
    for doc, d, n in docs:
        calls.clear()
        pmap, _ = map_from_json(doc, d)
        assert Counter(calls) == {"key_range": n, "key": 2 * n}
        calls.clear()
        assert PiecewiseMap(pmap.pieces) == pmap and calls == []
    count(ExactScalar, "_cmp")
    calls.clear()
    for sub in subs:
        sets = list(sub.classes.values())
        for bset in sets + [BoundarySet(c for s in sets for c in s.components)]:
            assert len(bset.components) == len(bset)
        subdivision_to_json(sub)
    assert calls == []


def test_gluing_json_roundtrip():
    g = GluingMap({"A0": "A", "A1": "A"})
    assert gluing_from_json(g.mapping).mapping == g.mapping
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


def share(doc, text):
    """Put one text at a map end, at a class end and at x0."""
    doc["map"]["pieces"][0]["hi"] = doc["map"]["pieces"][1]["lo"] = text
    classes = doc["subdivision"]["classes"]
    classes["1"][0]["hi"] = classes["0"][0]["lo"] = doc["x0"] = text


IET_DOC = {
    "field_d": 0,
    "map": {"lengths": ["1/4", "1/4", "1/2"], "permutation": [2, 0, 1]},
    "subdivision": {"classes": {"A": [{"lo": "0", "hi": "1/2"}], "B": [{"lo": "1/2", "hi": "1"}]}},
    "x0": "1/4",
    "length": 5,
}

# (document, mangle, exception type, SpecError path or None, message):
# schema problems are SpecErrors with a path, domain problems keep their
# own exception types
MALFORMED = [
    (GOLDEN_DOC, lambda d: d.update(field_d=4),
     SpecError, '/field_d', 'radicand 4 is not squarefree'),
    (GOLDEN_DOC, lambda d: d.update(field_d=10**12 + 1),
     SpecError, '/field_d', 'expected an integer <= 1000000000000, got 1000000000001'),
    (GOLDEN_DOC, lambda d: d.update(field_d=-1),
     SpecError, '/field_d', 'expected an integer >= 0, got -1'),
    (GOLDEN_DOC, lambda d: d.update(map=[]),
     SpecError, '/map', 'expected an object, got list'),
    (GOLDEN_DOC, lambda d: d["map"].update(pieces=[]),
     SpecError, '/map/pieces', 'expected a nonempty array'),
    (GOLDEN_DOC, lambda d: d["map"].pop("pieces"),
     SpecError, '/map', "expected either a 'pieces' or a 'lengths' description"),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"].__setitem__(0, "x"),
     SpecError, '/map/pieces/0', 'expected an object, got str'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][1].pop("lo"),
     SpecError, '/map/pieces/1', "missing key 'lo'"),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(hi="1/2+"),
     SpecError, '/map/pieces/0/hi', 'bad scalar at position 4: expected a digit'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(hi="1/" + "1" * 5000),
     SpecError, '/map/pieces/0/hi', 'bad scalar at position 2: more than 4300 digits'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(intercept="1/0"),
     SpecError, '/map/pieces/0/intercept', 'zero denominator at position 3'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(lo="0+1*sqrt(3)"),
     SpecError, '/map/pieces/0/lo', "scalar '0+1*sqrt(3)' lives in sqrt(3), instance uses sqrt(5)"),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(lo="0+1*sqrt(8)"),
     SpecError, '/map/pieces/0/lo', 'radicand 8 is not squarefree'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(lo=0),
     SpecError, '/map/pieces/0/lo', 'scalars are grammar strings, got int'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(slope=True),
     SpecError, '/map/pieces/0/slope', 'slope must be 1 or -1, got True'),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(hi="3/2"),
     SpecError, '/map/pieces/0', 'need 0 <= lo < hi <= 1, got [0, 3/2)'),
    (GOLDEN_DOC, lambda d: d.update(subdivision=[]),
     SpecError, '/subdivision', 'expected an object, got list'),
    (GOLDEN_DOC, lambda d: d["subdivision"].update(classes=[]),
     SpecError, '/subdivision/classes', 'expected a nonempty object'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"].update({"1": {}}),
     SpecError, '/subdivision/classes/1', 'expected a nonempty array of intervals'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"]["1"][0].update(lo_in=1),
     SpecError, '/subdivision/classes/1/0/lo_in', 'expected a boolean, got int'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"]["1"][0].update(hi="0"),
     SpecError, '/subdivision/classes/1/0', 'a single point needs both endpoints included'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"]["1"][0].update(lo="1/2"),
     SpecError, '/subdivision/classes/1/0', 'empty component: lo 1/2 > hi 3/2-1/2*sqrt(5)'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"]["0"][0].update(hi="3/2", hi_in=True),
     ValueError, None, "class '0' extends beyond [0, 1)"),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"]["0"][0].update(lo="1/4"),
     OverlapError, None, '1 and 0 overlap at 1/4'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"]["1"][0].update(hi="1/4"),
     CoverageGapError, None, 'no class covers 1/4'),
    (GOLDEN_DOC, lambda d: d["subdivision"]["classes"].update(
        {"a b": d["subdivision"]["classes"].pop("1")}),
     ValueError, None, "letter 'a b' is not one token without whitespace"),
    (GOLDEN_DOC, lambda d: d["map"]["pieces"][0].update(hi="1/4"),
     CorruptMap, None, 'coverage-gap: nothing covers [1/4, 3/2-1/2*sqrt(5))'),
    (GOLDEN_DOC, lambda d: d.update(x0="1"),
     PointOutsideDomain, None, 'x0 = 1 outside [0, 1)'),
    (GOLDEN_DOC, lambda d: d.pop("x0"),
     SpecError, '/', "missing key 'x0'"),
    (GOLDEN_DOC, lambda d: d.update(x0=""),
     SpecError, '/x0', 'bad scalar at position 0: expected a digit'),
    (GOLDEN_DOC, lambda d: d.update(x0="0+1*sqrt(10000000000000000000009)"),
     SpecError, '/x0', 'bad scalar at position 9: radicand exceeds 1000000000000'),
    (GOLDEN_DOC, lambda d: d.update(length=0),
     SpecError, '/length', 'expected an integer >= 1, got 0'),
    (GOLDEN_DOC, lambda d: share(d, "1/3+"),
     SpecError, '/map/pieces/0/hi', 'bad scalar at position 4: expected a digit'),
    (GOLDEN_DOC, lambda d: share(d, 0.5),
     SpecError, '/map/pieces/0/hi', 'scalars are grammar strings, got float'),
    (IET_DOC, lambda d: d["map"].update(lengths=["1/2", "1/2", "1/0"]),
     SpecError, '/map/lengths/2', 'zero denominator at position 3'),
    (IET_DOC, lambda d: d["map"].update(lengths=[]),
     SpecError, '/map/lengths', 'expected a nonempty array'),
    (IET_DOC, lambda d: d["map"]["lengths"].__setitem__(0, 0.25),
     SpecError, '/map/lengths/0', 'scalars are grammar strings, got float'),
    (IET_DOC, lambda d: d["map"].update(permutation=[0, 0, 1]),
     SpecError, '/map', 'not a permutation of 0..2'),
    (IET_DOC, lambda d: d["map"].update(permutation=[2, 0, "1"]),
     SpecError, '/map/permutation/2', 'expected an integer, got str'),
    (IET_DOC, lambda d: d["map"].pop("permutation"),
     SpecError, '/map', "missing key 'permutation'"),
    (IET_DOC, lambda d: d["map"].update(lengths=["1/4", "1/4", "1/4"]),
     SpecError, '/map', 'lengths sum to 3/4, expected 1'),
    (IET_DOC, lambda d: d["map"].update(lengths=["1/4", "1/4", "1/2+1*sqrt(2)"]),
     SpecError, '/map/lengths/2', "scalar '1/2+1*sqrt(2)' lives in sqrt(2), instance uses sqrt(0)"),
]


@pytest.mark.parametrize("doc, mangle, kind, path, message", MALFORMED)
def test_malformed_documents_keep_their_errors(doc, mangle, kind, path, message):
    broken = json.loads(json.dumps(doc))
    mangle(broken)
    with pytest.raises(Exception) as e:
        parse_spec(broken)
    assert type(e.value) is kind
    if kind is SpecError:
        assert (e.value.path, e.value.message) == (path, message)
    else:
        assert str(e.value) == message

def test_one_text_is_one_object_across_the_document():
    # the map's pieces, the subdivision and x0 read through one dict
    spec = parse_spec(GOLDEN_DOC)
    left, right = spec.pmap.pieces
    cells = spec.sub.table.cells
    assert left.domain.hi is right.domain.lo is cells[0][1][1] is cells[1][0][1]
    assert left.domain.lo is cells[0][0][1] and right.domain.hi is cells[1][1][1]
    assert spec.x0 is left.intercept
    iet = parse_spec(IET_DOC)
    assert iet.iet.lengths[0] is iet.iet.lengths[1] is iet.x0


@pytest.mark.parametrize("bad", ["1/3+", "1/0", ["1/3"], 0.5])
def test_a_bad_shared_text_fails_at_its_first_path(bad):
    doc = json.loads(json.dumps(GOLDEN_DOC))
    share(doc, bad)
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert path_of(e) == "/map/pieces/0/hi"


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
