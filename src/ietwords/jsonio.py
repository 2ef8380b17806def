"""JSON forms for maps, subdivisions, words, gluings, and instance files.

Scalars travel as grammar strings ("-1/2+1/2*sqrt(5)"), never as floats:
a float would silently destroy exactness, so no serializer here ever emits
one.  Schema problems raise SpecError with a JSON-pointer-style path;
semantic problems (overlaps, invalid maps, out-of-range starting points)
are left to the domain validators and keep their own exception types.

parse_spec reads a document in one pass.  Each scalar text is parsed once
per call, into one dict that the map's pieces or IET lengths, the
subdivision and x0 share: equal texts give one object, and a bad text
fails at the first path that holds it.  Each class component is read
straight into its key range by intervalsets.key_range, the check that
Component makes, and each class is built from its ranges.  The dict
lives only as long as the call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

from .exactnum import (
    MAX_RADICAND,
    ExactScalar,
    FieldMismatch,
    NonSquarefreeRadicand,
    ParseError,
    ZeroDenominator,
    format_scalar,
    parse_scalar,
)
from .intervalsets import BoundarySet, key_range
from .intervalmap import (IET, AffinePiece, HalfOpenInterval, PiecewiseMap,
                          PointOutsideDomain, iet_to_map)
from .subdivision import GluingMap, Subdivision


# letters written per call while streaming a word
_CHUNK = 4096


class SpecError(ValueError):
    """A structural problem in an instance document, with its location."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class InstanceSpec:
    """A fully parsed instance: map, subdivision, start point, length."""

    field_d: int
    pmap: PiecewiseMap
    sub: Subdivision
    x0: ExactScalar
    length: int
    iet: IET | None = None      # set when the document described an IET


# ---------------------------------------------------------------- writers

def map_to_json(pmap):
    return {
        "pieces": [
            {
                "lo": format_scalar(p.domain.lo),
                "hi": format_scalar(p.domain.hi),
                "slope": p.slope,
                "intercept": format_scalar(p.intercept),
            }
            for p in pmap.pieces
        ]
    }


def iet_to_json(iet):
    return {
        "lengths": [format_scalar(l) for l in iet.lengths],
        "permutation": list(iet.permutation),
    }


def subdivision_to_json(sub):
    return {
        "classes": {
            letter: [
                {
                    "lo": format_scalar(c.lo),
                    "hi": format_scalar(c.hi),
                    "lo_in": c.lo_in,
                    "hi_in": c.hi_in,
                }
                for c in bset.components
            ]
            for letter, bset in sub.classes.items()
        }
    }


def _origin_to_json(origin):
    if origin is None:
        return None
    return {
        "map_id": origin.map_id,
        "subdivision_id": origin.subdivision_id,
        "x0": format_scalar(origin.x0),
        "length": origin.length,
        "projected": origin.projected,
    }


def word_to_json(word):
    return {"letters": list(word.letters), "origin": _origin_to_json(word.origin)}


def write_word_json(out, letters, origin):
    """Write dumps(word_to_json(word)) for the word with these letters and
    origin, reading the letters as they come; there must be at least one."""
    # "letters" sorts first, so the first null is the placeholder letter
    head, tail = dumps({"letters": [None], "origin": _origin_to_json(origin)}).split("null", 1)
    comma = "," + head[head.rindex("\n"):]
    out.write(head)
    sep = ""
    while chunk := list(islice(letters, _CHUNK)):
        out.write(sep + json.dumps(chunk, ensure_ascii=False, separators=(comma, ": "))[1:-1])
        sep = comma
    out.write(tail)


def instance_to_json(spec):
    return {
        "field_d": spec.field_d,
        "map": iet_to_json(spec.iet) if spec.iet is not None else map_to_json(spec.pmap),
        "subdivision": subdivision_to_json(spec.sub),
        "x0": format_scalar(spec.x0),
        "length": spec.length,
    }


def dumps(obj):
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------- readers

def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise SpecError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SpecError(path, f"missing key {key!r}")
    return obj[key]


def _read_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise SpecError(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _read_bool(value, path, key):
    if not isinstance(value, bool):
        raise SpecError(f"{path}/{key}", f"expected a boolean, got {type(value).__name__}")
    return value


def _reader(d, parsed):
    """A reader of the scalar text found at f"{path}/{key}", in field d.
    It parses each text once into `parsed`, so equal texts give one
    object, and a bad one fails where it first occurs."""
    def scalar(text, path, key):
        if not isinstance(text, str):
            raise SpecError(f"{path}/{key}",
                            f"scalars are grammar strings, got {type(text).__name__}")
        if text in parsed:
            return parsed[text]
        try:
            x = parsed[text] = parse_scalar(text, d)
        except ParseError as e:
            raise SpecError(f"{path}/{key}",
                            f"bad scalar at position {e.position}: {e.message}") from e
        except (ZeroDenominator, NonSquarefreeRadicand, FieldMismatch) as e:
            raise SpecError(f"{path}/{key}", str(e)) from e
        return x

    return scalar


def map_from_json(obj, d, parsed=None):
    """A PiecewiseMap from either the pieces form or the IET form.

    Returns (pmap, iet-or-None).  Structure errors raise SpecError; the
    map is built but not validated here.  Scalar texts are parsed into
    `parsed` (text -> scalar), a fresh dict by default.
    """
    path = "/map"
    if not isinstance(obj, dict):
        raise SpecError(path, f"expected an object, got {type(obj).__name__}")
    scalar = _reader(d, {} if parsed is None else parsed)
    if "pieces" in obj:
        pieces_obj = obj["pieces"]
        if not isinstance(pieces_obj, list) or not pieces_obj:
            raise SpecError(f"{path}/pieces", "expected a nonempty array")
        pieces = []
        for i, po in enumerate(pieces_obj):
            ppath = f"{path}/pieces/{i}"
            lo = scalar(_require(po, "lo", ppath), ppath, "lo")
            hi = scalar(_require(po, "hi", ppath), ppath, "hi")
            slope = _require(po, "slope", ppath)
            if type(slope) is not int or slope not in (1, -1):
                raise SpecError(f"{ppath}/slope", f"slope must be 1 or -1, got {slope!r}")
            intercept = scalar(_require(po, "intercept", ppath), ppath, "intercept")
            try:
                pieces.append(AffinePiece(HalfOpenInterval(lo, hi), slope, intercept))
            except ValueError as e:
                raise SpecError(ppath, str(e)) from e
        return PiecewiseMap(pieces), None
    if "lengths" in obj:
        lengths_obj = obj["lengths"]
        if not isinstance(lengths_obj, list) or not lengths_obj:
            raise SpecError(f"{path}/lengths", "expected a nonempty array")
        lengths = [scalar(t, f"{path}/lengths", i) for i, t in enumerate(lengths_obj)]
        perm_obj = _require(obj, "permutation", path)
        if not isinstance(perm_obj, list):
            raise SpecError(f"{path}/permutation", "expected an array")
        perm = [
            _read_int(v, f"{path}/permutation/{i}") for i, v in enumerate(perm_obj)
        ]
        try:
            iet = IET(tuple(lengths), tuple(perm))
        except ValueError as e:
            raise SpecError(path, str(e)) from e
        return iet_to_map(iet), iet
    raise SpecError(path, "expected either a 'pieces' or a 'lengths' description")


def subdivision_from_json(obj, d, parsed=None):
    """A Subdivision from its classes; each component is read straight
    into its key range.  Scalar texts are parsed into `parsed`, as
    map_from_json does."""
    path = "/subdivision"
    classes_obj = _require(obj, "classes", path)
    if not isinstance(classes_obj, dict) or not classes_obj:
        raise SpecError(f"{path}/classes", "expected a nonempty object")
    classes, scalar = {}, _reader(d, {} if parsed is None else parsed)
    for letter, comps_obj in classes_obj.items():
        cpath = f"{path}/classes/{letter}"
        if not isinstance(comps_obj, list) or not comps_obj:
            raise SpecError(cpath, "expected a nonempty array of intervals")
        ranges = []
        for i, co in enumerate(comps_obj):
            ipath = f"{cpath}/{i}"
            lo = scalar(_require(co, "lo", ipath), ipath, "lo")
            hi = scalar(_require(co, "hi", ipath), ipath, "hi")
            lo_in = _read_bool(co.get("lo_in", True), ipath, "lo_in")
            hi_in = _read_bool(co.get("hi_in", False), ipath, "hi_in")
            try:
                ranges.append(key_range(lo, lo_in, hi, hi_in))
            except ValueError as e:
                raise SpecError(ipath, str(e)) from e
        classes[letter] = BoundarySet._from_ranges(ranges)
    return Subdivision(classes)


def gluing_from_json(obj):
    if not isinstance(obj, dict) or not obj:
        raise SpecError("/gluing", "expected a nonempty object of letter pairs")
    for k, v in obj.items():
        if not isinstance(v, str):
            raise SpecError(f"/gluing/{k}", "expected a letter string")
    return GluingMap(obj)


def parse_spec(document):
    """Parse and validate a full instance document (text or decoded dict).

    Schema problems raise SpecError with a pointer path, as does a field_d
    above exactnum.MAX_RADICAND, whose squarefree check could take hours.
    Domain problems (class overlap, coverage gap, invalid map, x0 outside
    [0, 1)) raise their module exceptions so callers can tell the two apart.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as e:
            # besides syntax errors: integer literals past Python's digit
            # limit, nesting past the recursion limit, bytes not in UTF-8
            raise SpecError("/", f"invalid JSON: {e}") from e
    if not isinstance(document, dict):
        raise SpecError("/", "expected a JSON object")

    d = _read_int(_require(document, "field_d", "/"), "/field_d", minimum=0)
    if d > MAX_RADICAND:
        raise SpecError("/field_d", f"expected an integer <= {MAX_RADICAND}, got {d}")
    try:
        zero = ExactScalar.zero(d)
    except NonSquarefreeRadicand as e:
        raise SpecError("/field_d", str(e)) from e

    # one text, one object: the map, the subdivision and x0 share `parsed`
    parsed = {}
    pmap, iet = map_from_json(_require(document, "map", "/"), d, parsed=parsed)
    sub = subdivision_from_json(_require(document, "subdivision", "/"), d, parsed=parsed)
    x0 = _reader(d, parsed)(_require(document, "x0", "/"), "", "x0")
    length = _read_int(_require(document, "length", "/"), "/length", minimum=1)

    pmap.require_valid()
    if not (zero <= x0 < ExactScalar.one(d)):
        raise PointOutsideDomain(f"x0 = {x0} outside [0, 1)")

    return InstanceSpec(d, pmap, sub, x0, length, iet)
