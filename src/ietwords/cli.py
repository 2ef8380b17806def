"""Command-line front end.

    iet-words <command> <spec.json> [--length N] [--nmax K] [--seed S] [--json]

Commands: generate, check-good, refine, roundtrip, analyze, to-iet,
selftest.  Exit codes: 0 success/OK, 1 domain violations or Mismatch,
2 parse errors, 141 stdout closed before the report was written (as by
`| head`; a shell reports 141 for a process that SIGPIPE ends).  Reports
are deterministic: same spec and flags, same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import islice

from .analysis import complexity, detect_period, recurrence_profile
from .coding import WordOrigin, _require_count, iter_code, roundtrip_check
from .exactnum import format_scalar
from .intervalmap import to_iet
from .jsonio import (
    SpecError,
    dumps,
    iet_to_json,
    parse_spec,
    subdivision_to_json,
    write_word_json,
)
from .selftest import run_selftest
from .subdivision import GoodnessCertificate, is_good, refine_to_good

@cache
def _parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="iet-words",
        description="Symbolic words from piecewise-affine interval maps, exactly.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", nargs="?", help="instance spec file (JSON)")
    parser.add_argument("--length", type=int, default=None,
                        help="word/orbit length (default: the instance file's length)")
    parser.add_argument("--nmax", type=int, default=50,
                        help="analysis depth for analyze (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites (default 0)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit reports as JSON")
    return parser


def _violation_json(v):
    return {
        "kind": v.kind,
        "letter": v.letter,
        "point": None if v.point is None else format_scalar(v.point),
        "color": v.color,
        "witness": [format_scalar(w) for w in v.witness],
    }


def _length(spec, args):
    length = spec.length if args.length is None else args.length
    _require_count(length, "n", 1)
    return length


def _cmd_generate(spec, args, out):
    length = _length(spec, args)
    # the word is written as the orbit is walked, never held whole
    letters = iter_code(spec.pmap, spec.sub, spec.x0, length)
    if args.as_json:
        origin = WordOrigin(spec.pmap.content_id(), spec.sub.content_id(), spec.x0, length)
        write_word_json(out, letters, origin)
        return 0
    while line := list(islice(letters, 80)):
        out.write(" ".join(line) + "\n")
    return 0


def _cmd_check_good(spec, args, out):
    result = is_good(spec.sub, spec.pmap)
    if isinstance(result, GoodnessCertificate):
        if args.as_json:
            out.write(dumps({
                "good": True,
                "map_id": result.map_id,
                "subdivision_id": result.subdivision_id,
            }))
        else:
            out.write(f"{result}\n")
        return 0
    if args.as_json:
        out.write(dumps({"good": False,
                         "violations": [_violation_json(v) for v in result]}))
    else:
        # the whole report is formatted before any of it is written
        out.write("".join(f"violation: {v}\n" for v in result))
    return 1


def _cmd_refine(spec, args, out):
    refined, gluing = refine_to_good(spec.sub, spec.pmap)
    out.write(dumps({
        "subdivision": subdivision_to_json(refined),
        "gluing": gluing.mapping,
    }))
    return 0


def _cmd_roundtrip(spec, args, out):
    result = roundtrip_check(spec.pmap, spec.sub, spec.x0, _length(spec, args))
    if args.as_json:
        out.write(dumps({"ok": result.ok, "mismatch_index": result.mismatch_index}))
    else:
        out.write(f"{result}\n")
    return 0 if result.ok else 1


def _cmd_analyze(spec, args, out):
    word = tuple(iter_code(spec.pmap, spec.sub, spec.x0, _length(spec, args)))
    n_max = min(args.nmax, len(word))
    comp = complexity(word, n_max)
    rec = recurrence_profile(word, n_max)
    period = detect_period(word)

    if args.as_json:
        out.write(dumps({
            "prefix_length": len(word),
            "complexity": [[n, p] for n, p in comp.values],
            "recurrence": [[n, w if isinstance(w, int) else str(w)]
                           for n, w in rec.values],
            "period": list(period) if isinstance(period, tuple) else str(period),
        }))
        return 0

    out.write(f"prefix length {len(word)}\n")
    out.write("\ncomplexity\n   n    p(n)\n")
    for n, p in comp.values:
        out.write(f"{n:4d}  {p:6d}\n")
    out.write("\nrecurrence\n   n    window\n")
    for n, w in rec.values:
        shown = f"{w:6d}" if isinstance(w, int) else str(w)
        out.write(f"{n:4d}  {shown}\n")
    if isinstance(period, tuple):
        out.write(f"\nperiod: preperiod {period[0]}, period {period[1]}\n")
    else:
        out.write(f"\nperiod: {period}\n")
    return 0


def _cmd_to_iet(spec, args, out):
    iet = to_iet(spec.pmap)
    out.write(dumps(iet_to_json(iet)))
    return 0


_DISPATCH = {
    "generate": _cmd_generate,
    "check-good": _cmd_check_good,
    "refine": _cmd_refine,
    "roundtrip": _cmd_roundtrip,
    "analyze": _cmd_analyze,
    "to-iet": _cmd_to_iet,
}
COMMANDS = (*_DISPATCH, "selftest")


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        status = _run(args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest goes to devnull, so the exit-time flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


def _run(args, out):
    if args.command == "selftest":
        ok = run_selftest(args.seed, write=lambda line: out.write(line + "\n"))
        return 0 if ok else 1

    if args.spec is None:
        print("error: this command needs a spec file", file=sys.stderr)
        return 2
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            document = fh.read()
    except OSError as e:
        print(f"error: cannot read {args.spec}: {e}", file=sys.stderr)
        return 2

    try:
        spec = parse_spec(document)
        return _DISPATCH[args.command](spec, args, out)
    except SpecError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, KeyError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
