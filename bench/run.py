"""The ietwords benchmark: one workload, one seed, one process, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with a single caller: each op starts when the previous one has
returned.  Set-up generates the workload's inputs from the seed (seven
times, reporting the median), then the fixed list of ops is run as passes
until --seconds have gone by (at least five passes untraced).  Short chunks
of a fixed reference kernel run between ops and measure the host's speed
(hostspeed.py); the passes are split into five blocks, and each op's sample
in a block is its mean time there, scaled by that block's host speed (see
block_samples).  Every op's output is checked and hashed into a digest; the
digest must repeat on every pass and, for the default seed, equal the value
stored in digests.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes for
half the time, then one traced pass with a span around each call into a
library module, and prints the per-layer metrics plus the tracing overhead.
The last line of stdout is the result object; the lines before it are a
report with the run's context and details.  Exit code 0 when every check
passed, 1 when any failed, 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

WORKLOADS = (
    "roundtrip_corpus",
    "long_word_analysis",
    "goodness_large_partition",
    "cli_quadratic_fields",
)
DEFAULT_SEED = 0
SETUP_REPEATS = 7
BLOCKS = 5
CHUNKS_PER_PASS = 8
# Stop adding passes past this, so a much slower library still exits in time.
MAX_MEASURE_S = 120.0
TAIL_PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def run_pass(ops, tr=None):
    """Run every op once, with reference chunks between ops when untraced.

    Returns (op seconds, digest, failures, steps, chunk seconds).
    """
    digest = hashlib.sha256()
    times, failures, steps, chunks = [], [], 0, []
    stride = max(1, len(ops) // CHUNKS_PER_PASS)
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            result = op.run() if tr is None else op.traced(tr)
            error = None
        except Exception:  # an op that raises counts as failed; the run goes on
            result, error = None, traceback.format_exc(limit=3)
        times.append(clock() - t0)
        out = b""
        if error is None:
            try:
                error = op.check(result)
                out = op.render(result)
            except Exception:  # a check that cannot read the output fails the op
                error = traceback.format_exc(limit=3)
            steps += op.steps
        out = out or error.encode()
        digest.update(op.label.encode() + b"\0" + out + b"\0")
        if error is not None:
            failures.append(f"{op.label}: {error}")
        if tr is None and i % stride == stride - 1:
            chunks.append(hostspeed.chunk())
    return times, digest.hexdigest(), failures, steps, chunks


def block_samples(passes):
    """Per op, its mean time in each of BLOCKS groups of consecutive passes,
    scaled by the host speed the reference chunks measured in that group.

    Returns (samples per op, scale per block).
    """
    n = len(passes)
    groups = [passes[b * n // BLOCKS:(b + 1) * n // BLOCKS] for b in range(BLOCKS)]
    groups = [g for g in groups if g]
    scales = [hostspeed.scale([c for p in g for c in p[4]]) for g in groups]
    samples = [[statistics.fmean(p[0][op] for p in g) * k for g, k in zip(groups, scales)]
               for op in range(len(passes[0][0]))]
    return samples, scales


def nearest_rank(values, p):
    """The p-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    idx = max(math.ceil(p / 100 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def tail_percentile(samples):
    """Highest listed percentile with at least ten of `samples` beyond it."""
    fitting = [p for p in TAIL_PERCENTILES
               if samples - math.ceil(p / 100 * samples) >= 10]
    return fitting[-1] if fitting else TAIL_PERCENTILES[0]


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "ietwords").glob("*.py"))),
        "loop": "closed, one caller",
    }


def measure(args, work):
    import spans
    import workloads

    setup_s, setup_raw, generate_s = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        ops = workloads.setup(args.workload, args.seed, args.size, work)
        t1 = clock()
        ops[0].run()                                   # warm-up
        t2 = clock()
        speed = hostspeed.scale([hostspeed.chunk() for _ in range(CHUNKS_PER_PASS)])
        setup_s.append((t2 - t0) * speed)
        setup_raw.append(t2 - t0)
        generate_s.append(t1 - t0)

    start = clock()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    passes = []
    while (not passes
           or (clock() < untraced_until
               or (not args.trace and len(passes) < BLOCKS))
           and clock() - start < MAX_MEASURE_S):
        passes.append(run_pass(ops))

    failures = [f for p in passes for f in p[2]]
    blocks, scales = block_samples(passes)
    digests = {p[1] for p in passes}
    report = {"context": context(args), "passes": len(passes), "ops_per_pass": len(ops),
              "pass_wall_s": [sum(p[0]) for p in passes], "host_scale": scales}

    if args.trace:
        tr = spans.Spans()
        traced = run_pass(ops, tr)
        failures += traced[2]
        digests.add(traced[1])
        spans.scalar_timings(tr, workloads.RADICANDS)
        probe_tr = spans.Spans()
        try:
            workloads.probe(probe_tr, ops, work)
        except Exception:  # a failing probe fails the run but still reports
            failures.append("probe: " + traceback.format_exc(limit=3))
        table = spans.layer_table(workloads.RADICANDS, workloads.COMMANDS)
        natural = spans.layer_metrics(tr, table)
        probed = spans.layer_metrics(probe_tr, table)
        metrics = {**probed, **natural}
        metrics["instances.generate_s"] = (statistics.median(generate_s), "s")
        metrics["trace.overhead_s"] = (
            sum(traced[0]) - statistics.median(report["pass_wall_s"]), "s")
        report["traced_wall_s"] = sum(traced[0])
        report["from_probe"] = sorted(set(probed) - set(natural))
        attempted = len(ops) * (len(passes) + 1)
        failed_ops = sum(len(p[2]) for p in passes) + len(traced[2])
    else:
        wall = sum(statistics.median(op) for op in blocks)
        samples = [t for op in blocks for t in op]
        tail_p = tail_percentile(len(samples))
        tail, beyond = nearest_rank(samples, tail_p)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(ops) / wall, "1/s"),
            "op_ms_p50": (statistics.median(samples) * 1e3, "ms"),
            "op_ms_tail": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["op_ms_tail"] = {"percentile": tail_p, "samples": len(samples),
                                "samples_beyond": beyond}
        every = [t for p in passes for t in p[0]]
        report["unscaled"] = {"op_ms_p50": statistics.median(every) * 1e3,
                              "wall_s": sum(every) / len(passes),
                              "setup_s": statistics.median(setup_raw)}
        steps = passes[0][3]
        if steps:
            report["orbit_steps_per_s"] = steps / wall
        slowest = sorted(((statistics.median(b), op.label) for b, op in zip(blocks, ops)),
                         reverse=True)[:5]
        report["slowest_ops_ms"] = {label: t * 1e3 for t, label in slowest}
        attempted = len(ops) * len(passes)
        failed_ops = sum(len(p[2]) for p in passes)

    digest = digests.pop() if len(digests) == 1 else None
    if digest is None:
        failures.append("output digest differs between passes")
    report["digest"] = digest
    if args.seed == DEFAULT_SEED:
        stored = json.loads(DIGESTS.read_text()).get(f"{args.workload}/{args.size}")
        report["digest_stored"] = stored
        if digest != stored:
            failures.append(f"digest {digest} differs from the stored {stored}")
    report["failed_frac"] = failed_ops / attempted
    report["failures"] = failures[:20]
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if not failures else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ietwords" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'ietwords'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
