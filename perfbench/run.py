"""Benchmark of the ioncavity simulator: two workloads, timed and checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {spectrum,dynamics} \
        --seed N --seconds S --trace {0,1}

One run sets up, then runs whole rounds of the workload's operations (at
least two, and as many as fit in S seconds), checks the outputs, and prints
one JSON object as its last line. With --trace 0 it reports the end-to-end
metrics run_s, setup_s and peak_rss_mb; with --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads: every run single-threaded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # before the rounds and again after them
MIN_ROUNDS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(args):
    """Times of SETUP_REPEATS cold set-ups, each in a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *args],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ioncavity" / "__init__.py").is_file():
        print(f"perfbench: no ioncavity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import ioncavity
    import tracing
    from workloads import WORKLOADS

    if Path(ioncavity.__file__).resolve().parent != SRC / "ioncavity":
        print(f"perfbench: imported ioncavity from {ioncavity.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    work = WORKLOADS[args.workload](args.seed, out_dir)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print("perfbench:", " ".join(f"{k}={v}" for k, v in environment.items()))

    setup = [] if args.trace else setup_samples(work.setup_args())

    tracer = tracing.Tracer() if args.trace else None
    rounds = []  # (traced, seconds, {op: output or exception})
    start = time.perf_counter()
    # whole rounds, at least MIN_ROUNDS, and no more than fit in --seconds
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start
        + statistics.mean(t for _, t, _ in rounds) <= args.seconds
    ):
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.round = k
            tracer.install()
        outputs, elapsed = {}, 0.0
        try:
            for op in work.operations:
                t0 = time.perf_counter()
                try:
                    outputs[op] = work.run_op(op, k)
                except Exception as exc:  # an operation failed: count it, keep going
                    traceback.print_exc(file=sys.stderr)
                    outputs[op] = exc
                elapsed += time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, elapsed, outputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += setup_samples(work.setup_args())

    # checks, outside the timed rounds: round 0 in full, the others against it
    first = rounds[0][2]
    problems = []
    status = {op: isinstance(out, Exception) for op, out in first.items()}  # op -> failed
    found = work.check({op: out for op, out in first.items() if not status[op]})
    found.update({op: [f"raised {out!r}"] for op, out in first.items() if status[op]})
    for op, op_problems in found.items():
        if op_problems:
            status[op] = True
            label = "known fault" if op in work.known_faults else "FAILED"
            for p in op_problems:
                print(f"perfbench: {label}: {op}: {p}")
    unexpected = sorted(op for op, failed in status.items() if failed and op not in work.known_faults)
    if unexpected:
        problems.append(f"operations failed: {unexpected}")
    for k, (_, _, outputs) in enumerate(rounds[1:], start=1):
        for op in work.operations:
            a, b = first[op], outputs[op]
            if isinstance(a, Exception) or isinstance(b, Exception):
                if type(a) is not type(b):
                    problems.append(f"round {k} {op}: failed in one round only")
            elif not work.same(op, a, b):
                problems.append(f"round {k} {op}: output differs from round 0")
    for p in problems:
        print(f"perfbench: INCORRECT: {p}")

    untraced = [t for traced, t, _ in rounds if not traced]
    print(
        f"perfbench: {len(rounds)} rounds, round seconds "
        + " ".join(f"{t:.3f}{'*' if traced else ''}" for traced, t, _ in rounds)
        + (" (* traced)" if args.trace else "")
    )
    if args.trace:
        traced_times = [t for traced, t, _ in rounds if traced]
        per_round = [
            tracing.aggregate([s for s in tracer.spans if s["round"] == k])
            for k, (traced, _, _) in enumerate(rounds) if traced
        ]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        tracer.write_jsonl(out_dir / "trace.jsonl", environment)
    else:
        print("perfbench: setup samples " + " ".join(f"{s:.4f}" for s in setup))
        metrics = {
            "run_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(work.operations),
        "failed": len(rounds) * sum(status.values()),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
