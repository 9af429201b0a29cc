"""Seeded closed-loop benchmark of the rellich package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Inputs are generated from the seed before timing.  One caller runs the
operations one after another, cycling through the inputs, until S seconds
have passed and every input has run once, checks every result, and prints
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a JSON record of the
run: latency percentile and sample count, wall-clock throughput, error
rate, machine and library versions.

Timing statistics use, for each distinct input, the fastest of its
repeats in the run.  On a shared host the CPU speed drifts by up to 1.5x
over tens of seconds; the fastest repeat is less sensitive to short slow
phases than a mean.  Where the inputs are many and dear (verify-sweep),
most run once in a run, and their number averages the host's speed over
the run instead.  A workload with fewer than TAIL_MIN_INPUTS distinct
inputs takes its tail over every timed sample instead, so that the tail
is at least the 90th percentile.  The plain wall-clock throughput is in
the record line as ``wall_ops_per_s``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` one pass over the inputs runs with the library's public
functions wrapped (see trace.py) and the metrics are the per-layer ones;
the spans are written to ``bench/out/``.  Untraced passes over the same
inputs, one before and one after, give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the operations are single-threaded; one BLAS/OpenMP thread keeps the
# figures independent of the machine's core count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: set-ups before the timed loop, and as many again after it; each is a
#: timed child import plus input generation and warm-up, and setup_s is
#: their median
SETUP_REPEATS = 5

#: tail percentiles tried, in hundredths of a percent, highest last
LADDER = (5000, 7500, 9000, 9500, 9750, 9900, 9950, 9990, 9995, 9999)

#: child processes timed for cli.interpreter_ms
CHILD_PROBES = 5

#: fewer distinct inputs give no 90th percentile with 10 samples beyond it
TAIL_MIN_INPUTS = 100

#: what a child process prints: the time to import the package and its CLI
IMPORT_CODE = ("import time; t = time.perf_counter(); import rellich, rellich.cli; "
               "print(time.perf_counter() - t)")

WORKLOADS = ("decide-sweep", "verify-sweep", "ratio-smooth", "cli-mix")


def _warmup(workload: str, ops) -> None:
    """Run a few cheap operations so caches and lazy set-up are filled."""
    if workload == "verify-sweep":
        chosen = [op for op in ops if op.label.startswith("verify p=2 ")][:2]
    else:
        chosen = ops[: {"decide-sweep": 40, "ratio-smooth": 8, "cli-mix": 1}[workload]]
    for op in chosen:
        try:
            op.call()
        except Exception:  # the timed loop counts the failure
            pass


def _tail(samples: list[float]) -> tuple[float, int, float]:
    """(percentile, samples beyond it, value) of the tail.

    The tail is the highest ladder step with at least 10 samples beyond it,
    by nearest rank.  With fewer than 11 samples it is the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    tail = (100.0, 0, xs[-1])
    for q in LADDER:
        rank = -(-q * n // 10000)  # nearest rank, ceil(q n / 10^4)
        if rank >= 1 and n - rank >= 10:
            tail = (q / 100.0, n - rank, xs[rank - 1])
    return tail


def _run_op(op, fn=None):
    """(seconds, ok, error text) for one operation; the check is not timed."""
    fn = fn or op.call
    t0 = perf_counter()
    try:
        res = fn()
    except Exception as exc:
        return perf_counter() - t0, False, f"{op.label}: {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    try:
        ok = bool(op.check(res))
    except Exception as exc:
        return dt, False, f"{op.label}: check raised {type(exc).__name__}: {exc}"
    return dt, ok, None if ok else f"{op.label}: wrong result"


def timed(ops, seconds: float):
    """Closed loop over the operations, cycling, until `seconds` have passed
    and every operation has run at least once."""
    # the running minimum per input is kept, and every sample only for a
    # workload with few inputs, so memory does not grow with the repeats
    best = [math.inf] * len(ops)
    every: list[float] = []
    keep_every = len(ops) < TAIL_MIN_INPUTS
    attempted = failed = 0
    errors: list[str] = []
    start = perf_counter()
    end = start + seconds
    i = 0
    while True:
        k = i % len(ops)
        dt, ok, err = _run_op(ops[k])
        best[k] = min(best[k], dt)
        if keep_every:
            every.append(dt)
        attempted += 1
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(err)
        i += 1
        if perf_counter() >= end and i >= len(ops):
            break
    wall = perf_counter() - start
    return attempted, failed, errors, wall, best, every


def end_to_end(workload, ops, seconds):
    attempted, failed, errors, wall, best, every = timed(ops, seconds)
    pct, beyond, tail = _tail(every or best)
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    ok_share = (attempted - failed) / attempted
    metrics = {
        "ops_per_s": ok_share * len(best) / sum(best),
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_tail_ms": 1e3 * tail,
        "success_rate": ok_share,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    info = {
        "latency_samples": len(best),
        "latency_sample": "fastest of the repeats of each distinct input",
        "tail_sample": "every timed sample" if every else "the latency sample",
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "passes": round(attempted / len(ops), 3),
        "wall_ops_per_s": (attempted - failed) / wall,
        "error_rate": failed / attempted,
        "errors": errors,
    }
    return attempted, failed, metrics, info


def child_s(code: str, env: dict) -> float:
    """Seconds of one `python -c code`: the time it prints, else its wall time."""
    import subprocess

    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, timeout=120, check=True)
    wall = perf_counter() - t0
    return float(out.stdout) if out.stdout.strip() else wall


def set_up(workload: str, seed: int, build, env: dict):
    """One timed set-up: (import seconds, generation and warm-up seconds, ops)."""
    import_s = child_s(IMPORT_CODE, env)
    # the garbage of earlier set-ups is collected here, not inside the
    # timing, where it made the set-up time vary by up to 2.5x
    gc.collect()
    t0 = perf_counter()
    ops = build(seed)
    _warmup(workload, ops)
    return import_s, perf_counter() - t0, ops


def traced(workload, seed, build, plain_ops, env, import_s):
    import oracle
    import trace

    def untraced_pass():
        times = [_run_op(op, op.local)[0] for op in plain_ops]
        return sum(times), times

    # untraced passes before and after the traced one; their mean is the
    # reference for the tracing overhead
    before_s, untraced = untraced_pass()
    tracer = trace.Tracer()
    ops = build(seed, wrap=tracer.profile)
    bad: set[int] = set()
    errors: list[str] = []
    tracer.install()
    try:
        t0 = perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = i
            fn = tracer.span("cli.main", op.local) if op.local else op.call
            _, ok, err = _run_op(op, fn)
            if not ok:
                bad.add(i)
                errors.append(err)
        traced_s = perf_counter() - t0
    finally:
        tracer.remove()
    # every ratio of a bump profile must have the closed-form denominator
    for op_id, p, (a, b), den in tracer.ratio_reports:
        want = oracle.bump_norm(a, b, p)
        if abs(den - want) > 1e-9 * want:
            bad.add(op_id)
            errors.append(f"op {op_id}: denominator {den!r} != closed form {want!r}")
    after_s, more = untraced_pass()
    untraced += more
    untraced_s = 0.5 * (before_s + after_s)

    metrics = tracer.metrics()
    if workload == "cli-mix":
        metrics["cli.interpreter_ms"] = 1e3 * statistics.median(
            child_s("pass", env) for _ in range(CHILD_PROBES))
        metrics["cli.import_ms"] = 1e3 * import_s
        metrics["cli.main_ms"] = 1e3 * statistics.median(untraced)
    else:
        metrics.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                        "cli.main_ms": 0.0})
    metrics["trace.traced_ops_per_s"] = len(ops) / traced_s
    metrics["trace.untraced_ops_per_s"] = len(ops) / untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_file)
    info = {
        "pass_ops": len(ops),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "unmeasured": tracer.unmeasured(),
        "error_rate": len(bad) / len(ops),
        "errors": errors[:5],
    }
    return len(ops), len(bad), metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "rellich" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: run from a checkout holding src/rellich and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RELLICH_TOL", None)
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy
    import rellich.cli  # noqa: F401
    import workloads

    # the import is timed in a fresh child process, where it can be repeated
    env = workloads.child_env()
    build = workloads.BUILDERS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        ops = None  # the previous set-up's inputs are garbage from here on
        *times, ops = set_up(args.workload, args.seed, build, env)
        setups.append(times)

    if args.trace:
        attempted, failed, metrics, info = traced(
            args.workload, args.seed, build, ops, env,
            statistics.median(t[0] for t in setups))
    else:
        attempted, failed, metrics, info = end_to_end(args.workload, ops, args.seconds)
        # a second group after the timed loop, so that the median spans the
        # run and not only its first seconds: the host's speed changes in
        # phases that can outlast one group of set-ups
        setups += [set_up(args.workload, args.seed, build, env)[:2]
                   for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = statistics.median(i + g for i, g in setups)
    missing = set(wanted) ^ set(metrics)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}",
              file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "setup": {"import_s": [t[0] for t in setups], "generate_warmup_s": [t[1] for t in setups]},
        **info,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
