"""steinerkit benchmark: one seeded workload, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

The workloads are train, solve, exact and classic (see workloads.py).
BENCHMARK.json lists train and exact, which between them enter every
layer of the package, and runs each for 50 s: on a 2-core VM whose speed
drifts by up to a third over minutes, shorter runs of all four spread too
widely from run to run.  solve and classic run the same way on demand.

With ``--trace 0`` the run sets up its inputs several times, then runs a
closed loop of units for ``--seconds`` and reports the end-to-end
metrics; ``setup_s`` is the time to import steinerkit (numpy included)
plus the median set-up. With ``--trace 1`` it runs the loop untraced for
half the time, then repeats exactly the same units with every layer's
entry point wrapped in spans, and reports the per-layer metrics plus the
tracing overhead between the two passes. Every output is checked; the
last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Details (environment header, tail
percentile, failures, self-time shares) go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported: results are then
# deterministic and single-caller latency is not inflated by thread wake-ups.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def _import_package() -> float:
    """Import steinerkit from this checkout's src/; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "steinerkit" / "__init__.py").is_file():
        sys.exit(f"error: no steinerkit sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import steinerkit  # noqa: F401  (timed: numpy and the package load here)
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, int]:
    """Nearest-rank value at the highest whole percentile (50 at least)
    that leaves TAIL_BEYOND samples above it; returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    pct = 50
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            pct = p
            break
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('openblas configuration') or blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas_build = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def measure(workload, seed: int, seconds: float, import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, seconds)
        setups.append(time.perf_counter() - t0)
    out = workload.run(inputs, lambda done, elapsed: elapsed >= seconds, None)
    tail_s, pct = tail(out.times) if out.times else (0.0, 0)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "throughput_per_s": (len(out.times) / sum(out.times) if out.times else 0.0, "1/s"),
        "unit_p50_s": (statistics.median(out.times) if out.times else 0.0, "s"),
        "unit_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "import_s": import_s,
        "setup_repeats_s": setups,
        "tail_percentile": pct,
        "units": len(out.times),
        "fail_ratio": out.failed / max(1, out.attempted),
        "agent_gain": statistics.fmean(out.gains) if out.gains else None,
    }
    return {"metrics": metrics, "report": report, "outcomes": [out]}


def measure_traced(workload, seed: int, seconds: float) -> dict:
    import steinerkit.rl as rl
    import tracing

    static_cache = rl.instance_static
    inputs = workload.setup(seed, seconds)
    static_cache.cache_clear()
    plain = workload.run(inputs, lambda done, elapsed: elapsed >= seconds / 2, None)
    units = plain.attempted

    static_cache.cache_clear()
    tracer = tracing.Tracer()
    with tracing.traced_layers(tracer):
        tracer.start_unit("setup")
        inputs = workload.setup(seed, seconds)
        tracer.end_unit()
        before = static_cache.cache_info()
        traced = workload.run(inputs, lambda done, elapsed: done >= units, tracer)
        after = static_cache.cache_info()
    metrics = tracing.layer_metrics(tracer, before, after)
    untraced_s, traced_s = sum(plain.times), sum(traced.times)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1 if untraced_s else 0.0, "ratio")
    shares = tracing.self_time_shares(tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}.spans.jsonl")
    report = {"units": units, "self_time_shares": shares,
              "notes": {k: v[1] for k, v in tracing.METRIC_NOTES.items()}}
    return {"metrics": metrics, "report": report, "outcomes": [plain, traced]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        result = measure_traced(workload, args.seed, args.seconds)
    else:
        result = measure(workload, args.seed, args.seconds, import_s)
    outcomes = result["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:8s} {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        rep = result["report"]
        gain = rep["agent_gain"]
        print(f"{args.workload:8s} {'fail_ratio':34s} {rep['fail_ratio']:14.6g} ratio")
        print(f"{args.workload:8s} {'agent_gain':34s} "
              f"{'n/a' if gain is None else format(gain, '14.6g'):>14s} ratio")
        print(f"{args.workload:8s} unit_tail_s is p{rep['tail_percentile']} "
              f"of {rep['units']} units")
    for o in outcomes:
        for err in o.errors:
            print(f"{args.workload}: failed {err}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    detail = {
        "environment": environment(),
        "args": vars(args),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["report"],
        "errors": [e for o in outcomes for e in o.errors],
    }
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    print(json.dumps({
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
