#!/usr/bin/env python3
"""quadbvp benchmark: seeded workloads, verified results, one JSON result line.

Usage, from the root of a source checkout (no install or build needed; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 30 --trace 0

Workloads (all closed loop: one problem after another in this process,
with BLAS limited to the CPUs this process may use):

    solve_ladder    CLI ``solve`` mode at (n, N) = (1,256) (2,256) (1,384) (2,384)
    roundtrip_many  300 library ``manufactured_roundtrip`` calls, M = 2nN <= 256
    rate_sweeps     the shipped section_gap, commutator and kernel_gap configs

A run sets up several times, each in a fresh interpreter (this one plus
``SETUP_SAMPLES - 1`` child processes): import ``quadbvp``, build the
inputs, and run one cold warm-up pass of the workload at its tiny size,
which calls every code path of the workload once (BLAS/LAPACK start-up and
first calls) and is verified, then discarded.  It then runs warm passes at
the full size until ``--seconds`` have elapsed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median set-up),
``problems_per_s`` (median over warm passes of verified problems per
second), ``problem_s_p50`` / ``problem_s_p90`` (percentiles over the
problems of a pass of each one's median time to a verified result across
the warm passes) and ``peak_rss_mb`` (this process's peak resident set).  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of ``tracing.PER_LAYER`` taken from
the traced pass of median duration, with the tracing overhead; its spans
are written to ``.perfbench_out/``.

Every problem is verified.  Failed verifications and the program's
numerical errors count in ``failed``; ``correct`` is false if any problem
failed.  The last line of standard output is the JSON result; the lines
before it give machine and build facts, sample counts and ``failed_frac``.
``--size tiny`` runs each workload at a tiny size for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("solve_ladder", "roundtrip_many", "rate_sweeps")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("problems_per_s", "1/s"),
    ("problem_s_p50", "s"),
    ("problem_s_p90", "s"),
    ("peak_rss_mb", "MB"),
]


class PassResult:
    """Timings and verification outcome of one pass."""

    def __init__(self):
        self.wall = 0.0
        self.times: list[float] = []   # one per problem; math.inf if it failed
        self.attempted = 0
        self.failed = 0
        self.span_range = (0, 0)

    @property
    def rate(self) -> float:
        """Verified problems per second."""
        return (self.attempted - self.failed) / self.wall


def run_pass(workload, index: int, tracer=None) -> PassResult:
    from quadbvp.errors import AssemblyError, NearSingularError, NormEstimateError

    problems = workload.problems(index)   # input preparation, not timed
    out = PassResult()
    first_span = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    for i, problem in enumerate(problems):
        t = time.perf_counter()
        try:
            if tracer:
                failures = tracer.run_problem(f"{index}.{i}", problem)
            else:
                failures = problem()
        except (NearSingularError, NormEstimateError, AssemblyError) as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t
        out.attempted += 1
        if failures:
            # a failed problem misses any latency limit
            out.failed += 1
            dt = math.inf
            for line in failures:
                print(f"FAILED problem {index}.{i}: {line}", file=sys.stderr)
        out.times.append(dt)
    out.wall = time.perf_counter() - start
    out.span_range = (first_span, len(tracer.spans) if tracer else 0)
    return out


def set_up(args, workdir: Path):
    """Import the package, build the inputs and run the cold warm-up pass
    at the tiny size.

    Returns the workload, the set-up seconds and the warm-up pass.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import quadbvp
    if Path(quadbvp.__file__).resolve().parent != (SRC / "quadbvp").resolve():
        raise SystemExit(f"imported quadbvp from {quadbvp.__file__}, not from {SRC}")
    import workloads
    workload = workloads.make(args.workload, args.seed, args.size, workdir, ROOT)
    warmup = run_pass(workloads.make(args.workload, args.seed, "tiny", workdir, ROOT), 0)
    return workload, time.perf_counter() - start, warmup


def setup_probe(args) -> dict:
    """Set-up sample in a fresh interpreter; returns seconds and warm-up tally."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:   # both inf: inf - inf would be nan
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(workload, seconds: float) -> list[PassResult]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, len(passes) + 1))
    return passes


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced passes; hooks are installed only
    around the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, missing = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(workload, 2 * len(traced) + 1))
        uninstall, missing = tracing.install(tracer)
        try:
            traced.append(run_pass(workload, 2 * len(traced) + 2, tracer))
        finally:
            uninstall()
    return tracer, plain, traced, missing


def per_layer_metrics(tracer, plain, traced) -> dict[str, float]:
    import tracing

    # the traced pass of median duration (lower middle for an even count)
    chosen = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    layers = tracing.self_times(tracer.spans, *chosen.span_range)
    values = {}
    for name, unit, _ in tracing.PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        values[name] = layers.get(layer, {}).get(stat, 0.0 if unit == "s" else 0)
    values["bench.traced_pass_s"] = chosen.wall
    values["bench.traced_problems_per_s"] = statistics.median(p.rate for p in traced)
    values["bench.untraced_problems_per_s"] = statistics.median(p.rate for p in plain)
    # from pass times, which stay positive when every problem fails
    values["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0)
    return values


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked through its C API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_facts() -> dict:
    import hashlib
    import platform
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unavailable"
    git_rev = "unavailable (not a git checkout)"
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unavailable (git not found)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadbvp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "blas_threads": blas_threads(),
        "git_revision": git_rev,
        "src_sha256": digest.hexdigest(),
        "cpu_pinning": "none", "clock_fixed": False,
        "note": "CPUs were not pinned and clock frequency was not fixed (machine "
                "settings are off limits), so timings are medians over passes",
    }


def fmt(value) -> float | int | None:
    """JSON-safe value; a percentile that falls on failed problems is null."""
    if isinstance(value, int):
        return value
    return float(value) if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "quadbvp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'quadbvp'}; run from a quadbvp "
              "checkout", file=sys.stderr)
        return 2
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cpus)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            _, seconds, warmup = set_up(args, workdir)
            print(json.dumps({"setup_s": seconds, "attempted": warmup.attempted,
                              "failed": warmup.failed}))
            return 0
        # set-up is an end-to-end metric only; the traced run skips the probes
        probes = [] if args.trace else [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        workload, seconds, warmup = set_up(args, workdir)
        setup_samples = [p["setup_s"] for p in probes] + [seconds]
        attempted = warmup.attempted + sum(p["attempted"] for p in probes)
        failed = warmup.failed + sum(p["failed"] for p in probes)

        if args.trace:
            tracer, plain, traced, missing = measure_traced(workload, args.seconds)
            passes = plain + traced
            metrics = per_layer_metrics(tracer, plain, traced)
            import tracing
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            passes = measure(workload, args.seconds)
            # every pass runs the same problems (same sizes in solve_ladder), so
            # a problem's time is its median over the warm passes
            times = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "problems_per_s": statistics.median(p.rate for p in passes),
                "problem_s_p50": percentile(times, 0.5),
                "problem_s_p90": percentile(times, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        attempted += sum(p.attempted for p in passes)
        failed += sum(p.failed for p in passes)

        facts = machine_facts()
        print("# facts " + json.dumps(facts))
        print(f"# workload {args.workload} seed {args.seed} size {args.size}: "
              f"{len(passes)} measured passes of {passes[0].attempted} problems; "
              "percentiles over the problems' median times (a failed problem counts "
              f"as infinitely slow); pass rates {[round(p.rate, 4) for p in passes]} 1/s; "
              f"setup samples {[round(s, 4) for s in setup_samples]} s")
        if args.trace:
            print(f"# trace: {len(traced)} traced and {len(plain)} untraced passes, "
                  f"{len(tracer.spans)} spans; layers from the traced pass of median "
                  "duration; dim_max, computed_bytes, blocks, dense_elems and points "
                  "are computed from array shapes")
            if missing:
                print("# trace: not hooked (absent in this version): " + ", ".join(missing))
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "facts": facts, "workload": args.workload, "seed": args.seed,
                "fields": ["name", "start", "end", "parent", "problem", "counts"],
                "spans": tracer.spans}))
            print(f"# trace: spans written to {trace_path.relative_to(ROOT)}")
        print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} "
              "problems, warm-up passes included)")
        for name, value in metrics.items():
            print(f"# {name} = {fmt(value)} {units[name]}")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": fmt(value), "unit": units[name]}
                        for name, value in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
