"""Spans around the calls into each layer, recorded from outside the program.

The hooks replace public functions at the names the calling modules look
them up under (``solve_block_system`` as seen from ``quadbvp.system`` and
from ``quadbvp.cli``, and so on), so nothing under ``src/`` changes.  Each
span records its name, start, end, parent span and problem id, plus the
counts its layer does work in; spans stay in memory until the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

import numpy as np

# Per-layer metrics of a traced pass: (name, unit, better).  The layer name
# is ``<module>.<function>``; ``bench.*`` rows are the benchmark's own.
# dim_max, computed_bytes, blocks, dense_elems and points are computed from
# array shapes, not measured.  Each group names the end-to-end metric it
# should move, on which workload; a layer a workload bypasses reads zero.
PER_LAYER = [
    # problems_per_s on solve_ladder and roundtrip_many, problem_s_p90 on
    # roundtrip_many, peak_rss_mb on solve_ladder; nothing on rate_sweeps
    ("system.solve_block_system.self_s", "s", "lower"),
    ("system.solve_block_system.calls", "count", "lower"),
    ("system.solve_block_system.dim_max", "count", "lower"),
    ("system.solve_block_system.computed_bytes", "B", "lower"),
    ("system.solve_block_system.near_singular", "count", "lower"),
    # problems_per_s on rate_sweeps only
    ("comparison.estimate_operator_norm.self_s", "s", "lower"),
    ("comparison.estimate_operator_norm.calls", "count", "lower"),
    ("comparison.estimate_operator_norm.blocks", "count", "lower"),
    ("comparison.estimate_operator_norm.dense_elems", "count", "lower"),
    ("comparison.estimate_operator_norm.failed", "count", "lower"),
    # problems_per_s on solve_ladder only
    ("operators.apply_symbol_to_spectrum.self_s", "s", "lower"),
    ("operators.apply_symbol_to_spectrum.calls", "count", "lower"),
    ("operators.apply_symbol_to_spectrum.points", "count", "lower"),
    # problems_per_s on rate_sweeps, problem_s_p50 on roundtrip_many; assembly
    # covers the discrete, continuous and section_gap window entry points, and
    # symbols.eval every factor and symbol evaluation
    ("system.assemble.self_s", "s", "lower"),
    ("system.assemble.calls", "count", "lower"),
    ("symbols.eval.self_s", "s", "lower"),
    ("symbols.eval.points", "count", "lower"),
    # problem_s_p50 on roundtrip_many
    ("operators.boundary_trace_spectrum.self_s", "s", "lower"),
    ("operators.boundary_trace_spectrum.calls", "count", "lower"),
    ("system.reconstruct_solution.self_s", "s", "lower"),
    ("system.reconstruct_solution.calls", "count", "lower"),
    ("system.project_out_gauge.self_s", "s", "lower"),
    ("system.project_out_gauge.calls", "count", "lower"),
    ("system.manufactured_roundtrip.self_s", "s", "lower"),
    ("system.manufactured_roundtrip.calls", "count", "lower"),
    ("lattice.sobolev_norm.self_s", "s", "lower"),
    ("lattice.sobolev_norm.calls", "count", "lower"),
    # problems_per_s on rate_sweeps
    ("comparison.rate_sweep.self_s", "s", "lower"),
    ("comparison.kernel_gap_ratios.self_s", "s", "lower"),
    ("comparison.kernel_gap_ratios.calls", "count", "lower"),
    # under 1% on solve_ladder and rate_sweeps; a CLI rewrite leaves them flat
    ("cli.load_config.self_s", "s", "lower"),
    ("cli.write_report.self_s", "s", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    # time inside a problem outside every hooked layer, then the traced pass
    # and the tracing overhead: traced against untraced passes
    ("bench.problem.self_s", "s", "lower"),
    ("bench.traced_pass_s", "s", "lower"),
    ("bench.traced_problems_per_s", "1/s", "higher"),
    ("bench.untraced_problems_per_s", "1/s", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
]

# count names aggregated by maximum rather than by sum
MAX_COUNTS = {"dim_max"}

ROOT_SPAN = "bench.problem"


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, problem id, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.problem: str | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.problem, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, counts: dict | None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    def run_problem(self, problem_id: str, fn):
        """Run one benchmark problem inside a root span."""
        self.problem = problem_id
        index = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(index, None)
            self.problem = None

    def wrap(self, fn, name: str, count=None, errors: dict | None = None):
        """Return ``fn`` recorded as span ``name``.

        ``count(args, kwargs, result)`` gives the span's work counts;
        ``errors`` maps an exception type to the count it increments.  A
        call made while a span of the same name is innermost is not
        recorded again (symbol evaluators nest through ``full_symbol``).
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = self._open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts = {key: 1 for etype, key in (errors or {}).items()
                          if isinstance(exc, etype)}
                if count is not None:
                    counts.update(count(args, kwargs, None))
                raise
            else:
                if count is not None:
                    counts = count(args, kwargs, result)
            finally:
                self._close(index, counts)
            return result
        return traced


def self_times(spans: list[list], lo: int, hi: int) -> dict[str, dict[str, float]]:
    """Per-layer self time, calls and summed counts of spans[lo:hi]."""
    child = [0.0] * (hi - lo)
    for span in spans[lo:hi]:
        if span[3] >= lo:
            child[span[3] - lo] += span[2] - span[1]
    layers: dict[str, dict[str, float]] = {}
    for span, inner in zip(spans[lo:hi], child):
        stats = layers.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        stats["self_s"] += (span[2] - span[1]) - inner
        stats["calls"] += 1
        for key, value in (span[5] or {}).items():
            if key in MAX_COUNTS:
                stats[key] = max(stats.get(key, 0), value)
            else:
                stats[key] = stats.get(key, 0) + value
    return layers


# ---------------------------------------------------------------------------
# counts, computed from argument shapes

def _solve_counts(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    dim = 2 * system.n * len(system.nodes)
    return {"dim_max": dim, "computed_bytes": 16 * dim * dim}


def _norm_counts(args, kwargs, result):
    frame = args[0] if args else kwargs["frame"]
    blocks = [b for row in frame.blocks for b in row if b is not None]
    return {"blocks": len(blocks), "dense_elems": sum(int(np.size(b)) for b in blocks)}


def _window_counts(args, kwargs, result):
    window = args[2] if len(args) > 2 else kwargs["window"]
    return {"points": len(window)}


def _eval_points(xi) -> dict:
    return {"points": int(np.broadcast(*xi).size)}


def install(tracer: Tracer):
    """Install every hook; return an undo function and the targets that do
    not exist in this version of the package."""
    from quadbvp.errors import NearSingularError, NormEstimateError

    hooks = [
        # (module, attribute, span name, count, errors)
        ("system", "solve_block_system", "system.solve_block_system", _solve_counts,
         {NearSingularError: "near_singular"}),
        ("cli", "solve_block_system", "system.solve_block_system", _solve_counts,
         {NearSingularError: "near_singular"}),
        ("comparison", "estimate_operator_norm", "comparison.estimate_operator_norm",
         _norm_counts, {NormEstimateError: "failed"}),
        ("cli", "apply_symbol_to_spectrum", "operators.apply_symbol_to_spectrum",
         _window_counts, None),
        ("operators", "apply_symbol_to_spectrum", "operators.apply_symbol_to_spectrum",
         _window_counts, None),
        ("system", "assemble_discrete_system", "system.assemble", None, None),
        ("cli", "assemble_discrete_system", "system.assemble", None, None),
        ("comparison", "assemble_continuous_system", "system.assemble", None, None),
        ("comparison", "_assemble", "system.assemble", None, None),
        ("system", "boundary_trace_spectrum", "operators.boundary_trace_spectrum", None, None),
        ("cli", "boundary_trace_spectrum", "operators.boundary_trace_spectrum", None, None),
        ("system", "reconstruct_solution", "system.reconstruct_solution", None, None),
        ("cli", "reconstruct_solution", "system.reconstruct_solution", None, None),
        ("system", "project_out_gauge", "system.project_out_gauge", None, None),
        ("system", "manufactured_roundtrip", "system.manufactured_roundtrip", None, None),
        ("cli", "manufactured_roundtrip", "system.manufactured_roundtrip", None, None),
        ("system", "sobolev_norm_1d", "lattice.sobolev_norm", None, None),
        ("cli", "sobolev_norm_1d", "lattice.sobolev_norm", None, None),
        ("cli", "sobolev_norm_2d", "lattice.sobolev_norm", None, None),
        ("cli", "commutator_rate_sweep", "comparison.rate_sweep", None, None),
        ("cli", "section_gap_rate_sweep", "comparison.rate_sweep", None, None),
        ("cli", "kernel_gap_ratios", "comparison.kernel_gap_ratios", None, None),
        ("cli", "load_config", "cli.load_config", None, None),
        ("cli", "write_report", "cli.write_report", None, None),
        ("cli", "run_experiment", "cli.run_experiment", None, None),
    ]
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    modules = {name: importlib.import_module(f"quadbvp.{name}")
               for name in ("system", "cli", "comparison", "operators", "symbols")}
    for module, attr, name, count, errors in hooks:
        owner = modules[module]
        if not hasattr(owner, attr):
            missing.append(f"quadbvp.{module}.{attr}")
            continue
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, count, errors))

    # symbol evaluations: boundary and full symbols go through
    # PeriodicSymbol.__call__; factor and continuous symbol evaluators are
    # plain callables, wrapped where the factories that build them return
    def evaluator(fn):
        return tracer.wrap(fn, "symbols.eval", lambda a, k, r: _eval_points(a))

    periodic = modules["symbols"].PeriodicSymbol
    patch(periodic, "__call__",
          tracer.wrap(periodic.__call__, "symbols.eval", lambda a, k, r: _eval_points(a[1:])))

    def traced_factors(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            fac = factory(*args, **kwargs)
            return dataclasses.replace(fac, plus_factor=evaluator(fac.plus_factor),
                                       minus_factor=evaluator(fac.minus_factor))
        return build

    def traced_problem(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            p = factory(*args, **kwargs)
            return dataclasses.replace(
                p, plus_factor=evaluator(p.plus_factor),
                bottom_symbols=tuple(map(evaluator, p.bottom_symbols)),
                left_symbols=tuple(map(evaluator, p.left_symbols)))
        return build

    for module, attr, wrapper in (("symbols", "builtin_factor_family", traced_factors),
                                  ("cli", "builtin_factor_family", traced_factors),
                                  ("cli", "radial_power_problem", traced_problem)):
        owner = modules[module]
        if hasattr(owner, attr):
            patch(owner, attr, wrapper(getattr(owner, attr)))
        else:
            missing.append(f"quadbvp.{module}.{attr}")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, missing
