"""Config-driven experiment runner.

Subcommands::

    quadbvp run <config>        execute an experiment, write CSV + summary
    quadbvp validate <config>   parse and validate a config, run nothing
    quadbvp schema <mode>       print every config key the mode accepts, with
                                its default, plus CSV columns and gates

Configs are flat INI-style text: ``[section]`` headers and ``key = value``
lines.  ``#`` and ``;`` start a comment, on a line of its own or after a
value, so values cannot contain those characters.  A key the mode does not
accept is an error.  ``[symbols] boundary`` defaults to ``row_trace``.
Modes:

    solve        plant seeded traces, synthesize their boundary data, solve,
                 gate the recovered traces against the planted ones, and
                 report solution norms, solver diagnostics and interior
                 residuals
    kernel_gap   lattice-vs-continuous kernel gap ratios over a mesh sweep
    commutator   decay rate of the restriction commutator
    section_gap  decay rate of the restricted-minus-lattice operator gap

Only solve draws random numbers and takes ``[experiment] seed``, a
non-negative integer.

Each run writes ``<mode>.csv`` (first line ``# schema=<mode>-v1``) and
``<mode>_summary.txt`` (key = value lines, one gate verdict per line) into
the output directory (config ``output``, overridden by the
``QUADBVP_OUTPUT_DIR`` environment variable).  Exit status: 0 all gates
pass, 1 a gate failed, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (AssemblyError, ConfigError, InvalidConfigurationError,
                     NearSingularError, NormEstimateError)
from .lattice import FrequencyGrid, SpectralFunction, sobolev_norm_1d, sobolev_norm_2d
from .symbols import PeriodicSymbol, builtin_factor_family
from .operators import apply_symbol_to_spectrum
from .system import (ProblemSpec, manufactured_roundtrip, radial_power_problem,
                     random_trace_vector, reconstruct_solution,
                     row_trace_boundary_operators, zeta_boundary_operators)
from .comparison import (FIT_MIN_SIZES, check_lambda_factor, check_rate_sweep, check_sweep,
                         check_window_nodes, commutator_rate_sweep, kernel_gap_ratios,
                         section_gap_rate_sweep)

OUTPUT_ENV_VAR = "QUADBVP_OUTPUT_DIR"

ROUNDTRIP_TOL = 1.0e-6
RESIDUAL_TOL = 1.0e-10
RESIDUAL_COND_LIMIT = 1.0e8
KERNEL_GAP_GROWTH_TOL = 0.10
SECTION_GAP_SLOPE_MIN = 0.9
COMMUTATOR_SLOPE_FACTOR = 0.9

BOUNDARY_OPERATORS = {"zeta": zeta_boundary_operators,
                      "row_trace": row_trace_boundary_operators}
# the [symbols] parameters each factor family needs
FAMILY_FIELDS = {"geometric": ("a",), "shifted_zeta": ("c", "kappa")}


# ---------------------------------------------------------------------------
# config parsing

def parse_config_text(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Parse flat ``[section]`` / ``key = value`` text, tracking line numbers."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split("[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError("empty section name", line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


class ExperimentConfig(SimpleNamespace):
    """Validated experiment: one attribute per field of the mode, named by
    its key, with ``output`` as a path, plus ``problem``, the library problem
    the fields describe (a ``ProblemSpec`` for solve, a
    ``ContinuousProblem`` for the rate modes)."""


def _floats(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _mesh_sizes(minimum: int) -> Callable[[str], tuple[float, ...]]:
    """Parser of a mesh sweep of at least ``minimum`` sizes (:func:`check_sweep`)."""
    return lambda text: check_sweep(_floats(text), minimum)


def _checked(convert: Callable[[str], object], ok: Callable[[object], bool],
             what: str) -> Callable[[str], object]:
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {what}, got {value}")
        return value
    return parse


def _lattice_problem(cfg: ExperimentConfig) -> ProblemSpec:
    for key in FAMILY_FIELDS[cfg.family]:
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing required field {key!r} for family "
                              f"{cfg.family} in section [symbols]")
    fac = builtin_factor_family(cfg.family, cfg.h, a=cfg.a, p=cfg.p, q=cfg.q,
                                c=cfg.c, kappa=cfg.kappa)
    bottom, left = BOUNDARY_OPERATORS[cfg.boundary](cfg.n, cfg.h)
    return ProblemSpec(s=cfg.s, factorization=fac, n=cfg.n, delta=cfg.delta,
                       bottom_ops=bottom, left_ops=left)


def _rate_problem(cfg: ExperimentConfig):
    """The continuous problem, once it and the sweep pass the checks the
    mode's measurement opens with (:func:`check_rate_sweep`)."""
    for key in ("betas", "gammas"):
        if len(getattr(cfg, key)) != cfg.n:
            raise ConfigError(f"{key} in [continuous] must have n = {cfg.n} entries, "
                              f"got {len(getattr(cfg, key))}")
    problem = radial_power_problem(s=cfg.s, n=cfg.n, delta=cfg.delta,
                                   bottom_orders=cfg.betas, left_orders=cfg.gammas)
    # kernel_gap measures each mesh size on a line of its own
    sweeps = [(h,) for h in cfg.h_values] if cfg.mode == "kernel_gap" else [cfg.h_values]
    for hs in sweeps:
        check_rate_sweep(cfg.mode, problem, hs, cfg.nodes_per_window, cfg.lambda_factor)
    return problem


# ---------------------------------------------------------------------------
# report plumbing

@dataclass
class GateVerdict:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    mode: str
    rows: list[tuple]
    verdicts: list[GateVerdict]
    summary: dict[str, object]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        # numpy float scalars are floats too; repr them as plain numbers
        return repr(float(value))
    return str(value)


def write_report(report: ExperimentReport, outdir: Path,
                 wall_seconds: float) -> tuple[Path, Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{report.mode}.csv"
    with open(csv_path, "w") as f:
        f.write(f"# schema={report.mode}-v1\n")
        f.write(",".join(MODES[report.mode].columns) + "\n")
        for row in report.rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    summary_path = outdir / f"{report.mode}_summary.txt"
    with open(summary_path, "w") as f:
        f.write(f"mode = {report.mode}\n")
        for key, value in report.summary.items():
            f.write(f"{key} = {_fmt(value)}\n")
        for v in report.verdicts:
            f.write(f"gate_{v.name} = {'PASS' if v.passed else 'FAIL'} ({v.detail})\n")
        f.write(f"all_gates = {'PASS' if report.all_passed else 'FAIL'}\n")
        f.write(f"wall_seconds = {wall_seconds:.3f}\n")
    return csv_path, summary_path


# ---------------------------------------------------------------------------
# mode runners

def _run_solve(cfg: ExperimentConfig) -> ExperimentReport:
    """Round trip of seeded planted traces, gated on their recovery and on
    the solve's residual, then the solution's interior residuals.  Two-edge
    data must agree at the corner, so the data are synthesized from a
    planted spectrum rather than drawn independently."""
    spec = cfg.problem
    grid = FrequencyGrid(cfg.h, cfg.N)
    planted = random_trace_vector(np.random.default_rng(cfg.seed),
                                  FrequencyGrid(cfg.h, cfg.N, ndim=1), cfg.n)
    rep = manufactured_roundtrip(spec, planted, grid)
    traces = rep.recovered
    u_hat = reconstruct_solution(traces, spec.factorization, grid)
    u_norm = sobolev_norm_2d(u_hat, cfg.s)

    full = PeriodicSymbol(lambda a, b: spec.factorization.full_symbol(a, b),
                          order=0.0, h=cfg.h)
    points = [(i, j) for i in range(cfg.n, cfg.n + 5) for j in range(cfg.n, cfg.n + 5)]
    residual_fn = apply_symbol_to_spectrum(full, u_hat, points)
    rows = []
    worst = 0.0
    (a1, _), (a2, _) = residual_fn.support_box
    for i, j in points:
        r = abs(residual_fn.values[i - a1, j - a2])
        worst = max(worst, r)
        rows.append((cfg.h, cfg.N, i, j, r))

    applies = rep.condition <= RESIDUAL_COND_LIMIT
    verdicts = [
        GateVerdict("roundtrip_rel_error", rep.rel_error <= ROUNDTRIP_TOL,
                    f"rel_error {rep.rel_error:.3e} vs {ROUNDTRIP_TOL:.0e}"),
        GateVerdict("solve_residual", not applies or rep.residual <= RESIDUAL_TOL,
                    f"residual {rep.residual:.3e} vs {RESIDUAL_TOL:.0e} at condition "
                    f"{rep.condition:.3e}" if applies else
                    f"not applicable: condition {rep.condition:.3e} > {RESIDUAL_COND_LIMIT:.0e}"),
    ]
    summary = {"h": cfg.h, "N": cfg.N, "seed": cfg.seed,
               "family": spec.factorization.label, "boundary": cfg.boundary,
               "rel_error": rep.rel_error, "condition": rep.condition, "residual": rep.residual,
               "multiplier_condition": rep.multiplier_condition,
               "kernel_rank_bottom": rep.kernel_rank[0], "kernel_rank_left": rep.kernel_rank[1],
               "solution_norm": u_norm, "max_interior_residual": worst}
    functions = [SpectralFunction(traces.grid, row) for row in traces.values]
    for k, s_k in enumerate(spec.trace_exponents):
        summary[f"bottom_trace_norm_{k}"] = sobolev_norm_1d(functions[k], s_k)
        summary[f"left_trace_norm_{k}"] = sobolev_norm_1d(functions[spec.n + k], s_k)
    return ExperimentReport("solve", rows, verdicts, summary)


def _run_kernel_gap(cfg: ExperimentConfig) -> ExperimentReport:
    rows = []
    per_family: dict[str, list[float]] = {}
    for h in cfg.h_values:
        ratios = kernel_gap_ratios(cfg.problem, float(h),
                                   nodes_per_window=cfg.nodes_per_window,
                                   lambda_factor=cfg.lambda_factor)
        for j, k in np.ndindex(cfg.n, cfg.n):
            rows.extend((float(h), j, k, f, float(r[j, k])) for f, r in ratios.items())
        for f, r in ratios.items():
            per_family.setdefault(f, []).append(float(r.max()))
    growth_worst = 0.0
    for vals in per_family.values():
        for a, b in zip(vals, vals[1:]):
            if a > 0:
                growth_worst = max(growth_worst, b / a - 1.0)
    verdicts = [GateVerdict(
        "kernel_gap_growth", growth_worst <= KERNEL_GAP_GROWTH_TOL,
        f"worst per-halving growth {growth_worst:+.2%} vs {KERNEL_GAP_GROWTH_TOL:.0%}")]
    summary = {"s": cfg.s, "n": cfg.n, "delta": cfg.delta, "h_values": cfg.h_values,
               "nodes_per_window": cfg.nodes_per_window,
               "worst_growth": growth_worst}
    for f, vals in per_family.items():
        summary[f"max_ratio_{f}"] = max(vals)
    return ExperimentReport("kernel_gap", rows, verdicts, summary)


def _rate_mode(cfg: ExperimentConfig, sweep_fn, gate_name: str,
               slope_floor_fn) -> ExperimentReport:
    report = sweep_fn(cfg.problem, cfg.h_values,
                      nodes_per_window=cfg.nodes_per_window,
                      lambda_factor=cfg.lambda_factor)
    rows = [(float(h), wn, float(norm))
            for h, wn, norm in zip(report.h_values, report.window_nodes, report.norms)]
    floor = slope_floor_fn(report)
    if report.slope is None:
        h, norm = next((h, v) for h, v in zip(report.h_values, report.norms)
                       if not 0.0 < v < math.inf)
        verdicts = [GateVerdict(gate_name, False, f"degenerate sweep: norm {norm!r} "
                                f"at h = {h:g} is not positive and finite")]
    else:
        verdicts = [GateVerdict(gate_name, report.slope >= floor,
                                f"slope {report.slope:.4f} vs floor {floor:.4f}")]
    summary = {"s": cfg.s, "n": cfg.n, "delta": cfg.delta, "h_values": cfg.h_values,
               "nodes_per_window": cfg.nodes_per_window,
               "lambda_factor": cfg.lambda_factor,
               "slope": report.slope if report.slope is not None else "degenerate",
               "epsilon": report.epsilon,
               "monotone_violations": report.monotone_violations or "none"}
    return ExperimentReport(cfg.mode, rows, verdicts, summary)


# ---------------------------------------------------------------------------
# mode and field tables

class Mode(NamedTuple):
    run: Callable[[ExperimentConfig], ExperimentReport]
    # builds the library problem the fields describe; ValueError if they
    # are inconsistent
    build: Callable[[ExperimentConfig], object]
    columns: tuple[str, ...]
    gates: tuple[str, ...]


_RATE_COLUMNS = ("h", "window_nodes", "norm")

# The sweeps are looked up when a run starts, not bound here, so that
# replacing them on this module (as a profiler's wrappers do) takes effect.
MODES = {
    "solve": Mode(
        _run_solve, _lattice_problem,
        ("h", "N", "point_i1", "point_i2", "abs_residual"),
        (f"roundtrip_rel_error: recovered traces within {ROUNDTRIP_TOL:.0e} of planted",
         f"solve_residual: linear-solve residual <= {RESIDUAL_TOL:.0e} "
         f"when condition <= {RESIDUAL_COND_LIMIT:.0e}")),
    "kernel_gap": Mode(
        _run_kernel_gap, _rate_problem,
        ("h", "j", "k", "family", "ratio"),
        (f"kernel_gap_growth: per-family max ratio grows <= {KERNEL_GAP_GROWTH_TOL:.0%} "
         "per h halving",)),
    "commutator": Mode(
        lambda cfg: _rate_mode(cfg, commutator_rate_sweep, "commutator_slope",
                               lambda rep: COMMUTATOR_SLOPE_FACTOR * rep.epsilon),
        _rate_problem, _RATE_COLUMNS,
        (f"commutator_slope: fitted slope >= {COMMUTATOR_SLOPE_FACTOR:g} "
         "* predicted exponent",)),
    "section_gap": Mode(
        lambda cfg: _rate_mode(cfg, section_gap_rate_sweep, "section_gap_slope",
                               lambda rep: SECTION_GAP_SLOPE_MIN),
        _rate_problem, _RATE_COLUMNS,
        (f"section_gap_slope: fitted slope >= {SECTION_GAP_SLOPE_MIN:g}",)),
}

REQUIRED = object()


class Field(NamedTuple):
    section: str
    key: str
    parse: Callable[[str], object] | tuple[str, ...]  # converter, or the choices
    modes: tuple[str, ...]
    default: object = REQUIRED  # a value, REQUIRED, or {mode: value}


LATTICE = ("solve",)
RATES = ("kernel_gap", "commutator", "section_gap")
_ORDERS = {"kernel_gap": (0.0, -1.0), "commutator": (0.0,), "section_gap": (0.0, -1.0)}
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "a non-negative integer")

# Ceilings on the sizes a config asks for, each checked when its field is
# read, so that a size no run could allocate exits 2 at validate.  The most
# nodes a torus axis may hold: the lattice modes keep (N, N) complex arrays
# (the spectrum, the inverse plus factor, each kernel core), 64 MiB each at
# 2^11, over 5 times the largest shipped or benchmarked N, 384.
GRID_NODES_MAX = 2 ** 11
# The most boundary operators per edge, [problem] n and [continuous] n: the
# multipliers are (2, n, n, N) complex stacks, 8 MiB at n = 8 and N =
# GRID_NODES_MAX, 4 times the largest shipped n, 2.  The ceilings bound each
# size alone: a run at both would still keep 8 cores of 64 MiB per edge.  A
# rate sweep's arrays are bounded as a whole (comparison.STRIP_ENTRIES_MAX).
PROBLEM_N_MAX = 8
# The range of [grid] h.  The seeded trace data are Gaussian bumps whose
# widths, 0.08 to 0.25 times the torus half width pi/h, are squared: the
# square overflows past a width of 1.3e154 (h = 1e-200 raises so), is
# subnormal below 1.5e-154 and 0 below 2.2e-162, which makes the data NaN
# (h = 1e300).  Within 1e-150 and 1e150 every squared width is a normal
# float with a factor over 1e6 to spare; the shipped and benchmarked h
# are 1 and 0.5.
GRID_H_RANGE = (1e-150, 1e150)
_PROBLEM_N = _checked(int, lambda v: v <= PROBLEM_N_MAX, f"<= {PROBLEM_N_MAX}")

FIELDS = (
    Field("experiment", "mode", tuple(MODES), tuple(MODES)),
    Field("experiment", "seed", _NON_NEGATIVE, LATTICE, 0),
    Field("experiment", "output", str, tuple(MODES), "out"),
    Field("symbols", "family", tuple(FAMILY_FIELDS), LATTICE),
    Field("symbols", "a", float, LATTICE, None),
    Field("symbols", "p", int, LATTICE, 1),
    Field("symbols", "q", int, LATTICE, 1),
    Field("symbols", "c", float, LATTICE, None),
    Field("symbols", "kappa", float, LATTICE, None),
    Field("symbols", "boundary", tuple(BOUNDARY_OPERATORS), LATTICE, "row_trace"),
    Field("problem", "s", float, LATTICE),
    Field("problem", "n", _PROBLEM_N, LATTICE),
    Field("problem", "delta", float, LATTICE),
    Field("grid", "N", _checked(int, lambda v: 0 < v <= GRID_NODES_MAX and v % 2 == 0,
                                f"a positive even integer <= {GRID_NODES_MAX}"), LATTICE),
    Field("grid", "h", _checked(float, lambda v: GRID_H_RANGE[0] <= v <= GRID_H_RANGE[1],
                                f"a mesh size h from {GRID_H_RANGE[0]:g} to {GRID_H_RANGE[1]:g}"),
          LATTICE),
    Field("continuous", "s", float, RATES,
          {"kernel_gap": 8.25, "commutator": 2.25, "section_gap": 3.25}),
    Field("continuous", "n", _PROBLEM_N, RATES,
          {"kernel_gap": 2, "commutator": 1, "section_gap": 2}),
    Field("continuous", "delta", float, RATES, -0.25),
    Field("continuous", "betas", _floats, RATES, _ORDERS),
    Field("continuous", "gammas", _floats, RATES, _ORDERS),
    # a growth needs two sizes, a fitted slope three
    Field("sweep", "h_values", _mesh_sizes(2), ("kernel_gap",), (1.0, 0.5, 0.25)),
    Field("sweep", "h_values", _mesh_sizes(FIT_MIN_SIZES), ("commutator", "section_gap"),
          (0.5, 0.25, 0.125, 0.0625)),
    Field("sweep", "nodes_per_window", lambda text: check_window_nodes(int(text)), RATES,
          {"kernel_gap": 64, "commutator": 32, "section_gap": 32}),
    Field("sweep", "lambda_factor", lambda text: check_lambda_factor(float(text)), RATES, 4.0),
)


def _default(field: Field, mode: str):
    return field.default[mode] if isinstance(field.default, dict) else field.default


def _read(field: Field, sections: dict[str, dict[str, tuple[str, int]]], mode: str):
    entry = sections.get(field.section, {}).get(field.key)
    if entry is None:
        default = _default(field, mode)
        if default is REQUIRED:
            raise ConfigError(
                f"missing required field {field.key!r} in section [{field.section}]")
        return default
    text, line = entry
    if isinstance(field.parse, tuple):
        if text not in field.parse:
            raise ConfigError(f"unknown {field.key} {text!r}; expected one of "
                              f"{', '.join(field.parse)}", line=line)
        return text
    try:
        return field.parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {field.key!r}: {exc}", line=line) from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file, and build the problem it describes."""
    sections = parse_config_text(Path(path).read_text())
    mode = _read(FIELDS[0], sections, "")  # the mode picks the other fields
    fields = [f for f in FIELDS if mode in f.modes]
    known = {(f.section, f.key) for f in fields}
    for name, body in sections.items():
        if name not in {section for section, _ in known}:
            raise ConfigError(f"unknown section [{name}]")
        for key, (_, line) in body.items():
            if (name, key) not in known:
                raise ConfigError(f"unknown key {key!r} in [{name}]", line=line)
    cfg = ExperimentConfig(**{f.key: _read(f, sections, mode) for f in fields})
    cfg.output = Path(os.environ.get(OUTPUT_ENV_VAR) or cfg.output)
    try:
        cfg.problem = MODES[mode].build(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


# ---------------------------------------------------------------------------
# entry points

def run_experiment(cfg: ExperimentConfig) -> tuple[ExperimentReport, Path, Path]:
    start = time.perf_counter()
    report = MODES[cfg.mode].run(cfg)
    wall = time.perf_counter() - start
    csv_path, summary_path = write_report(report, cfg.output, wall)
    return report, csv_path, summary_path


def _load_or_report(path: str) -> ExperimentConfig | None:
    """The config at ``path``, or None after reporting why it cannot be used."""
    try:
        return load_config(path)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _cmd_run(path: str) -> int:
    cfg = _load_or_report(path)
    if cfg is None:
        return 2
    try:
        report, csv_path, summary_path = run_experiment(cfg)
    except InvalidConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NearSingularError, NormEstimateError, AssemblyError) as exc:
        print(f"numerical failure in mode {cfg.mode}: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"config error: mode {cfg.mode} ran out of memory: the config's sizes pass "
              "their ceilings but do not fit in memory", file=sys.stderr)
        return 2
    for v in report.verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    print(f"wrote {csv_path} and {summary_path}")
    return 0 if report.all_passed else 1


def _cmd_validate(path: str) -> int:
    cfg = _load_or_report(path)
    if cfg is None:
        return 2
    seed = f" seed={cfg.seed}" if "seed" in vars(cfg) else ""
    print(f"OK: mode={cfg.mode}{seed} output={cfg.output}")
    return 0


def _cmd_schema(mode: str) -> int:
    if mode not in MODES:
        print(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}",
              file=sys.stderr)
        return 2
    print(f"mode: {mode}")
    print(f"csv header: # schema={mode}-v1")
    print(f"csv columns: {', '.join(MODES[mode].columns)}")
    print("config keys (every key the mode accepts):")
    for f in FIELDS:
        if mode in f.modes:
            default = _default(f, mode)
            shown = ("required" if default is REQUIRED else "no default"
                     if default is None else f"default {_fmt(default)}")
            if isinstance(f.parse, tuple):
                shown += f"; one of {', '.join(f.parse)}"
            print(f"  [{f.section}] {f.key}: {shown}")
    print("gates:")
    for gate in MODES[mode].gates:
        print(f"  {gate}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadbvp",
        description="quadrant boundary value problem experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_schema = sub.add_parser("schema", help="describe a mode's config and CSV schema")
    p_schema.add_argument("mode")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "validate":
        return _cmd_validate(args.config)
    return _cmd_schema(args.mode)


if __name__ == "__main__":
    sys.exit(main())
