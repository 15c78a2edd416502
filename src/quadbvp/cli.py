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

    solve        solve one problem with seeded compatible data, report
                 solution norms, solver diagnostics and interior residuals
    roundtrip    plant seeded traces, synthesize data, solve, compare
    power_gap    sampled bound check for |(i xi)^k - zeta^k|
    kernel_gap   lattice-vs-continuous kernel gap ratios over a mesh sweep
    commutator   decay rate of the restriction commutator
    section_gap  decay rate of the restricted-minus-lattice operator gap

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
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (AssemblyError, ConfigError, InvalidConfigurationError,
                     NearSingularError, NormEstimateError)
from .lattice import FrequencyGrid, sobolev_norm_1d, sobolev_norm_2d
from .symbols import PeriodicSymbol, builtin_factor_family
from .operators import apply_symbol_to_spectrum, boundary_trace_spectrum
from .system import (ProblemSpec, assemble_discrete_system,
                     identity_boundary_operators, manufactured_roundtrip,
                     radial_power_problem, random_trace_vector,
                     reconstruct_solution, row_trace_boundary_operators,
                     solve_block_system, zeta_boundary_operators)
from .comparison import (commutator_rate_sweep, kernel_gap_ratios,
                         section_gap_rate_sweep, zeta_power_gap)

OUTPUT_ENV_VAR = "QUADBVP_OUTPUT_DIR"

ROUNDTRIP_TOL = 1.0e-6
RESIDUAL_TOL = 1.0e-10
RESIDUAL_COND_LIMIT = 1.0e8
HOMOGENEOUS_TOL = 1.0e-6
KERNEL_GAP_GROWTH_TOL = 0.10
SECTION_GAP_SLOPE_MIN = 0.9
COMMUTATOR_SLOPE_FACTOR = 0.9

BOUNDARY_OPERATORS = {"identity": identity_boundary_operators,
                      "zeta": zeta_boundary_operators,
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
    the fields describe (a ``ProblemSpec`` for solve and roundtrip, a
    ``ContinuousProblem`` for the rate modes, None for power_gap)."""


def _floats(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _decreasing(text: str) -> tuple[float, ...]:
    hs = _floats(text)
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_values must be a non-empty strictly decreasing list")
    return hs


def _int_where(ok: Callable[[int], bool], what: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
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


def _continuous_problem(cfg: ExperimentConfig):
    if len(cfg.betas) != cfg.n or len(cfg.gammas) != cfg.n:
        raise ConfigError(
            f"betas and gammas must each have n = {cfg.n} entries, got "
            f"{len(cfg.betas)} and {len(cfg.gammas)}")
    return radial_power_problem(s=cfg.s, n=cfg.n, delta=cfg.delta,
                                bottom_orders=cfg.betas, left_orders=cfg.gammas)


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


def _solve_residual_gate(condition: float, residual: float) -> GateVerdict:
    if condition <= RESIDUAL_COND_LIMIT:
        return GateVerdict(
            "solve_residual", residual <= RESIDUAL_TOL,
            f"residual {residual:.3e} vs {RESIDUAL_TOL:.0e} at condition {condition:.3e}")
    return GateVerdict("solve_residual", True,
                       f"not applicable: condition {condition:.3e} > {RESIDUAL_COND_LIMIT:.0e}")


# ---------------------------------------------------------------------------
# mode runners

def _run_roundtrip(cfg: ExperimentConfig) -> ExperimentReport:
    spec = cfg.problem
    grid = FrequencyGrid(cfg.h, cfg.N)
    grid1 = FrequencyGrid(cfg.h, cfg.N, ndim=1)
    rng = np.random.default_rng(cfg.seed)
    planted = random_trace_vector(rng, grid1, cfg.n)
    rep = manufactured_roundtrip(spec, planted, grid)
    rows = [(cfg.h, cfg.N, rep.rel_error, rep.condition, rep.residual)]
    verdicts = [
        GateVerdict("roundtrip_rel_error", rep.rel_error <= ROUNDTRIP_TOL,
                    f"rel_error {rep.rel_error:.3e} vs {ROUNDTRIP_TOL:.0e}"),
        _solve_residual_gate(rep.condition, rep.residual),
    ]
    summary = {"h": cfg.h, "N": cfg.N, "seed": cfg.seed,
               "family": spec.factorization.label, "boundary": cfg.boundary,
               "rel_error": rep.rel_error, "condition": rep.condition,
               "residual": rep.residual}
    return ExperimentReport("roundtrip", rows, verdicts, summary)


def _run_solve(cfg: ExperimentConfig) -> ExperimentReport:
    spec = cfg.problem
    grid = FrequencyGrid(cfg.h, cfg.N)
    grid1 = FrequencyGrid(cfg.h, cfg.N, ndim=1)
    rng = np.random.default_rng(cfg.seed)
    planted = random_trace_vector(rng, grid1, cfg.n)
    # compatible data: two-edge data must agree at the corner, so it is
    # synthesized from a planted spectrum rather than drawn independently
    u_planted = reconstruct_solution(planted, spec.factorization, grid)
    spec = replace(
        spec,
        bottom_data=tuple(boundary_trace_spectrum(op, u_planted) for op in spec.bottom_ops),
        left_data=tuple(boundary_trace_spectrum(op, u_planted) for op in spec.left_ops))
    system = assemble_discrete_system(spec, grid)
    traces, rep = solve_block_system(system)
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

    verdicts = [
        _solve_residual_gate(rep.condition, rep.residual),
        GateVerdict("homogeneous_residual", worst <= HOMOGENEOUS_TOL * u_norm,
                    f"max |A u| {worst:.3e} vs {HOMOGENEOUS_TOL:.0e} * ||u|| "
                    f"= {HOMOGENEOUS_TOL * u_norm:.3e}"),
    ]
    summary = {"h": cfg.h, "N": cfg.N, "seed": cfg.seed,
               "family": spec.factorization.label, "boundary": cfg.boundary,
               "condition": rep.condition, "residual": rep.residual,
               "solution_norm": u_norm,
               "max_interior_residual": worst}
    for k, s_k in enumerate(spec.trace_exponents):
        summary[f"bottom_trace_norm_{k}"] = sobolev_norm_1d(traces.bottom[k], s_k)
        summary[f"left_trace_norm_{k}"] = sobolev_norm_1d(traces.left[k], s_k)
    return ExperimentReport("solve", rows, verdicts, summary)


def _run_power_gap(cfg: ExperimentConfig) -> ExperimentReport:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    total_violations = 0
    for h in cfg.h_values:
        xi = rng.uniform(-math.pi / h, math.pi / h, size=cfg.samples)
        for k in range(1, cfg.k_max + 1):
            res = zeta_power_gap(xi, k, h)
            positive = res.bound > 0
            ratio = float(np.max(res.gap[positive] / res.bound[positive])) \
                if np.any(positive) else 0.0
            violations = int(np.sum(res.gap > res.bound * (1 + 1e-12) + 1e-300))
            total_violations += violations
            rows.append((float(h), k, float(np.max(res.gap)),
                         float(np.max(res.bound)), ratio, violations))
    verdicts = [GateVerdict("power_gap_bound", total_violations == 0,
                            f"{total_violations} violations over "
                            f"{len(cfg.h_values) * cfg.k_max * cfg.samples} samples")]
    summary = {"seed": cfg.seed, "samples": cfg.samples, "k_max": cfg.k_max,
               "h_values": cfg.h_values, "total_violations": total_violations}
    return ExperimentReport("power_gap", rows, verdicts, summary)


def _run_kernel_gap(cfg: ExperimentConfig) -> ExperimentReport:
    families = ("bottom_mult", "bottom_kernel", "left_kernel", "left_mult")
    rows = []
    per_family: dict[str, list[float]] = {f: [] for f in families}
    for h in cfg.h_values:
        worst = {f: 0.0 for f in families}
        for j in range(cfg.n):
            for k in range(cfg.n):
                ratios = kernel_gap_ratios(cfg.problem, float(h), j, k,
                                           nodes_per_window=cfg.nodes_per_window,
                                           lambda_factor=cfg.lambda_factor)
                for f in families:
                    worst[f] = max(worst[f], ratios[f])
                    rows.append((float(h), j, k, f, ratios[f]))
        for f in families:
            per_family[f].append(worst[f])
    growth_worst = 0.0
    for f in families:
        vals = per_family[f]
        for a, b in zip(vals, vals[1:]):
            if a > 0:
                growth_worst = max(growth_worst, b / a - 1.0)
    verdicts = [GateVerdict(
        "kernel_gap_growth", growth_worst <= KERNEL_GAP_GROWTH_TOL,
        f"worst per-halving growth {growth_worst:+.2%} vs {KERNEL_GAP_GROWTH_TOL:.0%}")]
    summary = {"s": cfg.s, "n": cfg.n, "delta": cfg.delta, "h_values": cfg.h_values,
               "nodes_per_window": cfg.nodes_per_window,
               "worst_growth": growth_worst}
    for f in families:
        summary[f"max_ratio_{f}"] = max(per_family[f])
    return ExperimentReport("kernel_gap", rows, verdicts, summary)


def _rate_mode(cfg: ExperimentConfig, sweep_fn, gate_name: str,
               slope_floor_fn) -> ExperimentReport:
    report = sweep_fn(cfg.problem, cfg.h_values,
                      nodes_per_window=cfg.nodes_per_window,
                      lambda_factor=cfg.lambda_factor)
    rows = [(float(h), wn, float(norm))
            for h, wn, norm in zip(report.h_values, report.window_nodes, report.norms)]
    floor = slope_floor_fn(report)
    if report.degenerate or report.slope is None:
        verdicts = [GateVerdict(gate_name, False,
                                "degenerate sweep: no positive norms to fit")]
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


_SOLVE_GATE = "solve_residual: linear-solve residual <= 1e-10 when condition <= 1e8"
_RATE_COLUMNS = ("h", "window_nodes", "norm")

# The sweeps are looked up when a run starts, not bound here, so that
# replacing them on this module (as a profiler's wrappers do) takes effect.
MODES = {
    "solve": Mode(
        _run_solve, _lattice_problem,
        ("h", "N", "point_i1", "point_i2", "abs_residual"),
        (_SOLVE_GATE, "homogeneous_residual: |A u| <= 1e-6 ||u|| at interior points")),
    "roundtrip": Mode(
        _run_roundtrip, _lattice_problem,
        ("h", "N", "rel_error", "condition", "residual"),
        ("roundtrip_rel_error: recovered traces within 1e-6 of planted", _SOLVE_GATE)),
    "power_gap": Mode(
        _run_power_gap, lambda cfg: None,
        ("h", "k", "max_gap", "max_bound", "max_ratio", "violations"),
        ("power_gap_bound: zero pointwise violations of the first-order bound",)),
    "kernel_gap": Mode(
        _run_kernel_gap, _continuous_problem,
        ("h", "j", "k", "family", "ratio"),
        ("kernel_gap_growth: per-family max ratio grows <= 10% per h halving",)),
    "commutator": Mode(
        lambda cfg: _rate_mode(cfg, commutator_rate_sweep, "commutator_slope",
                               lambda rep: COMMUTATOR_SLOPE_FACTOR * rep.epsilon),
        _continuous_problem, _RATE_COLUMNS,
        ("commutator_slope: fitted slope >= 0.9 * predicted exponent",)),
    "section_gap": Mode(
        lambda cfg: _rate_mode(cfg, section_gap_rate_sweep, "section_gap_slope",
                               lambda rep: SECTION_GAP_SLOPE_MIN),
        _continuous_problem, _RATE_COLUMNS,
        ("section_gap_slope: fitted slope >= 0.9",)),
}

REQUIRED = object()


class Field(NamedTuple):
    section: str
    key: str
    parse: Callable[[str], object] | tuple[str, ...]  # converter, or the choices
    modes: tuple[str, ...]
    default: object = REQUIRED  # a value, REQUIRED, or {mode: value}


LATTICE = ("solve", "roundtrip")
RATES = ("kernel_gap", "commutator", "section_gap")
_HALVING = (0.5, 0.25, 0.125, 0.0625)
_ORDERS = {"kernel_gap": (0.0, -1.0), "commutator": (0.0,), "section_gap": (0.0, -1.0)}
_AT_LEAST_ONE = _int_where(lambda v: v >= 1, ">= 1")

FIELDS = (
    Field("experiment", "mode", tuple(MODES), tuple(MODES)),
    Field("experiment", "seed", int, tuple(MODES), 0),
    Field("experiment", "output", str, tuple(MODES), "out"),
    Field("symbols", "family", tuple(FAMILY_FIELDS), LATTICE),
    Field("symbols", "a", float, LATTICE, None),
    Field("symbols", "p", int, LATTICE, 1),
    Field("symbols", "q", int, LATTICE, 1),
    Field("symbols", "c", float, LATTICE, None),
    Field("symbols", "kappa", float, LATTICE, None),
    Field("symbols", "boundary", tuple(BOUNDARY_OPERATORS), LATTICE, "row_trace"),
    Field("problem", "s", float, LATTICE),
    Field("problem", "n", int, LATTICE),
    Field("problem", "delta", float, LATTICE),
    Field("grid", "N", _int_where(lambda v: v > 0 and v % 2 == 0,
                                  "a positive even integer"), LATTICE),
    Field("grid", "h", float, LATTICE),
    Field("continuous", "s", float, RATES,
          {"kernel_gap": 8.25, "commutator": 2.25, "section_gap": 3.25}),
    Field("continuous", "n", int, RATES, {"kernel_gap": 2, "commutator": 1, "section_gap": 2}),
    Field("continuous", "delta", float, RATES, -0.25),
    Field("continuous", "betas", _floats, RATES, _ORDERS),
    Field("continuous", "gammas", _floats, RATES, _ORDERS),
    Field("sweep", "h_values", _floats, ("power_gap",), (1.0, 0.5, 0.25, 0.125)),
    Field("sweep", "h_values", _decreasing, RATES,
          {"kernel_gap": (1.0, 0.5, 0.25), "commutator": _HALVING, "section_gap": _HALVING}),
    Field("sweep", "nodes_per_window", int, RATES,
          {"kernel_gap": 64, "commutator": 32, "section_gap": 32}),
    Field("sweep", "lambda_factor", float, RATES, 4.0),
    Field("sweep", "k_max", _AT_LEAST_ONE, ("power_gap",), 4),
    Field("sweep", "samples", _AT_LEAST_ONE, ("power_gap",), 10000),
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


def _cmd_run(path: str) -> int:
    try:
        cfg = load_config(path)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report, csv_path, summary_path = run_experiment(cfg)
    except InvalidConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NearSingularError, NormEstimateError, AssemblyError) as exc:
        print(f"numerical failure in mode {cfg.mode}: {exc}", file=sys.stderr)
        return 3
    for v in report.verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    print(f"wrote {csv_path} and {summary_path}")
    return 0 if report.all_passed else 1


def _cmd_validate(path: str) -> int:
    try:
        cfg = load_config(path)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"OK: mode={cfg.mode} seed={cfg.seed} output={cfg.output}")
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
