"""The benchmark's three workloads: seeded inputs and verified problems.

A workload hands out one pass of problems at a time.  Each problem is a
zero-argument callable that runs the program on one input and returns a
list of verification failures (empty when the result is verified).  The
numerical errors the program documents are caught by the runner and count
as failures too.

Library entry points are always called through their module (``cli.``,
``system.``, ``symbols.``), so that the traced run sees the hooks that
``tracing.py`` installs at those names.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from quadbvp import cli, lattice, symbols, system

# (n, N) of the CLI solve ladder; the largest size, (2, 512), alone would
# take ~7 s with the dense SVD solver and is left out.
SOLVE_LADDER = {"full": ((1, 256), (2, 256), (1, 384), (2, 384)),
                "tiny": ((1, 32), (2, 32))}
DELTA = 0.25

# roundtrip_many is stratified: every (n, N, h) combination appears equally
# often, so the cost mix (dominated by the dense solve at M = 2nN) is the
# same for every seed and throughput does not depend on the draw.
ROUNDTRIP_ORDERS = (1, 2)
ROUNDTRIP_N = {"full": (32, 48, 64), "tiny": (16, 24, 32)}
ROUNDTRIP_H = (1.0, 0.5)
ROUNDTRIP_REPEATS = {"full": 25, "tiny": 1}
ROUNDTRIP_TOL = 1.0e-6
RESIDUAL_TOL = 1.0e-10
RESIDUAL_COND_LIMIT = 1.0e8
SHIFTED_ZETA_KAPPA = 2.5

RATE_CONFIGS = {"full": ("section_gap", "commutator", "kernel_gap"),
                "tiny": ("commutator", "kernel_gap")}

BENCH_DIR = Path(__file__).resolve().parent


def _gate_failures(report) -> list[str]:
    return [f"gate {v.name} failed: {v.detail}" for v in report.verdicts if not v.passed]


class SolveLadder:
    """CLI ``solve`` mode over a size ladder, configs generated per pass."""

    def __init__(self, seed: int, size: str, workdir: Path, root: Path):
        self.seed = seed
        self.ladder = SOLVE_LADDER[size]
        self.workdir = workdir

    def _config_text(self, n: int, N: int, config_seed: int) -> str:
        return "\n".join([
            "[experiment]", "mode = solve", f"seed = {config_seed}",
            "output = reports",
            "[symbols]", "family = geometric", "a = 0.5", "p = 1", "q = 1",
            "boundary = row_trace",
            "[problem]", f"s = {-(n + DELTA)!r}", f"n = {n}", f"delta = {DELTA!r}",
            "[grid]", f"N = {N}", "h = 1", ""])

    def problems(self, pass_index: int):
        # the seed sets the planted traces through the config seeds
        config_seeds = np.random.default_rng([self.seed, pass_index]).integers(
            0, 2**31 - 1, size=len(self.ladder))
        out = []
        for (n, N), config_seed in zip(self.ladder, config_seeds):
            path = self.workdir / f"solve_n{n}_N{N}.ini"
            path.write_text(self._config_text(n, N, int(config_seed)))
            out.append(lambda path=path: self._run(path))
        return out

    @staticmethod
    def _run(path: Path) -> list[str]:
        cfg = cli.load_config(path)
        report, _, _ = cli.run_experiment(cfg)
        return _gate_failures(report)


class RoundtripMany:
    """Library ``manufactured_roundtrip`` calls with seeded parameters."""

    def __init__(self, seed: int, size: str, workdir: Path, root: Path):
        rng = np.random.default_rng(seed)
        combos = [(n, N, h) for n in ROUNDTRIP_ORDERS for N in ROUNDTRIP_N[size]
                  for h in ROUNDTRIP_H]
        order = rng.permutation(len(combos) * ROUNDTRIP_REPEATS[size])
        self.inputs = []
        for k in order:
            n, N, h = combos[k % len(combos)]
            if rng.random() < 0.5:
                family = ("geometric", {"a": float(rng.uniform(0.3, 0.7)), "p": 1, "q": 1})
            else:
                family = ("shifted_zeta", {"c": 4.0 / h + 1.0, "kappa": SHIFTED_ZETA_KAPPA})
            boundary = "zeta" if n == 1 and rng.random() < 0.5 else "row_trace"
            planted = system.random_trace_vector(
                rng, lattice.FrequencyGrid(h, N, ndim=1), n)
            self.inputs.append((n, N, h, family, boundary, planted))

    def problems(self, pass_index: int):
        return [lambda inp=inp: self._run(*inp) for inp in self.inputs]

    @staticmethod
    def _run(n, N, h, family, boundary, planted) -> list[str]:
        kind, params = family
        fac = symbols.builtin_factor_family(kind, h, **params)
        operators = getattr(system, f"{boundary}_boundary_operators")
        bottom, left = operators(n, h)
        spec = system.ProblemSpec(s=fac.index - (n + DELTA), factorization=fac, n=n,
                                  delta=DELTA, bottom_ops=bottom, left_ops=left)
        rep = system.manufactured_roundtrip(spec, planted, lattice.FrequencyGrid(h, N))
        failures = []
        if not rep.rel_error <= ROUNDTRIP_TOL:
            failures.append(f"rel_error {rep.rel_error:.3e} > {ROUNDTRIP_TOL:.0e}")
        if rep.condition <= RESIDUAL_COND_LIMIT and not rep.residual <= RESIDUAL_TOL:
            failures.append(f"residual {rep.residual:.3e} > {RESIDUAL_TOL:.0e} "
                            f"at condition {rep.condition:.3e}")
        if failures:
            failures = [f"{kind} {boundary} n={n} N={N} h={h}: {f}" for f in failures]
        return failures


class RateSweeps:
    """The shipped comparison configs through ``cli.run_experiment``.

    These inputs are deterministic: the seed does not change them.  Results
    are checked against the gates and against ``reference.json``.
    """

    def __init__(self, seed: int, size: str, workdir: Path, root: Path):
        self.paths = [root / "configs" / f"{name}.ini" for name in RATE_CONFIGS[size]]
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text())["configs"]

    def problems(self, pass_index: int):
        return [lambda path=path: self._run(path) for path in self.paths]

    def _run(self, path: Path) -> list[str]:
        cfg = cli.load_config(path)
        report, _, _ = cli.run_experiment(cfg)
        failures = _gate_failures(report)
        for key, ref in self.reference[cfg.mode].items():
            got = report.summary.get(key)
            if not isinstance(got, (int, float)) or not math.isfinite(got):
                failures.append(f"{cfg.mode} {key} = {got!r} is not a finite number")
                continue
            tol = ref.get("abs_tol", 0.0) + ref.get("rel_tol", 0.0) * abs(ref["value"])
            if not abs(got - ref["value"]) <= tol:
                failures.append(f"{cfg.mode} {key} = {got!r} differs from reference "
                                f"{ref['value']!r} by more than {tol:.1e}")
        return failures


def make(name: str, seed: int, size: str, workdir: Path, root: Path):
    # every CLI report lands in the work directory, never in the repo's out/
    os.environ[cli.OUTPUT_ENV_VAR] = str(workdir / "reports")
    cls = {"solve_ladder": SolveLadder, "roundtrip_many": RoundtripMany,
           "rate_sweeps": RateSweeps}[name]
    return cls(seed, size, workdir, root)
