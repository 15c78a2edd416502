import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import (AssemblyError, BoundaryOperatorSpec, FrequencyGrid,
                     NearSingularError, PeriodicSymbol, ProblemSpec,
                     SpectralFunction, TraceVector, WaveFactorization,
                     assemble_continuous_system, assemble_discrete_system,
                     builtin_factor_family, identity_boundary_operators,
                     manufactured_roundtrip, project_out_gauge,
                     radial_power_problem, random_bumps, random_trace_vector,
                     reconstruct_solution, row_trace_boundary_operators,
                     sobolev_norm_1d, sobolev_norm_2d, solve_block_system,
                     structural_null_basis, trace_exponents, zeta,
                     zeta_boundary_operators, apply_symbol_to_spectrum,
                     aligned_line_grid, boundary_trace_spectrum)
from conftest import ones_symbol


def trivial_spec(n=1, h=1.0, delta=0.25, boundary="identity",
                 data_bottom=None, data_left=None):
    fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=h)
    ops = identity_boundary_operators(n, h) if boundary == "identity" \
        else zeta_boundary_operators(n, h)
    return ProblemSpec(s=-(n + delta), factorization=fac, n=n, delta=delta,
                       bottom_ops=ops[0], left_ops=ops[1],
                       bottom_data=data_bottom, left_data=data_left)


class TestProblemSpecValidation:
    def test_trace_exponents(self):
        assert trace_exponents(s=-1.25, index=0.0, n=2) == (-1.75, -0.75)

    def test_index_split_must_hold(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 1.0)
        with pytest.raises(ValueError, match="n \\+ delta"):
            ProblemSpec(s=-2.0, factorization=fac, n=1, delta=0.25,
                        bottom_ops=bottom, left_ops=left)

    def test_delta_bound_enforced(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 1.0)
        with pytest.raises(ValueError, match="delta"):
            ProblemSpec(s=-1.6, factorization=fac, n=1, delta=0.6,
                        bottom_ops=bottom, left_ops=left)

    def test_operator_count_must_match_n(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 1.0)
        with pytest.raises(ValueError, match="boundary operators"):
            ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                        bottom_ops=bottom, left_ops=left)

    def test_non_finite_data_rejected(self):
        grid1 = FrequencyGrid(1.0, 8, ndim=1)
        bad = SpectralFunction(grid1, np.full(8, np.nan, dtype=complex))
        ok = SpectralFunction(grid1, np.ones(8))
        with pytest.raises(ValueError, match="non-finite"):
            trivial_spec(data_bottom=(bad,), data_left=(ok,))


class TestAssembly:
    def test_unit_symbols_give_torus_width_multiplier(self):
        grid = FrequencyGrid(1.0, 16)
        sys = assemble_discrete_system(trivial_spec(), grid)
        assert np.allclose(sys.bottom_mult[0, 0], 2 * math.pi, rtol=1e-14)
        assert np.allclose(sys.left_mult[0, 0], 2 * math.pi, rtol=1e-14)

    def test_unit_symbols_give_unit_kernel(self):
        grid = FrequencyGrid(1.0, 16)
        sys = assemble_discrete_system(trivial_spec(), grid)
        # quadrature weight folded into the operator matrix
        assert np.allclose(sys.bottom_kernel[0, 0], grid.axis_weight, rtol=1e-14)
        assert np.allclose(sys.left_kernel[0, 0], grid.axis_weight, rtol=1e-14)

    def test_boundary_symbol_cancels_plus_factor(self):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        sym = PeriodicSymbol(lambda x1, x2: fac.plus_factor(x1, x2), 0.0, h)
        bottom = (BoundaryOperatorSpec("bottom", sym, 0.0),)
        left = (BoundaryOperatorSpec("left", sym, 0.0),)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 16)
        sys = assemble_discrete_system(spec, grid)
        assert np.allclose(sys.bottom_kernel[0, 0], grid.axis_weight, rtol=1e-12)

    def test_vanishing_plus_factor_names_the_node(self):
        h = 1.0
        grid = FrequencyGrid(h, 8)
        bad_node = grid.axis_nodes[3]

        def plus(x1, x2):
            return zeta(x1, h) - zeta(bad_node, h)

        fac = WaveFactorization(plus, ones_symbol, index=0.0, h=h)
        bottom, left = identity_boundary_operators(1, h)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        with pytest.raises(AssemblyError, match=f"xi1={bad_node:.6g}"):
            assemble_discrete_system(spec, grid)

    def test_non_finite_symbol_rejected(self):
        h = 1.0
        inf_symbol = PeriodicSymbol(
            lambda x1, x2: np.where(np.asarray(x1) > 0, np.inf, 1.0), 0.0, h)
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=h)
        bottom = (BoundaryOperatorSpec("bottom", inf_symbol, 0.0),)
        left = identity_boundary_operators(1, h)[1]
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        with np.errstate(invalid="ignore"):
            with pytest.raises(AssemblyError, match="non-finite"):
                assemble_discrete_system(spec, FrequencyGrid(h, 8))


class TestSolve:
    def test_all_unit_system_has_symmetric_solution(self):
        # both equations read 2 pi (c + d) = 2 pi; the gauge-orthogonal
        # representative is c = d = 1/2
        grid = FrequencyGrid(1.0, 16)
        grid1 = FrequencyGrid(1.0, 16, ndim=1)
        data = SpectralFunction(grid1, np.full(16, 2 * math.pi, dtype=complex))
        spec = trivial_spec(data_bottom=(data,), data_left=(data,))
        sys = assemble_discrete_system(spec, grid)
        traces, rep = solve_block_system(sys)
        assert np.allclose(traces.bottom[0].values, 0.5, atol=1e-12)
        assert np.allclose(traces.left[0].values, 0.5, atol=1e-12)
        assert rep.residual <= 1e-10
        assert rep.gauge_dim == 1

    def test_zero_data_gives_zero_solution(self):
        grid = FrequencyGrid(1.0, 16)
        sys = assemble_discrete_system(trivial_spec(), grid)
        traces, rep = solve_block_system(sys)
        assert np.allclose(traces.bottom[0].values, 0.0, atol=1e-14)
        assert np.allclose(traces.left[0].values, 0.0, atol=1e-14)
        assert rep.residual == 0.0

    def test_duplicated_boundary_rows_are_near_singular(self):
        # identical order-zero operators in both rows leave the system rank
        # deficient beyond its structural gauge space
        grid = FrequencyGrid(1.0, 16)
        with pytest.raises(NearSingularError) as err:
            solve_block_system(assemble_discrete_system(trivial_spec(n=2), grid))
        assert err.value.condition > 1e12

    def test_corner_incompatible_data_leave_a_gauge_residual(self, rng):
        # two-edge data drawn independently disagree at the corner, so they
        # are not in the range of A: the bordered solve leaves b - A x in
        # the span of the gauge basis, and the residual reports its size
        h, N = 1.0, 32
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = row_trace_boundary_operators(1, h)
        grid1 = FrequencyGrid(h, N, ndim=1)
        data_bottom, data_left = (
            SpectralFunction(grid1, random_bumps(rng, math.pi)(grid1.axis_nodes))
            for _ in range(2))
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left,
                           bottom_data=(data_bottom,), left_data=(data_left,))
        sys = assemble_discrete_system(spec, FrequencyGrid(h, N))
        traces, rep = solve_block_system(sys)
        assert rep.residual >= 1e-3
        r = sys.full_rhs() - sys.full_matrix() @ stacked_values(traces)
        q, _ = np.linalg.qr(structural_null_basis(sys))
        assert np.linalg.norm(r - q @ (q.conj().T @ r)) <= 1e-12 * np.linalg.norm(r)

    def test_residual_small_at_moderate_condition(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = zeta_boundary_operators(1, h)
        grid = FrequencyGrid(h, 32)
        grid1 = FrequencyGrid(h, 32, ndim=1)
        planted = random_trace_vector(rng, grid1, 1)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.condition <= 1e8
        assert rep.residual <= 1e-10


def svd_min_norm_solve(system):
    """Oracle: least-squares minimum-norm solve by the full SVD, inverting
    every singular value outside the structural gauge space, with one
    refinement step; returns the solution and the deflated condition."""
    a = system.full_matrix()
    b = system.full_rhs()
    u, sig, vh = np.linalg.svd(a)
    rank = system.size - system.n ** 2

    def pinv(v):
        return vh[:rank].conj().T @ ((u[:, :rank].conj().T @ v) / sig[:rank])

    x = pinv(b)
    x = x + pinv(b - a @ x)
    return x, float(sig[0] / sig[rank - 1])


def stacked_values(traces):
    return np.concatenate([f.values for f in traces.bottom + traces.left])


families = st.one_of(
    st.builds(lambda a, p, q: ("geometric", dict(a=a, p=p, q=q)),
              st.floats(-0.9, 0.9), st.integers(0, 2), st.integers(0, 2)),
    st.builds(lambda shift, kappa: ("shifted_zeta", dict(c=shift, kappa=kappa)),
              st.floats(0.25, 8.0), st.floats(0.5, 3.0)))


@settings(max_examples=12, deadline=None)
@given(family=families, n=st.integers(1, 3), zeta_ops=st.booleans(),
       h=st.sampled_from([1.0, 0.5]), N=st.sampled_from([32, 64]),
       seed=st.integers(0, 2**31))
def test_solver_properties(family, n, zeta_ops, h, N, seed):
    # every drawn problem is either reported as not uniquely solvable or
    # solved to the SVD oracle's minimum-norm solution
    kind, params = family
    if kind == "shifted_zeta":
        params = dict(params, c=4.0 / h + params["c"])  # c > 4/h
    fac = builtin_factor_family(kind, h, **params)
    operators = zeta_boundary_operators if zeta_ops and n == 1 \
        else row_trace_boundary_operators
    bottom, left = operators(n, h)
    spec = ProblemSpec(s=fac.index - (n + 0.25), factorization=fac, n=n,
                       delta=0.25, bottom_ops=bottom, left_ops=left)
    grid = FrequencyGrid(h, N)
    planted = random_trace_vector(np.random.default_rng(seed),
                                  FrequencyGrid(h, N, ndim=1), n)
    u_hat = reconstruct_solution(planted, fac, grid)
    system = assemble_discrete_system(
        replace(spec,
                bottom_data=tuple(boundary_trace_spectrum(op, u_hat) for op in bottom),
                left_data=tuple(boundary_trace_spectrum(op, u_hat) for op in left)),
        grid)
    try:
        traces, rep = solve_block_system(system)
    except NearSingularError:
        return
    assert manufactured_roundtrip(spec, planted, grid).rel_error <= 1e-6
    if rep.condition <= 1e8:
        assert rep.residual <= 1e-10

    a = system.full_matrix()
    q, _ = np.linalg.qr(structural_null_basis(system))
    assert np.linalg.norm(a @ q, 2) <= 1e-12 * np.linalg.norm(a, 2)

    want, condition = svd_min_norm_solve(system)
    got = stacked_values(traces)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert rep.condition == pytest.approx(condition, rel=0.05)


class TestStructuralGauge:
    def test_null_basis_annihilates_the_matrix(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.4, p=1, q=1)
        bottom, left = row_trace_boundary_operators(2, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        sys = assemble_discrete_system(spec, FrequencyGrid(h, 16))
        a = sys.full_matrix()
        z = structural_null_basis(sys)
        assert z.shape[1] == 4
        scale = np.max(np.abs(a)) * np.max(np.abs(z))
        assert np.max(np.abs(a @ z)) <= 1e-12 * scale

    def test_gauge_projection_preserves_the_spectrum(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        grid = FrequencyGrid(h, 16)
        grid1 = FrequencyGrid(h, 16, ndim=1)
        planted = random_trace_vector(rng, grid1, 2)
        sys = assemble_discrete_system(
            ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                        bottom_ops=row_trace_boundary_operators(2, h)[0],
                        left_ops=row_trace_boundary_operators(2, h)[1]), grid)
        stacked = np.concatenate([f.values for f in planted.bottom + planted.left])
        gauged = project_out_gauge(sys, stacked).reshape(4, 16)
        projected = TraceVector(
            bottom=tuple(SpectralFunction(grid1, gauged[k]) for k in range(2)),
            left=tuple(SpectralFunction(grid1, gauged[2 + k]) for k in range(2)))
        u1 = reconstruct_solution(planted, fac, grid)
        u2 = reconstruct_solution(projected, fac, grid)
        assert np.max(np.abs(u1.values - u2.values)) <= 1e-12 * np.max(np.abs(u1.values))


class TestReconstruction:
    def test_constant_bottom_trace_with_unit_factor(self, trivial_factorization):
        grid = FrequencyGrid(1.0, 8)
        grid1 = FrequencyGrid(1.0, 8, ndim=1)
        traces = TraceVector(
            bottom=(SpectralFunction(grid1, np.ones(8)),),
            left=(SpectralFunction(grid1, np.zeros(8)),))
        u = reconstruct_solution(traces, trivial_factorization, grid)
        assert np.allclose(u.values, 1.0)

    def test_single_surviving_power_term(self, trivial_factorization):
        grid = FrequencyGrid(1.0, 8)
        grid1 = FrequencyGrid(1.0, 8, ndim=1)
        zero = SpectralFunction(grid1, np.zeros(8))
        one = SpectralFunction(grid1, np.ones(8))
        traces = TraceVector(bottom=(zero, zero), left=(zero, one))
        u = reconstruct_solution(traces, trivial_factorization, grid)
        x1, _ = grid.nodes_2d()
        assert np.allclose(u.values, zeta(x1, 1.0), atol=1e-14)
        u_cont = reconstruct_solution(traces, trivial_factorization, grid,
                                      continuous=True)
        assert np.allclose(u_cont.values, 1j * x1, atol=1e-14)


class TestHomogeneousResidual:
    @pytest.mark.parametrize("n,s", [(1, -1.25), (2, -2.25)])
    def test_interior_residual_is_negligible(self, rng, n, s):
        # the reconstructed spectrum solves the homogeneous equation at
        # lattice points beyond the first n boundary layers
        h, N = 1.0, 64
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        grid = FrequencyGrid(h, N)
        grid1 = FrequencyGrid(h, N, ndim=1)
        traces = random_trace_vector(rng, grid1, n)
        u_hat = reconstruct_solution(traces, fac, grid)
        full = PeriodicSymbol(lambda a, b: fac.full_symbol(a, b), 0.0, h)
        points = [(i, j) for i in range(n, n + 5) for j in range(n, n + 5)]
        res = apply_symbol_to_spectrum(full, u_hat, points)
        budget = 1e-6 * sobolev_norm_2d(u_hat, s)
        assert np.max(np.abs(res.values)) <= budget


class TestManufacturedRoundtrip:
    def test_unit_symbols_recover_planted_traces(self, rng):
        grid = FrequencyGrid(1.0, 64)
        grid1 = FrequencyGrid(1.0, 64, ndim=1)
        planted = random_trace_vector(rng, grid1, 1)
        rep = manufactured_roundtrip(trivial_spec(), planted, grid)
        assert rep.rel_error <= 1e-8

    def test_zero_traces_recover_zero(self):
        grid = FrequencyGrid(1.0, 16)
        grid1 = FrequencyGrid(1.0, 16, ndim=1)
        zero = SpectralFunction(grid1, np.zeros(16))
        planted = TraceVector(bottom=(zero,), left=(zero,))
        rep = manufactured_roundtrip(trivial_spec(), planted, grid)
        for f in rep.recovered.bottom + rep.recovered.left:
            assert np.allclose(f.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("family,params,index", [
        ("geometric", dict(a=0.5, p=1, q=1), 0.0),
        ("shifted_zeta", dict(c=5.0, kappa=1.0), 1.0),
    ])
    def test_builtin_families_roundtrip(self, rng, family, params, index):
        h = 1.0
        fac = builtin_factor_family(family, h, **params)
        bottom, left = zeta_boundary_operators(1, h)
        spec = ProblemSpec(s=index - 1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 64)
        grid1 = FrequencyGrid(h, 64, ndim=1)
        planted = random_trace_vector(rng, grid1, 1)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.rel_error <= 1e-8

    def test_error_does_not_grow_under_refinement(self, rng):
        # planted and recovered traces agree through the shared quadrature,
        # so the error sits at solver precision for every N (well below any
        # second-order-in-N budget)
        h = 1.0
        for N in (32, 64, 128):
            fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
            bottom, left = zeta_boundary_operators(1, h)
            spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                               bottom_ops=bottom, left_ops=left)
            planted = random_trace_vector(rng, FrequencyGrid(h, N, ndim=1), 1)
            rep = manufactured_roundtrip(spec, planted, FrequencyGrid(h, N))
            assert rep.rel_error <= 1e-8

    def test_two_condition_problem_roundtrip(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = row_trace_boundary_operators(2, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 48)
        planted = random_trace_vector(rng, FrequencyGrid(h, 48, ndim=1), 2)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.rel_error <= 1e-8

    def test_difference_power_conditions_degenerate_for_two_rows(self, rng):
        # with a one-sided factor family the difference-power conditions
        # couple through a rank-one multiplier block at n = 2: the problem
        # is detected as not uniquely solvable
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = zeta_boundary_operators(2, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 32)
        planted = random_trace_vector(rng, FrequencyGrid(h, 32, ndim=1), 2)
        with pytest.raises(NearSingularError):
            manufactured_roundtrip(spec, planted, grid)


def test_solution_norm_to_trace_norm_ratio_is_mesh_stable(rng):
    # the constant bounding the solution norm by the summed trace norms
    # should not drift with the mesh
    bumps_bottom = random_bumps(rng, math.pi)
    bumps_left = random_bumps(rng, math.pi)
    ratios = []
    for h in (1.0, 0.5, 0.25):
        N = int(32 / h)
        fac = builtin_factor_family("geometric", h, a=0.25, p=1, q=1)
        grid = FrequencyGrid(h, N)
        grid1 = FrequencyGrid(h, N, ndim=1)
        traces = TraceVector(
            bottom=(SpectralFunction(grid1, bumps_bottom(grid1.axis_nodes)),),
            left=(SpectralFunction(grid1, bumps_left(grid1.axis_nodes)),))
        u = reconstruct_solution(traces, fac, grid)
        s = -1.25
        s0 = trace_exponents(s, fac.index, 1)[0]
        denom = sobolev_norm_1d(traces.bottom[0], s0) + sobolev_norm_1d(traces.left[0], s0)
        ratios.append(sobolev_norm_2d(u, s) / denom)
    assert max(ratios) / min(ratios) <= 2.0


class TestContinuousAssembly:
    def test_multiplier_matches_arctan_closed_form(self):
        # unit boundary symbol over the squared-radius factor: the exact
        # multiplier is (2 / a) atan(half_width / a) with a^2 = 1 + xi1^2
        problem = radial_power_problem(s=0.75, n=1, delta=0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        assert problem.index == pytest.approx(2.0)
        grid = aligned_line_grid([0.5], 256, lambda_factor=4.0)
        sys = assemble_continuous_system(problem, grid)
        nodes = grid.axis_nodes
        a = np.sqrt(1.0 + nodes ** 2)
        exact = 2.0 / a * np.arctan(grid.half_width / a)
        assert np.max(np.abs(sys.bottom_mult[0, 0] - exact)) <= 1e-5

    def test_odd_power_multiplier_vanishes_by_symmetry(self):
        # for an even kernel the first-power row integrand is odd and the
        # symmetric node set cancels it exactly
        problem = radial_power_problem(s=2.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, 0.0],
                                       left_orders=[0.0, 0.0])
        grid = aligned_line_grid([1.0], 64, lambda_factor=4.0)
        sys = assemble_continuous_system(problem, grid)
        scale = np.max(np.abs(sys.bottom_mult[0, 0]))
        assert np.max(np.abs(sys.bottom_mult[0, 1])) <= 1e-12 * scale

    def test_continuous_solve_runs_and_reports(self, rng):
        problem = radial_power_problem(
            s=0.75, n=1, delta=0.25, bottom_orders=[0.0], left_orders=[0.0])
        grid = aligned_line_grid([1.0], 32, lambda_factor=2.0)
        bump = random_bumps(rng, math.pi)
        problem = replace(problem, bottom_data=(bump,), left_data=(bump,))
        sys = assemble_continuous_system(problem, grid)
        traces, rep = solve_block_system(sys)
        assert rep.residual <= 1e-10
        assert traces.bottom[0].grid.ndim == 1
