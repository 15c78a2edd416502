import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import (FrequencyGrid, InvalidConfigurationError,
                     NormEstimateError, RateReport, WeightedOperatorFrame,
                     aligned_line_grid, assemble_continuous_system,
                     commutator_rate_sweep, estimate_operator_norm, fit_rate,
                     kernel_gap_ratios, radial_power_problem,
                     section_gap_rate_sweep, window_mask, zeta,
                     zeta_power_gap)
from quadbvp.system import ContinuousProblem, _assemble


class TestZetaPowerGap:
    def test_zero_frequency_has_zero_gap_and_bound(self):
        res = zeta_power_gap(0.0, 2, 0.5)
        assert res.gap == 0.0
        assert res.bound == 0.0

    def test_frozen_first_power_case(self):
        res = zeta_power_gap(1.0, 1, 0.1)
        assert res.gap == pytest.approx(0.04998611265425363, rel=1e-14)
        assert res.bound == pytest.approx(2.314069263277927, rel=1e-14)
        assert res.gap <= res.bound

    def test_closed_form_at_the_torus_edge(self):
        # zeta(pi/h) = -2/h, so the squared-power gap is (pi^2 + 4)/h^2 while
        # the bound is 2 e^{2 pi} pi^3 / h^2
        h = 0.5
        res = zeta_power_gap(math.pi / h, 2, h)
        assert res.gap == pytest.approx((math.pi ** 2 + 4) / h ** 2, rel=1e-13)
        assert res.bound == pytest.approx(
            2 * math.exp(2 * math.pi) * math.pi ** 3 / h ** 2, rel=1e-13)
        assert res.gap <= res.bound

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            zeta_power_gap(1.0, 0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(-1, 1), k=st.integers(1, 4),
           h=st.sampled_from([1.0, 0.5, 0.25, 0.125]))
    def test_bound_never_violated(self, t, k, h):
        xi = t * math.pi / h
        res = zeta_power_gap(xi, k, h)
        assert res.gap <= res.bound * (1 + 1e-12) + 1e-300

    def test_dense_sweep_has_no_violations(self, rng):
        for h in (1.0, 0.5, 0.25, 0.125):
            xi = rng.uniform(-math.pi / h, math.pi / h, size=2000)
            for k in range(1, 5):
                res = zeta_power_gap(xi, k, h)
                assert np.all(res.gap <= res.bound * (1 + 1e-12) + 1e-300)


class TestOperatorNormEstimate:
    @staticmethod
    def frame(*matrices_rows):
        n = len(matrices_rows[0][0]) if matrices_rows else 0
        return WeightedOperatorFrame(
            nodes=np.zeros(1), quad_weight=1.0,
            weight_exponents=(0.0,) * len(matrices_rows),
            blocks=tuple(tuple(m for m in row) for row in matrices_rows))

    def test_zero_matrix(self):
        f = self.frame([np.zeros((5, 5))])
        assert estimate_operator_norm(f) == 0.0

    def test_identity_matrix(self):
        f = self.frame([np.eye(7)])
        assert estimate_operator_norm(f) == pytest.approx(1.0, rel=1e-8)

    def test_matches_direct_svd_on_random_matrices(self, rng):
        for size in (50, 120, 200):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            est = estimate_operator_norm(self.frame([m]))
            exact = np.linalg.svd(m, compute_uv=False)[0]
            assert est == pytest.approx(exact, rel=1e-6)

    def test_block_norms_add_down_columns(self, rng):
        # the direct-sum norm adds block norms, so a column of two blocks
        # contributes the sum of their spectral norms
        a = rng.normal(size=(10, 10))
        b = rng.normal(size=(10, 10))
        f = WeightedOperatorFrame(
            nodes=np.zeros(1), quad_weight=1.0, weight_exponents=(0.0, 0.0),
            blocks=((a, None), (b, None)))
        expected = (np.linalg.svd(a, compute_uv=False)[0]
                    + np.linalg.svd(b, compute_uv=False)[0])
        assert estimate_operator_norm(f) == pytest.approx(expected, rel=1e-6)

    def test_iteration_budget_exhaustion_is_reported(self, rng):
        m = rng.normal(size=(6, 6))
        with pytest.raises(NormEstimateError):
            estimate_operator_norm(self.frame([m]), tol=0.0, max_iter=3)


class TestFitRate:
    def test_exact_power_laws(self):
        hs = (1.0, 0.5, 0.25, 0.125)
        assert fit_rate(hs, [3.0 * h for h in hs]).slope == pytest.approx(1.0, abs=1e-12)
        assert fit_rate(hs, [0.2 * h ** 2 for h in hs]).slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_power_law_recovered(self, rng):
        hs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        noise = np.exp(rng.normal(scale=0.05, size=hs.size))
        fit = fit_rate(hs, 0.7 * hs ** 1.25 * noise)
        assert abs(fit.slope - 1.25) <= 0.1

    def test_nonpositive_norm_degenerates(self):
        fit = fit_rate((1.0, 0.5, 0.25), (1.0, 0.0, 0.1))
        assert fit.degenerate
        assert fit.slope is None

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_rate((1.0, 0.5), (1.0, 0.5))


class TestGridsAndMasks:
    def test_window_nodes_form_exact_torus_grids(self):
        hs = [1.0, 0.5, 0.25]
        grid = aligned_line_grid(hs, nodes_per_window=16, lambda_factor=4.0)
        for h in hs:
            mask = window_mask(grid, h)
            expected = FrequencyGrid(h, int(16 / h), ndim=1).axis_nodes
            assert np.allclose(grid.axis_nodes[mask], expected, atol=1e-12)

    def test_mask_is_idempotent(self):
        grid = aligned_line_grid([1.0], 16)
        chi = window_mask(grid, 1.0).astype(float)
        assert np.array_equal(chi * chi, chi)

    def test_truncation_narrower_than_window_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="half-width"):
            aligned_line_grid([0.5], 16, lam=1.0)

    def test_nondecreasing_sweep_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="decreasing"):
            aligned_line_grid([0.5, 0.5], 16)


class TestRateReport:
    def test_h_values_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            RateReport(h_values=(0.5, 1.0), norms=(1.0, 2.0), slope=None, epsilon=None)


def radial(order):
    def ev(x1, x2, _o=order):
        return (1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2) ** (_o / 2.0)
    return ev


class TestCommutatorSweep:
    def test_all_zero_kernels_flagged_degenerate(self):
        zero = lambda x1, x2: np.zeros(np.broadcast(x1, x2).shape)
        problem = ContinuousProblem(
            s=2.25, n=1, delta=-0.25, plus_factor=radial(3.0), index=3.0,
            bottom_symbols=(zero,), left_symbols=(zero,),
            bottom_orders=(0.0,), left_orders=(0.0,))
        rep = commutator_rate_sweep(problem, [1.0, 0.5, 0.25], nodes_per_window=8)
        assert rep.degenerate
        assert rep.slope is None
        assert all(v == 0.0 for v in rep.norms)

    def test_decay_rate_matches_prediction_loosely(self):
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        rep = commutator_rate_sweep(problem, [0.5, 0.25, 0.125],
                                    nodes_per_window=16)
        assert rep.epsilon == pytest.approx(1.25)
        assert rep.slope >= 1.0
        assert rep.monotone_violations == ()

    def test_window_nodes_count_the_grid_on_a_non_halving_sweep(self):
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        hs = [0.5, 0.3, 0.2]
        rep = commutator_rate_sweep(problem, hs, nodes_per_window=32)
        grid = aligned_line_grid(hs, nodes_per_window=32)
        assert rep.window_nodes == tuple(int(window_mask(grid, h).sum()) for h in hs)
        assert rep.window_nodes == (32, 54, 80)

    def test_hypothesis_violation_rejected(self):
        problem = radial_power_problem(s=1.5, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        with pytest.raises(InvalidConfigurationError, match="commutator"):
            commutator_rate_sweep(problem, [1.0, 0.5, 0.25])


class TestSectionGapSweep:
    def test_first_order_rate_on_builtin_problem(self):
        problem = radial_power_problem(s=3.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        rep = section_gap_rate_sweep(problem, [0.5, 0.25, 0.125],
                                     nodes_per_window=16)
        assert rep.slope >= 0.8
        assert rep.epsilon == 1.0
        assert rep.monotone_violations == ()

    def test_hypothesis_violation_rejected(self):
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        with pytest.raises(InvalidConfigurationError, match="section gap"):
            section_gap_rate_sweep(problem, [1.0, 0.5, 0.25])

    def test_restricted_multiplier_gap_matches_arctan_tail(self):
        # with unit boundary symbol and squared-radius factor, the gap
        # between the truncated-line multiplier and the window multiplier is
        # the tail integral 2 (atan(lam/a) - atan(pi hbar / a)) / a
        h = 0.5
        problem = radial_power_problem(s=0.75, n=1, delta=0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        grid = aligned_line_grid([h], 256, lambda_factor=4.0)
        q_full = assemble_continuous_system(problem, grid)
        win = window_mask(grid, h)
        wnodes = grid.axis_nodes[win]
        zeros = np.zeros((1, len(wnodes)), dtype=complex)
        lattice = _assemble(n=1, nodes=wnodes, weight=grid.axis_weight, h=h,
                            plus_factor=problem.plus_factor,
                            bottom_symbols=problem.bottom_symbols,
                            left_symbols=problem.left_symbols,
                            rhs_bottom=zeros, rhs_left=zeros)
        gap = q_full.bottom_mult[0, 0][win] - lattice.bottom_mult[0, 0]
        a = np.sqrt(1.0 + wnodes ** 2)
        exact = 2.0 / a * (np.arctan(grid.half_width / a)
                           - np.arctan(math.pi / h / a))
        assert np.max(np.abs(gap - exact)) <= 1e-3 * np.max(np.abs(exact))


class TestKernelGapRatios:
    def test_zeroth_power_kernels_coincide(self):
        problem = radial_power_problem(s=8.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        ratios = kernel_gap_ratios(problem, 1.0, j=0, k=0, nodes_per_window=32)
        assert ratios["bottom_kernel"] == 0.0
        assert ratios["left_kernel"] == 0.0
        assert ratios["bottom_mult"] > 0.0

    def test_ratios_finite_and_positive_for_first_power(self):
        problem = radial_power_problem(s=8.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        ratios = kernel_gap_ratios(problem, 0.5, j=1, k=1, nodes_per_window=32)
        for value in ratios.values():
            assert math.isfinite(value) and value > 0.0

    def test_multiplier_ratio_stable_under_node_refinement(self):
        # quadrature-resolution oracle: recomputing at 4x the window nodes
        # moves the pure-tail ratio by well under a percent
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        coarse = kernel_gap_ratios(problem, 0.5, j=0, k=0, nodes_per_window=64)
        fine = kernel_gap_ratios(problem, 0.5, j=0, k=0, nodes_per_window=256)
        assert fine["bottom_mult"] == pytest.approx(coarse["bottom_mult"], rel=1e-2)

    def test_hypothesis_violation_rejected(self):
        problem = radial_power_problem(s=1.0, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        with pytest.raises(InvalidConfigurationError, match="kernel gap"):
            kernel_gap_ratios(problem, 1.0, j=0, k=0)

    def test_block_indices_validated(self):
        problem = radial_power_problem(s=8.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        with pytest.raises(ValueError, match="out of range"):
            kernel_gap_ratios(problem, 1.0, j=2, k=0)
