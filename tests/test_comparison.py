import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import comparison
from quadbvp import (FrequencyGrid, InvalidConfigurationError,
                     NormEstimateError, WeightedOperatorFrame,
                     aligned_line_grid, assemble_continuous_system,
                     commutator_rate_sweep, estimate_operator_norm, fit_rate,
                     kernel_gap_ratios, radial_power_problem,
                     section_gap_rate_sweep, window_mask, zeta,
                     zeta_power_gap)
from quadbvp import system
from quadbvp.cli import load_config
from quadbvp.system import ContinuousProblem, _assemble, _kernel_strips
from conftest import skewed_problem

ROOT = Path(__file__).resolve().parent.parent


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

    def test_overflowing_bound_rejected(self):
        # at the torus edge of h = 1/8 the bound is ~4.4e306 at k = 110 and
        # beyond the float range at k = 111; from k = 226 on, e^(k pi)
        # alone overflows
        h = 0.125
        res = zeta_power_gap(math.pi / h, 110, h)
        assert math.isfinite(res.bound) and res.gap <= res.bound
        for k in (111, 300):
            with pytest.raises(InvalidConfigurationError,
                               match=f"overflows at k = {k}, h = 0.125"):
                zeta_power_gap(math.pi / h, k, h)

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
        return WeightedOperatorFrame(
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
        f = WeightedOperatorFrame(blocks=((a, None), (b, None)))
        expected = (np.linalg.svd(a, compute_uv=False)[0]
                    + np.linalg.svd(b, compute_uv=False)[0])
        assert estimate_operator_norm(f) == pytest.approx(expected, rel=1e-6)

    def test_diagonal_block_norm_is_exact(self, rng):
        d = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert estimate_operator_norm(self.frame([d])) == np.max(np.abs(d))

    def test_pair_block_norm_is_the_antisymmetric_blocks_norm(self, rng):
        # the pair (X, Y) stands for [[0, X], [-Y^T, 0]], whose singular
        # values are those of X and of Y together
        x = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
        y = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
        for x, y in ((3.0 * x, y), (x, 3.0 * y)):
            full = np.block([[np.zeros((6, 6)), x], [-y.T, np.zeros((15, 15))]])
            est = estimate_operator_norm(self.frame([np.stack([x, y])]))
            assert est == pytest.approx(np.linalg.norm(full, 2), rel=1e-6)
        assert estimate_operator_norm(self.frame([np.zeros((2, 6, 0))])) == 0.0

    def test_iteration_budget_exhaustion_is_reported(self, rng, monkeypatch):
        monkeypatch.setattr(comparison, "_POWER_TOL", 0.0)
        monkeypatch.setattr(comparison, "_POWER_MAX_ITER", 3)
        m = rng.normal(size=(6, 6))
        with pytest.raises(NormEstimateError) as info:
            estimate_operator_norm(self.frame([m]))
        assert info.value.iterations == 3


class TestFitRate:
    def test_exact_power_laws(self):
        hs = (1.0, 0.5, 0.25, 0.125)
        assert fit_rate(hs, [3.0 * h for h in hs]) == pytest.approx(1.0, abs=1e-12)
        assert fit_rate(hs, [0.2 * h ** 2 for h in hs]) == pytest.approx(2.0, abs=1e-12)

    def test_noisy_power_law_recovered(self, rng):
        hs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        noise = np.exp(rng.normal(scale=0.05, size=hs.size))
        assert abs(fit_rate(hs, 0.7 * hs ** 1.25 * noise) - 1.25) <= 0.1

    def test_nonpositive_norm_degenerates(self):
        assert fit_rate((1.0, 0.5, 0.25), (1.0, 0.0, 0.1)) is None

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

    @pytest.mark.parametrize("hs, nodes_per_window", [
        ([1.0, 0.5, 0.25, 0.125], 8), ([0.7, 0.45, 0.3, 0.21], 16), ([1.0, 0.6, 0.35], 6)])
    def test_window_is_one_contiguous_run(self, hs, nodes_per_window):
        # the gap sweeps slice the window out of their strips
        grid = aligned_line_grid(hs, nodes_per_window)
        for h in hs:
            at = np.flatnonzero(window_mask(grid, h))
            assert at.size > 0
            assert np.array_equal(at, np.arange(at[0], at[-1] + 1)), h

    def test_mask_is_idempotent(self):
        grid = aligned_line_grid([1.0], 16)
        chi = window_mask(grid, 1.0).astype(float)
        assert np.array_equal(chi * chi, chi)

    def test_truncation_narrower_than_window_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="half-width"):
            aligned_line_grid([0.5], 16, lambda_factor=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"lambda_factor": math.nan}, {"lambda_factor": math.inf},
        {"lambda_factor": -math.inf}])
    def test_non_finite_truncation_rejected(self, kwargs):
        with pytest.raises(InvalidConfigurationError, match="half-width .* finite"):
            aligned_line_grid([0.5], 16, **kwargs)

    def test_nondecreasing_sweep_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="decreasing"):
            aligned_line_grid([0.5, 0.5], 16)

    @pytest.mark.parametrize("hs", [[1.0, 0.5, 0.0], [0.5, 0.25, -0.125]])
    def test_nonpositive_mesh_size_rejected(self, hs):
        with pytest.raises(InvalidConfigurationError, match="h_values must be positive"):
            aligned_line_grid(hs, 16)


def radial(order):
    def ev(x1, x2, _o=order):
        return (1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2) ** (_o / 2.0)
    return ev


def count_assembly_calls(monkeypatch):
    """Record each call of the sweeps' continuous assembly entry points."""
    calls = []
    for name in ("_assemble", "_kernel_strips"):
        def counted(*args, _name=name, _original=getattr(comparison, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(comparison, name, counted)
    return calls


class TestCommutatorSweep:
    def test_all_zero_kernels_flagged_degenerate(self):
        zero = lambda x1, x2: np.zeros(np.broadcast(x1, x2).shape)
        problem = ContinuousProblem(
            s=2.25, n=1, delta=-0.25, plus_factor=radial(3.0), index=3.0,
            bottom_symbols=(zero,), left_symbols=(zero,),
            bottom_orders=(0.0,), left_orders=(0.0,))
        rep = commutator_rate_sweep(problem, [1.0, 0.5, 0.25], nodes_per_window=8)
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

    def test_short_sweep_rejected_before_any_work(self, monkeypatch):
        calls = count_assembly_calls(monkeypatch)
        with pytest.raises(InvalidConfigurationError, match="h_values needs at least 3"):
            commutator_rate_sweep(skewed_problem(), [0.5, 0.25], nodes_per_window=8)
        assert calls == []


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

    def test_short_sweep_rejected_before_any_work(self, monkeypatch):
        calls = count_assembly_calls(monkeypatch)
        with pytest.raises(InvalidConfigurationError, match="h_values needs at least 3"):
            section_gap_rate_sweep(skewed_problem(), [0.5, 0.25], nodes_per_window=8)
        assert calls == []

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
        lattice = _assemble(n=1, nodes=wnodes, weight=grid.axis_weight, h=h,
                            plus_factor=problem.plus_factor,
                            bottom_symbols=problem.bottom_symbols,
                            left_symbols=problem.left_symbols)
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
        ratios = kernel_gap_ratios(problem, 1.0, nodes_per_window=32)
        assert list(ratios) == ["bottom_mult", "bottom_kernel", "left_kernel", "left_mult"]
        assert all(r.shape == (2, 2) for r in ratios.values())
        assert np.all(ratios["bottom_kernel"][:, 0] == 0.0)
        assert np.all(ratios["left_kernel"][:, 0] == 0.0)
        assert ratios["bottom_mult"][0, 0] > 0.0

    def test_ratios_finite_and_positive_for_first_power(self):
        problem = radial_power_problem(s=8.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        ratios = kernel_gap_ratios(problem, 0.5, nodes_per_window=32)
        for value in ratios.values():
            assert math.isfinite(value[1, 1]) and value[1, 1] > 0.0

    def test_multiplier_ratio_stable_under_node_refinement(self):
        # quadrature-resolution oracle: recomputing at 4x the window nodes
        # moves the pure-tail ratio by well under a percent
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        coarse = kernel_gap_ratios(problem, 0.5, nodes_per_window=64)
        fine = kernel_gap_ratios(problem, 0.5, nodes_per_window=256)
        assert fine["bottom_mult"][0, 0] == pytest.approx(coarse["bottom_mult"][0, 0],
                                                          rel=1e-2)

    def test_matches_the_gaps_derived_per_block(self):
        # reference: each (j, k) gap written out from the symbols, the kernel
        # gaps as core times the power difference, the multiplier gaps as
        # the full-line integral minus the window integral
        problem = radial_power_problem(s=8.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        h = 0.5
        ratios = kernel_gap_ratios(problem, h, nodes_per_window=32)
        grid = aligned_line_grid([h], 32)
        nodes, quad = grid.axis_nodes, grid.axis_weight
        win = window_mask(grid, h)
        w = nodes[win]
        x1, x2 = np.meshgrid(w, w, indexing="ij")
        y, t = np.meshgrid(w, nodes, indexing="ij")
        for j in range(2):
            core = {
                "bottom": problem.bottom_symbols[j](x1, x2) / problem.plus_factor(x1, x2),
                "left": problem.left_symbols[j](x1, x2) / problem.plus_factor(x1, x2)}
            line = {
                "bottom": problem.bottom_symbols[j](y, t) / problem.plus_factor(y, t),
                "left": problem.left_symbols[j](t, y) / problem.plus_factor(t, y)}
            orders = {"bottom": problem.bottom_orders[j], "left": problem.left_orders[j]}
            for k in range(2):
                dpow = (1j * w) ** k - zeta(w, h) ** k
                kernel_gaps = {"bottom": core["bottom"] * dpow[:, None],
                               "left": core["left"] * dpow[None, :]}
                for side in ("bottom", "left"):
                    e = orders[side] - problem.index + k
                    mult_gap = ((line[side] * (1j * t) ** k).sum(axis=1)
                                - (line[side][:, win] * zeta(w, h) ** k).sum(axis=1)) * quad
                    expected_kernel = np.max(np.abs(kernel_gaps[side])
                                             / (h * (1 + np.hypot(x1, x2)) ** (e + 1)))
                    expected_mult = np.max(np.abs(mult_gap) / (h * (1 + np.abs(w)) ** (e + 2)))
                    assert ratios[f"{side}_kernel"][j, k] == pytest.approx(
                        expected_kernel, rel=1e-12, abs=0.0)
                    assert ratios[f"{side}_mult"][j, k] == pytest.approx(
                        expected_mult, rel=1e-12)

    def test_hypothesis_violation_rejected(self):
        problem = radial_power_problem(s=1.0, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        with pytest.raises(InvalidConfigurationError, match="kernel gap"):
            kernel_gap_ratios(problem, 1.0)


class TestStripAssembly:
    @staticmethod
    def assemble(problem, nodes, h, rows=None):
        return _assemble(n=problem.n, nodes=nodes, weight=0.1, h=h,
                         plus_factor=problem.plus_factor,
                         bottom_symbols=problem.bottom_symbols,
                         left_symbols=problem.left_symbols, rows=rows)

    @pytest.mark.parametrize("h", [None, 0.5])
    def test_strip_is_the_full_assembly_sliced_exactly(self, rng, h):
        problem = skewed_problem()
        nodes = (np.arange(40) - 19.5) * 0.1 * (1 if h is None else 1.5)
        full = self.assemble(problem, nodes, h)
        masks = {"scattered": rng.random(40) < 0.3, "window": np.abs(nodes) < 1.0,
                 "every node": np.ones(40, bool)}
        for name, rows in masks.items():
            R = rows.sum()
            assert 0 < R <= 40, name
            strip = self.assemble(problem, nodes, h, rows)
            # square kernels; the multipliers still integrate over all nodes
            for field in ("bottom_kernel", "left_kernel"):
                kernel = getattr(strip, field)
                assert kernel.shape == (2, 2, R, R)
                sliced = getattr(full, field)[..., rows, :][..., rows]
                assert np.array_equal(kernel, sliced), (name, field)
            for field in ("bottom_mult", "left_mult"):
                mult = getattr(strip, field)
                assert mult.shape == (2, 2, R)
                assert np.array_equal(mult, getattr(full, field)[..., rows]), (name, field)

    @pytest.mark.parametrize("hs", [[0.5, 0.25, 0.125], [0.7, 0.45, 0.3]])
    def test_window_gaps_equal_the_gathered_strip(self, hs):
        # the window's rows and columns sliced from the square strip, bit
        # for bit what gathering them from the full assembly gives
        problem = skewed_problem()
        grid = aligned_line_grid(hs, 8)
        full = assemble_continuous_system(problem, grid)
        for h, (wnodes, gaps) in zip(hs, comparison._window_gaps(problem, grid, hs)):
            win = window_mask(grid, h)
            lattice = _assemble(n=problem.n, nodes=wnodes, weight=grid.axis_weight, h=h,
                                plus_factor=problem.plus_factor,
                                bottom_symbols=problem.bottom_symbols,
                                left_symbols=problem.left_symbols)
            square = np.ix_(win, win)
            gathered = (full.bottom_mult[:, :, win] - lattice.bottom_mult,
                        full.bottom_kernel[(...,) + square] - lattice.bottom_kernel,
                        full.left_kernel[(...,) + square] - lattice.left_kernel,
                        full.left_mult[:, :, win] - lattice.left_mult)
            assert np.array_equal(wnodes, grid.axis_nodes[win])
            for got, want in zip(gaps, gathered):
                assert got.shape == want.shape
                assert np.array_equal(got, want), h

    def test_skewed_problem_is_not_symmetric(self):
        # the exactness test catches a transposed mesh only because every
        # symbol changes when (xi1, xi2) are swapped
        problem = skewed_problem()
        x1, x2 = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 3, 7), indexing="ij")
        for ev in (problem.plus_factor,) + problem.bottom_symbols + problem.left_symbols:
            assert not np.allclose(ev(x1, x2), ev(x2, x1))


class TestSweepsAssembleOnlyWhatTheyRead:
    def test_gap_sweeps_never_assemble_the_full_continuous_system(self, monkeypatch):
        # the full assembly is not even in reach of the sweeps
        assert not hasattr(comparison, "assemble_continuous_system")
        strips = []  # kernel shapes of the continuous assemblies

        def recording(**kwargs):
            system = _assemble(**kwargs)
            if kwargs["h"] is None:
                strips.append(system.bottom_kernel.shape[-2:])
            return system

        monkeypatch.setattr(comparison, "_assemble", recording)
        hs = [0.5, 0.25, 0.125]
        rep = section_gap_rate_sweep(skewed_problem(), hs, nodes_per_window=8)
        assert all(v > 0.0 for v in rep.norms)
        R = rep.window_nodes[-1]
        assert R < aligned_line_grid(hs, 8).nodes_count
        assert strips == [(R, R)]
        ratios = kernel_gap_ratios(skewed_problem(), 0.5, nodes_per_window=16)
        assert all(np.all(np.isfinite(r)) for r in ratios.values())
        assert strips[1:] == [(16, 16)]

    @pytest.mark.parametrize("mode, sweep, bound_mib", [
        # kernel strips through the finest window on the whole line would
        # take 57 MiB on section_gap.ini, the square strip takes 28 MiB
        ("section_gap", section_gap_rate_sweep, 32),
        # the commutator's weighted strips alone take 28 MiB; weighted
        # copies and gathered pairs would add 13 MiB more
        ("commutator", commutator_rate_sweep, 36)])
    def test_shipped_sweep_allocates_only_the_blocks_it_reads(self, mode, sweep, bound_mib):
        cfg = load_config(ROOT / "configs" / f"{mode}.ini")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = sweep(cfg.problem, cfg.h_values, nodes_per_window=cfg.nodes_per_window,
                        lambda_factor=cfg.lambda_factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.slope is not None
        assert peak - start < bound_mib * 2 ** 20

    def test_commutator_builds_no_full_continuous_stack(self, monkeypatch):
        kernels, frames = [], []
        kernel_family = system._kernel_family
        estimate = comparison.estimate_operator_norm

        def recording(*args, **kwargs):
            cores, stack = kernel_family(*args, **kwargs)
            kernels.append(stack.shape)
            return cores, stack

        def refuse(**kwargs):
            raise AssertionError("block system assembled in the commutator sweep")

        monkeypatch.setattr(system, "_kernel_family", recording)
        monkeypatch.setattr(comparison, "_assemble", refuse)
        monkeypatch.setattr(comparison, "estimate_operator_norm",
                            lambda frame: frames.append(frame) or estimate(frame))
        hs = [0.5, 0.25, 0.125]
        rep = commutator_rate_sweep(skewed_problem(), hs, nodes_per_window=8)
        N, R = aligned_line_grid(hs, 8).nodes_count, rep.window_nodes[-1]
        assert R < N
        # both families on the (W* x line) and the (line x W*) mesh
        assert kernels == [(2, 2, R, N), (2, 2, N, R), (2, 2, N, R), (2, 2, R, N)]
        for w, frame in zip(rep.window_nodes, frames):
            shapes = {None if b is None else b.shape for row in frame.blocks for b in row}
            assert shapes == {None, (2, w, N - w)}

    def test_commutator_pairs_are_slices_of_the_full_weighted_kernels(self, monkeypatch):
        frames = []
        estimate = comparison.estimate_operator_norm
        monkeypatch.setattr(comparison, "estimate_operator_norm",
                            lambda frame: frames.append(frame) or estimate(frame))
        problem, hs = skewed_problem(), [0.5, 0.25, 0.125]
        commutator_rate_sweep(problem, hs, nodes_per_window=8)
        grid = aligned_line_grid(hs, 8)
        full = full_weighted_kernels(problem, grid)
        for h, frame in zip(hs, frames):
            win = window_mask(grid, h)
            for i, j in np.ndindex(4, 4):
                block = frame.blocks[i][j]
                if full[i][j] is None:
                    assert block is None
                    continue
                k = full[i][j]
                assert np.array_equal(block[0], k[win][:, ~win]), (h, i, j)
                assert np.array_equal(block[1], k[~win][:, win].T), (h, i, j)

    def test_kernel_strips_are_slices_of_the_full_assembly(self, rng):
        problem = skewed_problem()
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        full = assemble_continuous_system(problem, grid)
        for rows in (window_mask(grid, 0.25), rng.random(len(nodes)) < 0.3):
            (b_rows, b_cols), (l_rows, l_cols) = _kernel_strips(
                problem, nodes, grid.axis_weight, rows)
            assert np.array_equal(b_rows, full.bottom_kernel[:, :, rows])
            assert np.array_equal(b_cols, full.bottom_kernel[:, :, :, rows])
            assert np.array_equal(l_rows, full.left_kernel[:, :, rows])
            assert np.array_equal(l_cols, full.left_kernel[:, :, :, rows])

    def test_commutator_norms_equal_the_per_h_weighting(self):
        # power iteration runs on each rectangle of a block separately, so
        # the norms agree to rounding rather than bit for bit
        problem, hs = skewed_problem(), [0.5, 0.25, 0.125]
        expected = per_h_commutator_norms(problem, hs, 8)
        rep = commutator_rate_sweep(problem, hs, nodes_per_window=8)
        assert all(v > 0.0 for v in expected)
        for got, want in zip(rep.norms, expected):
            assert abs(got - want) <= 1e-12 * want

    def test_window_covering_the_line_leaves_a_zero_commutator(self):
        # lambda_factor 1 truncates the line at the finest window, so W^c
        # is empty there and the last frame is exactly zero
        problem, hs = skewed_problem(), [0.5, 0.25, 0.125]
        rep = commutator_rate_sweep(problem, hs, nodes_per_window=8, lambda_factor=1.0)
        grid = aligned_line_grid(hs, 8, lambda_factor=1.0)
        assert rep.window_nodes[-1] == grid.nodes_count
        expected = per_h_commutator_norms(problem, hs, 8, lambda_factor=1.0)
        assert rep.norms[-1] == expected[-1] == 0.0
        assert rep.slope is None
        for got, want in zip(rep.norms[:-1], expected[:-1]):
            assert want > 0.0 and abs(got - want) <= 1e-12 * want


def weighted_frame(quadrants, weights, quad):
    """Frame of the quadrants, each weighted with the same line weights."""
    return comparison._frame(tuple(
        None if q is None else comparison._weigh(q, weights, weights, quad)
        for q in quadrants))


def full_weighted_kernels(problem, grid):
    """Weighted frame blocks of the continuous kernels on the whole line."""
    q_full = assemble_continuous_system(problem, grid)
    weights = [(1.0 + grid.axis_nodes ** 2) ** e for e in problem.trace_exponents]
    return weighted_frame((None, q_full.bottom_kernel, q_full.left_kernel, None),
                          weights, grid.axis_weight).blocks


def per_h_commutator_norms(problem, hs, nodes_per_window, lambda_factor=4.0):
    """Reference: the signed full kernels formed and weighted anew for every h."""
    grid = aligned_line_grid(hs, nodes_per_window, lambda_factor=lambda_factor)
    q_full = assemble_continuous_system(problem, grid)
    weights = [(1.0 + grid.axis_nodes ** 2) ** e for e in problem.trace_exponents]
    norms = []
    for h in hs:
        chi = window_mask(grid, h).astype(float)
        sign = chi[:, None] - chi[None, :]
        quadrants = (None, sign * q_full.bottom_kernel, sign * q_full.left_kernel, None)
        norms.append(estimate_operator_norm(
            weighted_frame(quadrants, weights, grid.axis_weight)))
    return norms
