import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import comparison, system
from quadbvp import (FrequencyGrid, InvalidConfigurationError,
                     NormEstimateError, WeightedOperatorFrame,
                     aligned_line_grid, assemble_continuous_system,
                     commutator_rate_sweep, estimate_operator_norm, fit_rate,
                     kernel_gap_ratios, radial_power_problem,
                     section_gap_rate_sweep, window_mask, zeta,
                     zeta_power_gap)
from quadbvp.cli import load_config
from quadbvp.comparison import LINE_NODES_MAX, check_aligned_sweep, check_sweep
from quadbvp.lattice import _power_base
from quadbvp.system import ContinuousProblem, _assemble, _kernel_strips
from conftest import (fsum_multipliers, kernel_stacks, skewed_problem, unit_scales,
                      with_continuous_evaluators)

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


def single(block):
    """Frame of one block: an n = 1 operator whose only quadrant is A."""
    return WeightedOperatorFrame(((block[None, None], None), (None, None)))


def column_loop_norm(quadrants):
    """Oracle: the norm as the 2n x 2n block table and its column loop gave
    it, from the quadrants ``(A, B, C, D)``."""
    n = len(next(q for q in quadrants if q is not None))

    def block(i, j):
        quadrant = quadrants[2 * (i // n) + j // n]
        return None if quadrant is None else quadrant[i % n, j % n]

    best = 0.0
    for j in range(2 * n):
        col = 0.0
        for i in range(2 * n):
            if block(i, j) is not None:
                col += comparison._sigma_max(block(i, j))
        best = max(best, col)
    return best


class TestOperatorNormEstimate:
    def test_zero_matrix(self):
        assert estimate_operator_norm(single(np.zeros((5, 5)))) == 0.0
        # every quadrant vanishing is the zero operator too
        vanishing = WeightedOperatorFrame(((None, None), (None, None)))
        assert estimate_operator_norm(vanishing) == 0.0

    def test_identity_matrix(self):
        assert estimate_operator_norm(single(np.eye(7))) == pytest.approx(1.0, rel=1e-8)

    def test_matches_direct_svd_on_random_matrices(self, rng):
        for size in (50, 120, 200):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            est = estimate_operator_norm(single(m))
            exact = np.linalg.svd(m, compute_uv=False)[0]
            assert est == pytest.approx(exact, rel=1e-6)

    def test_block_norms_add_down_columns(self, rng):
        # the direct-sum norm adds block norms, so a column of two blocks
        # contributes the sum of their spectral norms
        a = rng.normal(size=(10, 10))
        b = rng.normal(size=(10, 10))
        f = WeightedOperatorFrame(((a[None, None], None), (b[None, None], None)))
        expected = (np.linalg.svd(a, compute_uv=False)[0]
                    + np.linalg.svd(b, compute_uv=False)[0])
        assert estimate_operator_norm(f) == pytest.approx(expected, rel=1e-6)

    def test_diagonal_block_norm_is_exact(self, rng):
        d = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert estimate_operator_norm(single(d)) == np.max(np.abs(d))

    def test_pair_block_norm_is_the_antisymmetric_blocks_norm(self, rng):
        # the pair (X, Y) stands for [[0, X], [-Y^T, 0]], whose singular
        # values are those of X and of Y together
        x = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
        y = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
        for x, y in ((3.0 * x, y), (x, 3.0 * y)):
            full = np.block([[np.zeros((6, 6)), x], [-y.T, np.zeros((15, 15))]])
            est = estimate_operator_norm(single(np.stack([x, y])))
            assert est == pytest.approx(np.linalg.norm(full, 2), rel=1e-6)
        assert estimate_operator_norm(single(np.zeros((2, 6, 0)))) == 0.0

    def test_dense_block_norm_allocates_less_than_the_block(self, rng):
        # the power step takes b^H b v as ((b v)^H b)^H, from vector
        # products, with no adjoint copy of b
        b = rng.normal(size=(256, 768)) + 1j * rng.normal(size=(256, 768))
        b += 40.0 * np.outer(rng.normal(size=256), rng.normal(size=768))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value = comparison._sigma_max(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(np.linalg.norm(b, 2), rel=1e-6)
        assert peak - start < b.nbytes

    def test_real_block_norm_allocates_less_than_the_block(self, rng):
        # a real block starts from a real vector: b @ v never casts b
        b = rng.normal(size=(256, 768))
        b += 40.0 * np.outer(rng.normal(size=256), rng.normal(size=768))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value = comparison._sigma_max(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(np.linalg.norm(b, 2), rel=1e-6)
        assert peak - start < b.nbytes // 4

    @pytest.mark.parametrize("rows", [[[1.0, -1.0]], [[1.0, -1.0], [2.0, -2.0]],
                                      [[0.0, 0.0], [2j, -2j]], [[1.0, -1.0, 0.0], [0.5, 0.5, -1.0]]])
    def test_a_block_whose_rows_sum_to_zero_is_not_read_as_zero(self, rows):
        # the rows annihilate the all-ones start, and the iteration restarts
        # from the conjugate of the largest row
        b = np.array(rows)
        assert comparison._sigma_max(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-8)

    def test_zero_blocks_of_every_kind_are_zero(self):
        for block in (np.zeros(4), np.zeros((3, 5)), np.zeros((2, 3, 5)), np.zeros((0, 3)),
                      np.zeros((3, 5), dtype=complex)):
            assert comparison._sigma_max(block) == 0.0

    def test_iteration_budget_exhaustion_is_reported(self, rng, monkeypatch):
        monkeypatch.setattr(comparison, "_POWER_TOL", 0.0)
        monkeypatch.setattr(comparison, "_POWER_MAX_ITER", 3)
        m = rng.normal(size=(6, 6))
        with pytest.raises(NormEstimateError) as info:
            estimate_operator_norm(single(m))
        assert info.value.iterations == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quadrant_norm_equals_the_column_loop_over_the_block_table(self, rng, n):
        def quadrant(kind):
            r, c = rng.integers(1, 9, size=2)
            shape = {"none": None, "diagonal": (n, n, r), "dense": (n, n, r, c),
                     "pair": (n, n, 2, r, c)}[kind]
            if shape is None:
                return None
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        kinds = ("none", "diagonal", "dense", "pair")
        for _ in range(20):
            quadrants = [quadrant(kind) for kind in rng.choice(kinds, size=4)]
            if all(q is None for q in quadrants):
                quadrants[rng.integers(4)] = quadrant("dense")
            a, b, c, d = quadrants
            frame = WeightedOperatorFrame(((a, b), (c, d)))
            assert estimate_operator_norm(frame) == column_loop_norm(quadrants)

    def test_quadrant_that_is_not_an_n_by_n_stack_rejected(self, rng):
        m = rng.normal(size=(4, 4))
        stack = rng.normal(size=(2, 2, 4, 4))
        with pytest.raises(ValueError, match=r"quadrant B of shape \(2, 3, 4, 4\)"):
            estimate_operator_norm(WeightedOperatorFrame(
                ((stack, rng.normal(size=(2, 3, 4, 4))), (None, None))))
        # a 2-D block in the place of a quadrant is not read as a stack of rows
        with pytest.raises(ValueError, match=r"quadrant C of shape \(4, 4\)"):
            estimate_operator_norm(WeightedOperatorFrame(((None, None), (m, None))))
        # nor is a block table in the layout of the 2n x 2n frame
        with pytest.raises(ValueError):
            estimate_operator_norm(WeightedOperatorFrame(((m,),)))

    @pytest.mark.parametrize("mode, sweep", [("section_gap", section_gap_rate_sweep),
                                             ("commutator", commutator_rate_sweep)])
    def test_shipped_sweep_norms_equal_the_column_loop(self, monkeypatch, mode, sweep):
        checked = []
        estimate = comparison.estimate_operator_norm

        def compared(frame):
            value = estimate(frame)
            assert value == column_loop_norm([q for row in frame.blocks for q in row])
            checked.append(value)
            return value

        monkeypatch.setattr(comparison, "estimate_operator_norm", compared)
        cfg = load_config(ROOT / "configs" / f"{mode}.ini")
        rep = sweep(cfg.problem, cfg.h_values, nodes_per_window=cfg.nodes_per_window,
                    lambda_factor=cfg.lambda_factor)
        assert checked == list(rep.norms) and len(checked) == len(cfg.h_values)


def per_block(stack, w_out, w_in):
    """Oracle: each block of an ``(n, n, ...)`` stack of diagonals or
    matrices weighed on its own, in place: block ``(j, k)`` multiplied by
    ``sqrt(w_out[j])`` along its rows, then divided by ``sqrt(w_in[k])``
    along its columns."""
    for j, k in np.ndindex(stack.shape[:2]):
        s_out = np.sqrt(w_out[j])
        block = stack[j, k]
        block *= s_out[:, None] if stack.ndim == 4 else s_out
        block /= np.sqrt(w_in[k])
    return stack


class TestStripWeights:
    @pytest.mark.parametrize("make", [
        lambda: radial_power_problem(s=2.25, n=1, delta=-0.25, bottom_orders=[-1.0],
                                     left_orders=[0.0]),
        skewed_problem,
        lambda: with_continuous_evaluators(
            lambda ev: lambda x1, x2: np.asarray(ev(x1, x2), dtype=complex),
            radial_power_problem(s=3.25, n=3, delta=-0.25, bottom_orders=[0.0, -1.0, -0.5],
                                 left_orders=[0.5, 0.0, -1.0])),
    ], ids=["real n1", "complex n2", "complex n3"])
    @pytest.mark.parametrize("tile_rows", [None, 8])
    def test_scaled_slots_equal_the_per_block_weighing(self, monkeypatch, rng, make, tile_rows):
        # the slots weighed tile by tile as they are formed equal the
        # unscaled slots weighed block by block afterwards, bit for bit
        problem = make()
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes, quad = grid.axis_nodes, grid.axis_weight
        window, line = nodes[window_mask(grid, 0.25)], np.roll(nodes, len(nodes) // 2)
        w_window, w_line = ([rng.uniform(0.5, 4.0, size=len(x)) for _ in range(problem.n)]
                            for x in (window, line))
        want = _kernel_strips(problem, window, line, quad, unit_scales(problem, window, line))
        for pair in want:
            per_block(pair[:, :, 0], w_window, w_line)
            per_block(pair[:, :, 1].swapaxes(-1, -2), w_line, w_window)
        if tile_rows:
            monkeypatch.setattr(system, "_TILE", tile_rows * len(line))
            assert len(system._row_tiles(len(window), len(line))) > 1
        scales = tuple(np.sqrt(np.array(w)) for w in (w_window, w_line))
        for got, pair in zip(_kernel_strips(problem, window, line, quad, scales), want):
            assert got.dtype == pair.dtype == (np.float64 if problem.n == 1 else np.complex128)
            assert np.array_equal(got, pair)


class TestPairStripsArray:
    @pytest.mark.parametrize("make", [
        lambda: radial_power_problem(s=2.25, n=1, delta=-0.25, bottom_orders=[0.0],
                                     left_orders=[0.0]),
        skewed_problem,
    ], ids=["real n1", "complex n2"])
    def test_the_two_strips_are_one_allocation(self, make):
        # two strips of 4 MiB each, freed together after a sweep, reached
        # glibc's heap trim threshold and were given back to the system, so
        # every later sweep faulted their pages in again: 833 minor faults
        # per commutator run in benchmark order, 0 with one array
        problem = make()
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        window, line = nodes[window_mask(grid, 0.25)], np.roll(nodes, len(nodes) // 2)
        bottom, left = _kernel_strips(problem, window, line, grid.axis_weight,
                                      unit_scales(problem, window, line))
        whole = bottom.base
        assert whole is not None and left.base is whole
        assert np.shares_memory(whole, bottom) and np.shares_memory(whole, left)
        assert whole.nbytes == bottom.nbytes + left.nbytes

    @pytest.mark.parametrize("complex_family", [0, 1], ids=["bottom", "left"])
    @pytest.mark.parametrize("tile_rows", [None, 8])
    def test_one_complex_family_at_n1_makes_both_strips_complex(self, monkeypatch, complex_family,
                                                                tile_rows):
        # n = 1 strips over a real factor, one family's values real and the
        # other's complex: both strips are complex, each equal entry for
        # entry to the strip of a problem whose families are both as its own
        real = radial_power_problem(s=2.25, n=1, delta=-0.25, bottom_orders=[-1.0],
                                    left_orders=[-0.5])

        def cast(symbols):
            return tuple(lambda x1, x2, ev=ev: np.asarray(ev(x1, x2), dtype=complex)
                         for ev in symbols)

        complex_ = replace(real, bottom_symbols=cast(real.bottom_symbols),
                           left_symbols=cast(real.left_symbols))
        families = ("bottom_symbols", "left_symbols")
        mixed = replace(real, **{families[complex_family]:
                                 getattr(complex_, families[complex_family])})
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        window, line = nodes[window_mask(grid, 0.25)], np.roll(nodes, len(nodes) // 2)
        if tile_rows:
            monkeypatch.setattr(system, "_TILE", tile_rows * len(line))
            assert len(system._row_tiles(len(window), len(line))) > 1

        def strips(problem):
            return _kernel_strips(problem, window, line, grid.axis_weight,
                                  unit_scales(problem, window, line))

        want = [strips(complex_ if f == complex_family else real)[f] for f in (0, 1)]
        assert want[complex_family].dtype == np.complex128
        assert want[1 - complex_family].dtype == np.float64
        for got, pair in zip(strips(mixed), want):
            assert got.dtype == np.complex128
            assert np.array_equal(got, pair)


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

    @pytest.mark.parametrize("hs, reason", [((0.25, 0.5, 1.0), "strictly decreasing"),
                                            ((1.0, 0.5, 0.0), "h_values must be positive")])
    def test_the_sweep_rule_applies(self, hs, reason):
        with pytest.raises(InvalidConfigurationError, match=reason):
            fit_rate(hs, (1.0, 0.5, 0.25))


class TestSweepRules:
    def test_sizes_come_back_as_floats(self):
        hs = check_sweep(np.array([1, 0.5, 0.25], dtype=np.float32), 3)
        assert hs == (1.0, 0.5, 0.25) and all(type(h) is float for h in hs)

    @pytest.mark.parametrize("minimum", [0, 1])
    def test_empty_sweep_needs_one_size(self, minimum):
        with pytest.raises(InvalidConfigurationError,
                           match=re.escape("h_values needs at least 1 mesh sizes, got 0")):
            check_sweep([], minimum)

    @pytest.mark.parametrize("hs, nodes_per_window", [
        ([0.6, 0.3, 0.2], 32), ([0.7], 6), ([0.45, 0.3], 4)])
    def test_aligned_windows_are_their_torus_grids(self, hs, nodes_per_window):
        # beyond the halving sweeps of test_window_nodes_form_exact_torus_grids
        check_aligned_sweep(hs, nodes_per_window)
        grid = aligned_line_grid(hs, nodes_per_window)
        for h in hs:
            mask = window_mask(grid, h)
            torus = FrequencyGrid(h, int(mask.sum()), ndim=1)
            assert np.allclose(grid.axis_nodes[mask], torus.axis_nodes, atol=1e-12), h

    def test_unaligned_window_overhangs_its_torus(self):
        # 26.67 cells a side: the h = 0.3 window holds 54 nodes of width
        # 0.3927, 21.21 in all, where its torus is 20.94 wide
        hs = [0.5, 0.3, 0.2, 0.1]
        with pytest.raises(InvalidConfigurationError, match=r"at h = 0\.3 spans 26\.67"):
            check_aligned_sweep(hs, 32)
        grid = aligned_line_grid(hs, 32)
        mask = window_mask(grid, 0.3)
        assert mask.sum() * grid.axis_weight == pytest.approx(21.21, abs=0.01)
        assert mask.sum() * grid.axis_weight > 2 * math.pi / 0.3 + 0.2


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
        with pytest.raises(InvalidConfigurationError,
                           match="^lambda_factor must be finite and >= 1, got 0.5$"):
            aligned_line_grid([0.5], 16, lambda_factor=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"lambda_factor": math.nan}, {"lambda_factor": math.inf},
        {"lambda_factor": -math.inf}])
    def test_non_finite_truncation_rejected(self, kwargs):
        with pytest.raises(InvalidConfigurationError,
                           match="^lambda_factor must be finite and >= 1"):
            aligned_line_grid([0.5], 16, **kwargs)

    @pytest.mark.parametrize("lambda_factor, half_width", [(1e308, "inf"), (1e307, "6.28319e+307")])
    def test_truncation_overflowing_the_line_rejected(self, lambda_factor, half_width):
        # a finite factor whose half-width, or whose count of cells, is past
        # the largest float: no grid is built, and nothing raises but this
        with pytest.raises(InvalidConfigurationError,
                           match=f"^truncation half-width {re.escape(half_width)} must be "
                                 "finite and span a finite number of cells"):
            aligned_line_grid([0.5], 64, lambda_factor=lambda_factor)

    @pytest.mark.parametrize("lambda_factor", [1e15, 1e300])
    def test_line_of_more_nodes_than_the_ceiling_rejected(self, lambda_factor):
        # finite lines of 6.4e16 nodes and more, which no memory holds:
        # named by their factor and count, before any node is allocated
        with pytest.raises(InvalidConfigurationError,
                           match=rf"^lambda_factor = {re.escape(f'{lambda_factor:g}')} makes "
                                 r"a line of \d{17,} nodes, more than LINE_NODES_MAX = 1048576$"):
            aligned_line_grid([0.5], 64, lambda_factor=lambda_factor)
        assert LINE_NODES_MAX == 2 ** 20

    @pytest.mark.parametrize("nodes_per_window", [0, -4, 7])
    def test_odd_or_empty_window_rejected(self, nodes_per_window):
        with pytest.raises(InvalidConfigurationError,
                           match=f"^nodes_per_window must be a positive even integer, "
                                 f"got {nodes_per_window}$"):
            aligned_line_grid([0.5], nodes_per_window)

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
            s=2.25, n=1, delta=-0.25, plus_factor=radial(3.0),
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

    @pytest.mark.parametrize("betas, gammas, message", [
        ([1.5], [0.0], "commutator sweep needs s - bottom order > 1.0; "
                       "violated at j=0 (s=2.25, order=1.5)"),
        ([0.0], [0.5], "commutator sweep needs s - left order > 2.0; "
                       "violated at j=0 (s=2.25, order=0.5)")])
    def test_hypothesis_message_names_the_edge(self, betas, gammas, message):
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25,
                                       bottom_orders=betas, left_orders=gammas)
        with pytest.raises(InvalidConfigurationError, match=re.escape(message)):
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

    def test_single_trace_gap_is_its_multiplier_gap(self):
        # at n = 1 the kernel gap is its one block (0, 0), zero as its
        # modulus |g_0| is; each multiplier gap is diagonal with equal
        # weights on both sides, so the norm is the larger max modulus of
        # the two
        problem = radial_power_problem(s=3.25, n=1, delta=-0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        hs = [0.5, 0.25, 0.125]
        rep = section_gap_rate_sweep(problem, hs, nodes_per_window=16)
        grid = aligned_line_grid(hs, 16)
        for norm, (wnodes, (mult_b, mult_l), cores, moduli) in zip(
                rep.norms, comparison._window_gaps(problem, grid, hs)):
            w = len(wnodes)
            assert [core.shape for core in cores] == [(1, w, w)] * 2
            assert moduli.shape == (w, 1) and not np.any(moduli)
            assert mult_b.shape == mult_l.shape == (1, 1, len(wnodes))
            want = max(np.max(np.abs(mult_b)), np.max(np.abs(mult_l)))
            assert want > 0.0 and norm == pytest.approx(want, rel=1e-13)
        assert rep.slope >= 0.8

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

    def test_unaligned_sweep_rejected_before_any_work(self, monkeypatch):
        # the commutator takes this sweep; the section gap's windows must
        # be their tori's midpoint grids
        calls = count_assembly_calls(monkeypatch)
        with pytest.raises(InvalidConfigurationError, match=r"at h = 0\.3 "):
            section_gap_rate_sweep(skewed_problem(), [0.5, 0.3, 0.2, 0.1])
        assert calls == []

    def test_aligned_non_halving_sweep_runs(self):
        problem = radial_power_problem(s=3.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, -1.0], left_orders=[0.0, -1.0])
        rep = section_gap_rate_sweep(problem, [0.6, 0.3, 0.2])
        assert rep.window_nodes == (32, 64, 96)
        assert rep.slope >= 0.9 and rep.monotone_violations == ()

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
            # square cores and kernels; the multipliers integrate over the
            # nodes outside the rows only
            for field in ("bottom_core", "left_core"):
                core = getattr(strip, field)
                assert core.shape == (2, R, R)
                sliced = getattr(full, field)[..., rows, :][..., rows]
                assert np.array_equal(core, sliced), (name, field)
            for kernel, whole in zip(kernel_stacks(strip, rows), kernel_stacks(full)):
                assert kernel.shape == (2, 2, R, R)
                assert np.array_equal(kernel, whole[..., rows, :][..., rows]), name
            powers = _power_base(nodes[~rows], h)
            for field, cores in (("bottom_mult", full.bottom_core), ("left_mult", full.left_core)):
                # the full assembly's sums outside the rows, correctly
                # rounded: for every node no term, and exactly 0
                mult = getattr(strip, field)
                want, bound = fsum_multipliers(cores[:, rows][..., ~rows], powers)
                assert mult.shape == want.shape == (2, 2, R)
                assert np.all(np.abs(mult.real - want.real) <= bound), (name, field)
                assert np.all(np.abs(mult.imag - want.imag) <= bound), (name, field)

    @pytest.mark.parametrize("hs", [[0.5, 0.25, 0.125], [0.7, 0.45, 0.3],
                                    # the shipped four-halving sweep
                                    [0.5, 0.25, 0.125, 0.0625]])
    def test_window_gaps_equal_the_gathered_strip(self, hs):
        # the window's rows and columns of the full assembly minus the
        # lattice operator on the window, against correctly rounded sums:
        # each kernel-gap block, up to its row phase, the conjugate phase
        # of g = (i xi)^k - zeta^k at its output node, to the rounding of
        # its difference, each multiplier gap to the rounding of a sum of
        # all its terms, and the (j, 0) ones, exactly the sums over the
        # nodes outside the window, to the rounding of a sum of those
        # terms alone
        problem = skewed_problem()
        grid = aligned_line_grid(hs, 8)
        nodes, quad = grid.axis_nodes, grid.axis_weight
        full = assemble_continuous_system(problem, grid)
        full_stacks = kernel_stacks(full)
        full_cores = (full.bottom_core, full.left_core)
        eps = np.finfo(float).eps
        windows = comparison._window_gaps(problem, grid, hs)
        for h, (wnodes, mults, cores, moduli) in zip(hs, windows):
            win = window_mask(grid, h)
            assert np.array_equal(wnodes, nodes[win])
            lattice = _assemble(n=problem.n, nodes=wnodes, weight=quad, h=h,
                                plus_factor=problem.plus_factor,
                                bottom_symbols=problem.bottom_symbols,
                                left_symbols=problem.left_symbols)
            lattice_stacks = kernel_stacks(lattice)
            zetas = _power_base(wnodes, h)
            # |g_0| = |1 - 1|, so the blocks (j, 0) are exactly 0
            assert moduli.shape == (win.sum(), 2) and not np.any(moduli[:, 0])
            for f, j in np.ndindex(2, 2):
                k = 1
                block = cores[f][j] * moduli[:, k][:, None]
                continuous = full_stacks[f][j, k][np.ix_(win, win)]
                g = (1j * wnodes) ** k - zetas ** k
                want = (continuous - lattice_stacks[f][j, k]) * np.conj(g / np.abs(g))[:, None]
                bound = 4 * eps * (np.abs(continuous) + np.abs(lattice_stacks[f][j, k]))
                assert np.all(np.abs(block - want) <= bound), (h, f, j, k)
            for f, mult in enumerate(mults):
                assert mult.shape == (2, 2, win.sum())
                core = full_cores[f][:, win]
                for j, k in np.ndindex(2, 2):
                    terms = np.concatenate([core[j] * (1j * nodes) ** k,
                                            -core[j][:, win] * zetas ** k], axis=1)
                    if k == 0:  # the terms on the window cancel exactly
                        terms = core[j][:, ~win]
                    want = np.array([complex(math.fsum(t.real), math.fsum(t.imag))
                                     for t in terms])
                    bound = len(nodes) * eps * np.abs(terms).sum(axis=1)
                    assert np.all(np.abs(mult[j, k].real - want.real) <= bound), (h, f, j, k)
                    assert np.all(np.abs(mult[j, k].imag - want.imag) <= bound), (h, f, j, k)

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
        strips = []  # core shapes of the continuous assemblies

        def recording(**kwargs):
            system = _assemble(**kwargs)
            if kwargs["h"] is None:
                strips.append(system.bottom_core.shape[-2:])
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

    def test_gap_sweeps_assemble_one_strip_per_call(self, monkeypatch):
        # each window's lattice operator is sliced from the continuous
        # strip, so nothing is assembled on a torus window
        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            return _assemble(**kwargs)

        monkeypatch.setattr(comparison, "_assemble", recording)
        cfg = load_config(ROOT / "configs" / "section_gap.ini")
        section_gap_rate_sweep(cfg.problem, cfg.h_values, nodes_per_window=cfg.nodes_per_window,
                               lambda_factor=cfg.lambda_factor)
        counts = [len(calls)]
        cfg = load_config(ROOT / "configs" / "kernel_gap.ini")
        for h in cfg.h_values:
            kernel_gap_ratios(cfg.problem, h, nodes_per_window=cfg.nodes_per_window,
                              lambda_factor=cfg.lambda_factor)
            counts.append(len(calls) - sum(counts))
        assert counts == [1] * (1 + len(cfg.h_values))
        for kwargs in calls:
            assert kwargs["h"] is None and kwargs["rows"] is not None

    @pytest.mark.parametrize("mode, sweep", [
        # the square strip's real cores take 2 MiB on section_gap.ini, and
        # the peak, 3.49 MiB, is their assembly's last row tile; the one
        # (w*, w*) buffer the kernel-gap blocks are formed in, real since
        # they are given up to a row phase, takes 0.5 MiB after it (1 MiB
        # complex); both meshes' complex plus factors at once peaked at 28
        # MiB, a mesh-sized temporary per multiplier sum and a second
        # lattice kernel stack per window at 22.2 MiB, a lattice system
        # assembled per window at 19.2 MiB, complex cores at 16.3 MiB, the
        # coarser window's gaps held while the finest one's were formed at
        # 13.2 MiB, the finest window's two (n, n, w, w) kernel-gap stacks
        # (8 MiB) at 11.2 MiB, and the strip's mesh-sized factor, values
        # and cores, before they were assembled in row tiles, at 11.35 MiB
        # with the stacks (3.43 MiB with neither)
        ("section_gap", section_gap_rate_sweep),
        # the two weighted pair strips, real for the radial n = 1 problem,
        # take 8 MiB on commutator.ini and the frame blocks are views of
        # them; the finest window's gathered rectangles and an adjoint copy
        # per block peaked at 31 MiB, a second mesh-sized array per radial
        # symbol value at 22.1 MiB, complex strips at 20.3 MiB, real ones
        # with a mesh-sized plus factor and symbol value at 12.3 MiB (8.69
        # MiB with the meshes evaluated in row tiles, 8.61 MiB with the
        # order-0 symbol a broadcast one and the strips weighed per tile)
        ("commutator", commutator_rate_sweep)])
    def test_shipped_sweep_allocates_only_the_blocks_it_reads(self, mode, sweep):
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
        assert peak - start < {"section_gap": 4.0, "commutator": 9.0}[mode] * 2 ** 20

    def test_commutator_builds_no_full_continuous_stack(self, monkeypatch):
        strips, frames = [], []
        kernel_strips = comparison._kernel_strips
        estimate = comparison.estimate_operator_norm

        def recording(*args, **kwargs):
            pairs = kernel_strips(*args, **kwargs)
            strips.extend(pairs)
            return pairs

        def refuse(**kwargs):
            raise AssertionError("block system assembled in the commutator sweep")

        monkeypatch.setattr(comparison, "_kernel_strips", recording)
        monkeypatch.setattr(comparison, "_assemble", refuse)
        monkeypatch.setattr(comparison, "estimate_operator_norm",
                            lambda frame: frames.append(frame) or estimate(frame))
        hs = [0.5, 0.25, 0.125]
        rep = commutator_rate_sweep(skewed_problem(), hs, nodes_per_window=8)
        N, R = aligned_line_grid(hs, 8).nodes_count, rep.window_nodes[-1]
        assert R < N
        # one pair strip per family, between the finest window and the line
        assert [pair.shape for pair in strips] == [(2, 2, 2, R, N)] * 2
        bottom, left = strips
        for w, frame in zip(rep.window_nodes, frames):
            (a, b), (c, d) = frame.blocks
            assert a is None and d is None
            # bottom equations take left traces and left equations bottom ones
            for quadrant, strip in ((b, bottom), (c, left)):
                assert type(quadrant) is np.ndarray and quadrant.shape == (2, 2, 2, w, N - w)
                assert np.shares_memory(quadrant, strip), w

    def test_commutator_pairs_are_slices_of_the_full_weighted_kernels(self, monkeypatch):
        frames = []
        estimate = comparison.estimate_operator_norm
        monkeypatch.setattr(comparison, "estimate_operator_norm",
                            lambda frame: frames.append(frame) or estimate(frame))
        problem, hs = skewed_problem(), [0.5, 0.25, 0.125]
        commutator_rate_sweep(problem, hs, nodes_per_window=8)
        grid = aligned_line_grid(hs, 8)
        full = full_weighted_kernels(problem, grid)
        # W^c in the strips' line order: from 0 out to +lam, then from -lam
        # back to 0
        line = np.roll(np.arange(grid.nodes_count), grid.nodes_count // 2)
        for h, frame in zip(hs, frames):
            win = window_mask(grid, h)
            outside = line[~win[line]]
            for quadrant, kernels in zip([q for row in frame.blocks for q in row],
                                         [k for row in full for k in row]):
                if kernels is None:
                    assert quadrant is None
                    continue
                assert np.array_equal(quadrant[:, :, 0], kernels[:, :, win][..., outside]), h
                assert np.array_equal(quadrant[:, :, 1],
                                      kernels[:, :, outside][..., win].swapaxes(-1, -2)), h

    def test_kernel_strips_are_slices_of_the_full_assembly(self, rng):
        problem = skewed_problem()
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        N = len(nodes)
        bottom, left = kernel_stacks(assemble_continuous_system(problem, grid))
        for rows in (window_mask(grid, 0.25), rng.random(N) < 0.3):
            for line in (np.roll(np.arange(N), N // 2), rng.permutation(N)):
                pairs = _kernel_strips(problem, nodes[rows], nodes[line], grid.axis_weight,
                                       unit_scales(problem, nodes[rows], nodes[line]))
                for pair, full in zip(pairs, (bottom, left)):
                    assert pair.shape == (2, 2, 2, rows.sum(), N)
                    assert np.array_equal(pair[:, :, 0], full[:, :, rows][..., line])
                    assert np.array_equal(pair[:, :, 1],
                                          full[:, :, line][..., rows].swapaxes(-1, -2))

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


class TestRealArithmetic:
    @pytest.mark.parametrize("mode, sweep", [("section_gap", section_gap_rate_sweep),
                                             ("commutator", commutator_rate_sweep)])
    def test_norms_of_a_real_problem_equal_those_of_its_complex_cast(self, mode, sweep):
        # the shipped radial problems are real, and their kernels float64
        # where every block is real; the complex casts take the complex
        # arithmetic of every step
        cfg = load_config(ROOT / "configs" / f"{mode}.ini")
        cast = with_continuous_evaluators(
            lambda ev: lambda x1, x2: np.asarray(ev(x1, x2), dtype=complex), cfg.problem)
        real, complex_ = (sweep(problem, cfg.h_values, nodes_per_window=cfg.nodes_per_window,
                                lambda_factor=cfg.lambda_factor)
                          for problem in (cfg.problem, cast))
        for got, want in zip(real.norms, complex_.norms):
            assert got == pytest.approx(want, rel=1e-13)

    def test_section_gap_neither_forms_nor_weighs_the_zero_blocks(self, monkeypatch):
        # kernel-gap blocks (j, 0) are exactly zero: only blocks k >= 1 are
        # formed, weighed as they are formed, and their norms taken; they
        # are given up to a row phase, so the shipped problem's real cores
        # give real blocks
        norms = []
        sigma_max = comparison._sigma_max

        def recording_norm(block):
            if np.ndim(block) == 2:
                norms.append((block.shape, block.dtype))
            return sigma_max(block)

        monkeypatch.setattr(comparison, "_sigma_max", recording_norm)
        hs = [0.5, 0.25, 0.125]
        shipped = load_config(ROOT / "configs" / "section_gap.ini").problem
        for problem, dtype in ((skewed_problem(), np.complex128), (shipped, np.float64)):
            norms.clear()
            rep = section_gap_rate_sweep(problem, hs, nodes_per_window=8)
            assert all(v > 0.0 for v in rep.norms)
            # per window and family, blocks (0, 1) and (1, 1)
            assert norms == [((w, w), dtype) for w in rep.window_nodes for _ in range(2 * 2)]


def weighted_frame(quadrants, weights):
    """Frame of the quadrants ``((A, B), (C, D))``, each weighted with the
    same line weights."""
    return WeightedOperatorFrame(tuple(
        tuple(None if q is None else per_block(q, weights, weights)
              for q in row) for row in quadrants))


def full_weighted_kernels(problem, grid):
    """Weighted quadrants of the continuous kernels on the whole line."""
    bottom, left = kernel_stacks(assemble_continuous_system(problem, grid))
    weights = [(1.0 + grid.axis_nodes ** 2) ** e for e in problem.trace_exponents]
    return weighted_frame(((None, bottom), (left, None)), weights).blocks


def per_h_commutator_norms(problem, hs, nodes_per_window, lambda_factor=4.0):
    """Reference: the signed full kernels formed and weighted anew for every h."""
    grid = aligned_line_grid(hs, nodes_per_window, lambda_factor=lambda_factor)
    bottom, left = kernel_stacks(assemble_continuous_system(problem, grid))
    weights = [(1.0 + grid.axis_nodes ** 2) ** e for e in problem.trace_exponents]
    norms = []
    for h in hs:
        chi = window_mask(grid, h).astype(float)
        sign = chi[:, None] - chi[None, :]
        quadrants = ((None, sign * bottom), (sign * left, None))
        norms.append(estimate_operator_norm(weighted_frame(quadrants, weights)))
    return norms
