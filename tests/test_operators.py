import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import (FrequencyGrid, LatticeFunction,
                     MeshMismatchError, PeriodicSymbol, SpectralFunction,
                     apply_symbol_to_spectrum, boundary_trace_spectrum,
                     discrete_fourier, zeta)
from conftest import lattice_function, unit_mass


def const_symbol(h, value=1.0):
    return PeriodicSymbol(lambda x1, x2: np.full(np.broadcast(x1, x2).shape, value),
                          0.0, h)


class TestApplyDigitalPdo:
    def test_identity_symbol_acts_as_identity(self, rng):
        h = 0.5
        vals = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        u = LatticeFunction(h, ((-1, 1), (0, 3)), vals)
        window = [(i, j) for i in range(-1, 2) for j in range(0, 4)]
        out = apply_symbol_to_spectrum(const_symbol(h),
                                       discrete_fourier(u, FrequencyGrid(h, 16)), window)
        assert np.max(np.abs(out.values - vals)) <= 1e-10 * np.max(np.abs(vals))

    def test_difference_symbol_on_unit_mass(self):
        # quadrature of the first-difference symbol over the torus equals
        # -2 pi per axis, so the value at the origin is -1; checked against
        # a 10x dense quadrature oracle
        h = 1.0
        sym = PeriodicSymbol(lambda x1, x2: zeta(x1, h), 1.0, h)
        u = unit_mass(h, (0, 0))
        out = apply_symbol_to_spectrum(sym, discrete_fourier(u, FrequencyGrid(h, 32)), [(0, 0)])
        assert out.values[0, 0] == pytest.approx(-1.0, abs=1e-12)

        dense = FrequencyGrid(h, 320)
        x1, _ = np.broadcast_arrays(*dense.nodes_2d())
        oracle = np.sum(zeta(x1, h)) * dense.axis_weight ** 2 / (2 * math.pi) ** 2
        assert out.values[0, 0] == pytest.approx(oracle, abs=1e-12)

    def test_backward_phase_symbol_pulls_mass_to_origin(self):
        # exp(-i h xi1) shifts lattice support down by one along the first
        # axis under the forward convention exp(+i x.xi)
        h = 1.0
        sym = PeriodicSymbol(lambda x1, x2: np.exp(-1j * h * np.asarray(x1)), 0.0, h)
        u = unit_mass(h, (1, 0))
        out = apply_symbol_to_spectrum(sym, discrete_fourier(u, FrequencyGrid(h, 16)), [(0, 0)])
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_forward_phase_symbol_pushes_mass_up(self):
        h = 1.0
        sym = PeriodicSymbol(lambda x1, x2: np.exp(1j * h * np.asarray(x1)), 0.0, h)
        u = unit_mass(h, (1, 0))
        out = apply_symbol_to_spectrum(sym, discrete_fourier(u, FrequencyGrid(h, 16)),
                                       [(0, 0), (2, 0)])
        assert out.values[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert out.values[2, 0] == pytest.approx(1.0, abs=1e-13)

    def test_composition_matches_product_symbol_on_full_window(self, rng):
        # with the support box exactly as wide as the grid, the transform
        # pair is a discrete orthogonal basis and composition is exact
        h, n = 0.5, 8
        g = FrequencyGrid(h, n)
        vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = LatticeFunction(h, ((0, n - 1), (0, n - 1)), vals)
        window = [(i, j) for i in range(n) for j in range(n)]
        p = PeriodicSymbol(lambda x1, x2: 1.0 + 0.5 * np.exp(1j * h * np.asarray(x1)),
                           0.0, h)
        q = PeriodicSymbol(lambda x1, x2: np.exp(-1j * h * np.asarray(x2))
                           - 0.25 * np.exp(1j * h * np.asarray(x1)), 0.0, h)
        pq = PeriodicSymbol(lambda x1, x2: p(x1, x2) * q(x1, x2), 0.0, h)
        first = apply_symbol_to_spectrum(p, discrete_fourier(u, g), window)
        step = apply_symbol_to_spectrum(q, discrete_fourier(first, g), window)
        direct = apply_symbol_to_spectrum(pq, discrete_fourier(u, g), window)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(step.values - direct.values)) <= 1e-8 * scale

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31),
           alpha=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
           beta=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
    def test_linearity(self, seed, alpha, beta):
        h = 1.0
        g = FrequencyGrid(h, 8)
        rng = np.random.default_rng(seed)
        v1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        box = ((0, 1), (0, 1))
        sym = PeriodicSymbol(lambda x1, x2: 1.0 + 0.3 * np.exp(1j * (x1 - x2)), 0.0, h)
        window = [(0, 0), (1, 1)]
        def apply(v):
            return apply_symbol_to_spectrum(
                sym, discrete_fourier(LatticeFunction(h, box, v), g), window)

        out1, out2 = apply(v1), apply(v2)
        combo = apply(alpha * v1 + beta * v2)
        expected = alpha * out1.values + beta * out2.values
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(combo.values - expected)) <= 1e-12 * scale

    def test_matches_the_per_point_phase_sum(self, rng):
        # reference: one full phase sum over the grid per window point;
        # points of the support box outside the window read zero
        h, N = 0.5, 24
        g = FrequencyGrid(h, N)
        spectrum = SpectralFunction(
            g, rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        sym = PeriodicSymbol(lambda x1, x2: 1.0 + 0.3 * np.exp(1j * h * (x1 - 2 * x2)),
                             0.0, h)
        window = [(0, 0), (3, -2), (5, 7), (1, 1)]
        out = apply_symbol_to_spectrum(sym, spectrum, window)
        assert out.support_box == ((0, 5), (-2, 7))

        x1, x2 = g.nodes_2d()
        weighted = sym(x1, x2) * spectrum.values * g.axis_weight ** 2 / (2 * math.pi) ** 2
        expected = np.zeros((6, 10), dtype=complex)
        for i1, i2 in window:
            phase = np.exp(-1j * h * (i1 * x1 + i2 * x2))
            expected[i1, i2 + 2] = np.sum(weighted * phase)
        scale = np.sum(np.abs(weighted))
        assert np.max(np.abs(out.values - expected)) <= 1e-14 * scale

    def test_mesh_mismatch_rejected(self):
        # the symbol against the spectrum's grid, the lattice function
        # against the grid it is transformed on
        u = unit_mass(0.5, (0, 0))
        spectrum = discrete_fourier(u, FrequencyGrid(0.5, 8))
        with pytest.raises(MeshMismatchError, match="symbol mesh 1.0 .* grid mesh 0.5"):
            apply_symbol_to_spectrum(const_symbol(1.0), spectrum, [(0, 0)])
        with pytest.raises(MeshMismatchError, match="lattice mesh 0.5 .* grid mesh 1.0"):
            discrete_fourier(u, FrequencyGrid(1.0, 8))


class TestBoundaryTraceSpectrum:
    def test_unit_symbol_integrates_the_torus_width(self):
        g = FrequencyGrid(1.0, 16)
        out = boundary_trace_spectrum(const_symbol(1.0),
                                      SpectralFunction(g, np.ones((16, 16))), "bottom")
        assert out.grid.ndim == 1
        assert np.allclose(out.values, 2 * math.pi, rtol=1e-14)

    def test_separable_spectrum_factorizes(self):
        g = FrequencyGrid(0.5, 16)
        x1, x2 = g.nodes_2d()
        fv = np.exp(1j * 0.5 * x1[:, 0])
        gv = 1.0 / (1.0 + x2[0] ** 2)
        out = boundary_trace_spectrum(const_symbol(0.5),
                                      SpectralFunction(g, np.outer(fv, gv)), "bottom")
        expected = fv * (np.sum(gv) * g.axis_weight)
        assert np.allclose(out.values, expected, rtol=1e-13)

    def test_difference_symbol_on_unit_spectrum(self):
        # integral of the first-difference symbol over one period is -2 pi
        h = 1.0
        g = FrequencyGrid(h, 16)
        sym = PeriodicSymbol(lambda x1, x2: zeta(x2, h), 1.0, h)
        out = boundary_trace_spectrum(sym, SpectralFunction(g, np.ones((16, 16))), "bottom")
        assert np.allclose(out.values, -2 * math.pi, atol=1e-12)

    def test_left_edge_integrates_first_axis(self):
        g = FrequencyGrid(1.0, 8)
        x1, _ = np.broadcast_arrays(*g.nodes_2d())
        out = boundary_trace_spectrum(const_symbol(1.0),
                                      SpectralFunction(g, x1.astype(complex)), "left")
        # odd integrand over the symmetric node set sums to zero
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_trace_applied_to_transform_recovers_row_sum(self):
        # with the unit symbol, the bottom trace of a transform is 2 pi / h
        # times the transform of the lattice row sum over the second axis
        h = 1.0
        u = lattice_function(h, {(0, 0): 1.0, (0, 1): 2.0, (1, 1): -1.0})
        g = FrequencyGrid(h, 16)
        f = discrete_fourier(u, g)
        out = boundary_trace_spectrum(const_symbol(h), f, "bottom")
        xi = g.axis_nodes
        # hand evaluation: each mass contributes h^2 e^{i i1 h xi1} times the
        # exact period integral of e^{i i2 h xi2}, which is 2 pi only at i2=0
        manual = np.zeros(16, dtype=complex)
        for (i1, i2), v in {(0, 0): 1.0, (0, 1): 2.0, (1, 1): -1.0}.items():
            phase1 = np.exp(1j * i1 * h * xi)
            integral2 = 2 * math.pi if i2 == 0 else 0.0
            manual += v * h ** 2 * phase1 * integral2
        assert np.allclose(out.values, manual, atol=1e-12)

    def test_unknown_side_rejected(self):
        g = FrequencyGrid(1.0, 8)
        with pytest.raises(ValueError, match="side must be 'bottom' or 'left', got 'top'"):
            boundary_trace_spectrum(const_symbol(1.0), SpectralFunction(g, np.ones((8, 8))),
                                    "top")
