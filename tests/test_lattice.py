import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import (FrequencyGrid, LatticeFunction, LineGrid, MeshMismatchError,
                     SpectralFunction, inverse_discrete_fourier,
                     sobolev_norm_1d, sobolev_norm_2d, zeta, zeta_squared_2d)
from quadbvp.lattice import _power
from conftest import discrete_fourier, lattice_function, unit_mass


class TestFrequencyGrid:
    def test_weights_fill_the_torus(self):
        for h, n in [(1.0, 8), (0.5, 32), (0.25, 6)]:
            g = FrequencyGrid(h, n)
            assert g.axis_weight * n == pytest.approx(2 * math.pi / h, rel=1e-15)

    def test_nodes_strictly_inside_open_torus(self):
        g = FrequencyGrid(0.5, 16)
        assert np.all(np.abs(g.axis_nodes) < g.half_width)

    def test_origin_is_never_a_node(self):
        for n in (2, 8, 64):
            assert np.all(FrequencyGrid(1.0, n).axis_nodes != 0.0)

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            FrequencyGrid(1.0, 7)

    def test_nonpositive_mesh_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(-1.0, 8)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_mesh_rejected(self, h):
        with pytest.raises(ValueError, match="mesh size h must be positive and finite"):
            FrequencyGrid(h, 8)


class TestLineGrid:
    @pytest.mark.parametrize("half_width, count, message", [
        (math.nan, 8, "half_width must be positive and finite, got nan"),
        (math.inf, 8, "half_width must be positive and finite, got inf"),
        (0.0, 8, "half_width must be positive and finite, got 0.0"),
        (-1.0, 8, "half_width must be positive and finite, got -1.0"),
        (1.0, 3, "nodes_count must be a positive even integer, got 3"),
        (1.0, 0, "nodes_count must be a positive even integer, got 0"),
        (1.0, -2, "nodes_count must be a positive even integer, got -2")])
    def test_invalid_grid_rejected(self, half_width, count, message):
        with pytest.raises(ValueError, match=message):
            LineGrid(half_width, count)

    def test_origin_is_never_a_node(self):
        for n in (2, 8, 64):
            assert np.all(LineGrid(1.0, n).axis_nodes != 0.0)

    def test_ndim_is_not_a_field(self):
        # a line is one-dimensional; no argument can say otherwise
        assert LineGrid(1.0, 4).ndim == LineGrid.ndim == 1
        with pytest.raises(TypeError):
            LineGrid(1.0, 4, 7)
        with pytest.raises(TypeError):
            LineGrid(1.0, 4, ndim=2)


class TestDiscreteFourier:
    def test_unit_mass_at_origin_gives_constant_one(self):
        g = FrequencyGrid(1.0, 8)
        f = discrete_fourier(unit_mass(1.0, (0, 0)), g)
        assert np.allclose(f.values, 1.0, atol=1e-15)

    def test_unit_mass_off_origin_gives_pure_phase(self):
        g = FrequencyGrid(1.0, 8)
        f = discrete_fourier(unit_mass(1.0, (1, 0)), g)
        x1, _ = g.nodes_2d()
        assert np.allclose(f.values, np.exp(1j * x1), atol=1e-14)

    def test_two_point_sum_matches_hand_evaluation(self):
        # hand-evaluated two-term sum 0.25 (1 + exp(0.5 i xi1)) at two of the
        # h=0.5, N=8 midpoint nodes (xi1 = -7pi/4 and -pi/4)
        u = lattice_function(0.5, {(0, 0): 1.0, (1, 0): 1.0})
        f = discrete_fourier(u, FrequencyGrid(0.5, 8))
        assert f.values[0, 0] == pytest.approx(
            0.019030116872178311 - 0.09567085809127244j, abs=1e-15)
        assert f.values[3, 5] == pytest.approx(
            0.4809698831278217 - 0.09567085809127244j, abs=1e-15)

    def test_mesh_mismatch_rejected(self):
        u = unit_mass(0.5, (0, 0))
        with pytest.raises(MeshMismatchError):
            discrete_fourier(u, FrequencyGrid(1.0, 8))


class TestInverseDiscreteFourier:
    def test_constant_spectrum_is_unit_mass_at_origin(self):
        g = FrequencyGrid(1.0, 8)
        f = SpectralFunction(g, np.ones((8, 8)))
        u = inverse_discrete_fourier(f, ((-2, 2), (-2, 2)))
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        assert np.allclose(u.values, expected, atol=1e-14)

    def test_phase_spectrum_shifts_the_mass(self):
        g = FrequencyGrid(1.0, 8)
        x1, _ = np.broadcast_arrays(*g.nodes_2d())
        u = inverse_discrete_fourier(SpectralFunction(g, np.exp(1j * x1)),
                                     ((0, 2), (-1, 1)))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0  # mass at lattice index (1, 0)
        assert np.allclose(u.values, expected, atol=1e-14)

    def test_round_trip_recovers_two_point_function(self):
        u = lattice_function(0.5, {(0, 0): 1.0, (1, 0): 1.0})
        f = discrete_fourier(u, FrequencyGrid(0.5, 8))
        back = inverse_discrete_fourier(f, u.support_box)
        assert np.allclose(back.values, u.values, rtol=1e-12, atol=1e-14)


boxes = st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                  st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(box=boxes, seed=st.integers(0, 2**31), h=st.sampled_from([1.0, 0.5, 0.25]))
def test_parseval_identity(box, seed, h):
    a1, a2, w1, w2 = box
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(w1, w2)) + 1j * rng.normal(size=(w1, w2))
    u = LatticeFunction(h, ((a1, a1 + w1 - 1), (a2, a2 + w2 - 1)), vals)
    g = FrequencyGrid(h, 16)
    f = discrete_fourier(u, g)
    lattice_side = np.sum(np.abs(vals) ** 2) * h ** 2
    spectral_side = sobolev_norm_2d(f, 0.0) ** 2 / (2 * math.pi) ** 2
    assert spectral_side == pytest.approx(lattice_side, rel=1e-10)


class TestZeta:
    def test_vanishes_at_zero_frequency(self):
        assert zeta(0.0, 0.3) == 0.0

    def test_torus_edge_value(self):
        for h in (1.0, 0.5):
            assert zeta(math.pi / h, h) == pytest.approx(-2.0 / h, abs=1e-12)

    def test_frozen_value(self):
        assert zeta(1.0, 0.1) == pytest.approx(
            -0.04995834721974234 + 0.9983341664682815j, abs=1e-15)

    def test_real_part_survives_small_h_xi(self):
        # (cos(h xi) - 1) / h = -h xi^2 / 2 to first order; exp(i h xi) - 1
        # would round it to 0 here
        assert zeta(1e-8, 1.0).real == pytest.approx(-5e-17, rel=1e-12, abs=0.0)

    def test_2d_aggregate_is_sum_of_squares(self):
        x1, x2 = 0.7, -1.3
        expected = zeta(x1, 0.5) ** 2 + zeta(x2, 0.5) ** 2
        assert zeta_squared_2d(x1, x2, 0.5) == expected


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-1.0, 1.0), h=st.sampled_from([1.0, 0.5, 0.25, 0.125]))
def test_zeta_first_order_gap_bound(t, h):
    xi = t * math.pi / h
    assert abs(zeta(xi, h) - 1j * xi) <= math.exp(math.pi) * h * xi ** 2 + 1e-300


class TestPower:
    """``_power`` takes a multiple of 1/2 up to 8 from products and one
    square root, within a few ulp of ``**``, and any other exponent by
    ``**`` itself."""

    EPS = np.finfo(float).eps

    @staticmethod
    def bases(kind):
        rng = np.random.default_rng(5)
        if kind == "real":
            return 10.0 ** rng.uniform(0.0, 4.0, (40, 50))
        # positive real parts, the half-plane of the shifted-zeta bases
        return rng.uniform(1e-3, 10.0, (40, 50)) + 1j * rng.uniform(-10.0, 10.0, (40, 50))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("exponent", [0.5, -0.5, 1, -1, 1.5, -1.5, 2.5, 5, 8])
    def test_products_agree_with_pow(self, kind, exponent):
        # numpy's complex ** goes through exp and log and is itself up to 5
        # ulp off the long double value, where the products stay within 4:
        # two results that close to the truth can be 8 ulp apart
        base = self.bases(kind)
        got, want = _power(base, exponent), base ** exponent
        assert got.dtype == want.dtype and got.shape == want.shape
        ulps = 4 if kind == "real" else 8
        assert np.all(np.abs(got - want) <= ulps * self.EPS * np.abs(want))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("exponent", [0.3, -1.25, 8.5, 0])
    def test_other_exponents_are_pow(self, kind, exponent):
        base = self.bases(kind)
        assert np.array_equal(_power(base, exponent), base ** exponent)

    def test_the_result_is_a_new_array_and_the_base_kept(self):
        base = self.bases("real")
        before = base.copy()
        for exponent in (1, 2, 2.5, -3):
            got = _power(base, exponent)
            assert not np.shares_memory(got, base)
        assert np.array_equal(base, before)

    def test_negative_reals_take_the_principal_branch(self):
        # a half power of a negative float is NaN, as **'s; of its complex
        # cast, the principal value, as **'s
        base = -np.linspace(1.0, 4.0, 8)
        with np.errstate(invalid="ignore"):
            assert np.isnan(_power(base, 2.5)).all() and np.isnan(base ** 2.5).all()
        got, want = _power(base + 0j, 2.5), (base + 0j) ** 2.5
        assert np.all(np.abs(got - want) <= 8 * self.EPS * np.abs(want))


class TestSobolevNorms:
    def test_2d_unweighted_constant(self):
        g = FrequencyGrid(1.0, 16)
        f = SpectralFunction(g, np.ones((16, 16)))
        assert sobolev_norm_2d(f, 0.0) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_2d_weighted_against_dense_quadrature_oracle(self):
        # frozen 10x-node midpoint value of the weighted area integral,
        # h = 1, s = 0.75, N = 640
        oracle = 10.702149365178915
        g = FrequencyGrid(1.0, 64)
        f = SpectralFunction(g, np.ones((64, 64)))
        assert sobolev_norm_2d(f, 0.75) == pytest.approx(oracle, rel=2e-6)

    def test_2d_unit_mass_closed_form(self):
        # spectrum of a unit mass is the constant h^2; its unweighted norm
        # is h^2 * 2 pi hbar = 2 pi h
        h = 0.5
        g = FrequencyGrid(h, 32)
        f = discrete_fourier(unit_mass(h, (0, 0)), g)
        assert sobolev_norm_2d(f, 0.0) == pytest.approx(2 * math.pi * h, rel=1e-13)

    def test_1d_zero_function(self):
        g = FrequencyGrid(1.0, 16, ndim=1)
        assert sobolev_norm_1d(SpectralFunction(g, np.zeros(16)), 1.3) == 0.0

    def test_1d_unweighted_constant(self):
        g = FrequencyGrid(1.0, 16, ndim=1)
        f = SpectralFunction(g, np.ones(16))
        assert sobolev_norm_1d(f, 0.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)

    def test_1d_weighted_against_dense_quadrature_oracle(self):
        # frozen 10x-node value, h = 0.5, s = -1, N = 640; the integrand is a
        # smooth periodic function, so the midpoint rule is spectrally exact
        oracle = 1.7457928145664392
        g = FrequencyGrid(0.5, 64, ndim=1)
        f = SpectralFunction(g, np.ones(64))
        assert sobolev_norm_1d(f, -1.0) == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(s1=st.floats(-3, 3), gap=st.floats(0.0, 3.0), seed=st.integers(0, 2**31))
def test_norm_monotone_in_the_exponent(s1, gap, seed):
    g = FrequencyGrid(1.0, 16)
    rng = np.random.default_rng(seed)
    f = SpectralFunction(g, rng.normal(size=(16, 16)))
    assert sobolev_norm_2d(f, s1) <= sobolev_norm_2d(f, s1 + gap) * (1 + 1e-12)


def test_norm_stable_under_node_doubling():
    # smooth spectral envelope sampled on both grids; the reported norm may
    # move by at most 0.1%
    bump = lambda x1, x2: np.exp(-(x1 ** 2 + x2 ** 2) / 2.0)
    vals = []
    for n in (32, 64):
        g = FrequencyGrid(1.0, n)
        f = SpectralFunction(g, bump(*g.nodes_2d()))
        vals.append(sobolev_norm_2d(f, 1.3))
    assert abs(vals[1] - vals[0]) <= 1e-3 * vals[0]
