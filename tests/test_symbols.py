import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import (ContinuousSymbol, FrequencyGrid, PeriodicSymbol,
                     UnsupportedCapabilityError, WaveFactorization,
                     builtin_factor_family, check_symbol_class, periodize,
                     sample_tube_holomorphy, zeta, zeta_squared_2d)


class TestPeriodize:
    def test_constant_stays_constant(self):
        p = periodize(ContinuousSymbol(lambda x1, x2: np.ones_like(np.asarray(x1)), 0.0), 0.5)
        assert p(7.0, -3.0) == 1.0

    def test_seam_wraps_to_left_endpoint(self):
        # wrap maps into the half-open cell [-pi/h, pi/h), so the seam
        # pi/h lands on -pi/h
        p = periodize(ContinuousSymbol(lambda x: np.asarray(x), 0.0, ndim=1), 1.0)
        assert p(math.pi) == pytest.approx(-math.pi, abs=1e-12)
        assert p(2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_far_probe_wraps_into_the_cell(self):
        # h = 0.5: period 4 pi, so 5 pi wraps to pi; frozen sqrt(1 + pi^2)
        c = ContinuousSymbol(lambda x1, x2: (1 + np.asarray(x1) ** 2
                                             + np.asarray(x2) ** 2) ** 0.5, 1.0)
        p = periodize(c, 0.5)
        assert p(5 * math.pi, 0.0) == pytest.approx(3.2969083094756152, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), h=st.sampled_from([1.0, 0.5, 0.25]))
    def test_periodicity_at_random_probes(self, seed, h):
        c = ContinuousSymbol(lambda x1, x2: np.cos(np.asarray(x1))
                             + 1j * np.asarray(x2) ** 2, 0.0)
        p = periodize(c, h)
        rng = np.random.default_rng(seed)
        probes = (rng.uniform(-10, 10, size=100), rng.uniform(-10, 10, size=100))
        assert p.periodicity_defect(probes) <= 1e-10


class TestSymbolClass:
    def test_constant_symbol_order_zero(self):
        g = FrequencyGrid(1.0, 16)
        p = PeriodicSymbol(lambda x1, x2: np.ones(np.broadcast(x1, x2).shape), 0.0, 1.0)
        rep = check_symbol_class(p, 0.0, g)
        assert rep.passed
        assert rep.c1_est == pytest.approx(1.0, abs=1e-14)
        assert rep.c2_est == pytest.approx(1.0, abs=1e-14)

    def test_exact_weight_symbol_has_unit_constants(self):
        g = FrequencyGrid(0.5, 16)
        p = PeriodicSymbol(
            lambda x1, x2: 1.0 + np.abs(zeta_squared_2d(x1, x2, 0.5)), 2.0, 0.5)
        rep = check_symbol_class(p, 2.0, g)
        assert rep.c1_est == pytest.approx(1.0, rel=1e-13)
        assert rep.c2_est == pytest.approx(1.0, rel=1e-13)

    def test_degenerating_symbol_reports_small_lower_constant(self):
        # first-difference symbol against order 1: no node hits its zero,
        # but the lower constant collapses as the grid refines; frozen
        # brute-force constants on the 64-node h=1 grid
        g = FrequencyGrid(1.0, 64)
        p = PeriodicSymbol(lambda x1, x2: zeta(x1, 1.0), 1.0, 1.0)
        rep = check_symbol_class(p, 1.0, g)
        assert rep.passed
        assert rep.c1_est == pytest.approx(0.021960900285065175, rel=1e-12)
        assert rep.c2_est == pytest.approx(1.3243476887106367, rel=1e-12)

    def test_class_stability_under_periodization(self):
        # a radial symbol keeps its sandwich constants (within 2x) across a
        # mesh halving sweep after periodization
        c = ContinuousSymbol(lambda x1, x2: (1 + np.asarray(x1) ** 2
                                             + np.asarray(x2) ** 2) ** 0.75, 1.5)
        c1s, c2s = [], []
        for h in (1.0, 0.5, 0.25):
            rep = check_symbol_class(periodize(c, h), 1.5, FrequencyGrid(h, 32))
            assert rep.passed
            c1s.append(rep.c1_est)
            c2s.append(rep.c2_est)
        assert max(c1s) / min(c1s) <= 2.0
        assert max(c2s) / min(c2s) <= 2.0


class TestBuiltinFamilies:
    def test_geometric_with_zero_coefficient_is_identity(self):
        fac = builtin_factor_family("geometric", 1.0, a=0.0)
        assert fac.index == 0.0
        assert fac.plus_factor(0.3, -0.7) == pytest.approx(1.0)
        assert fac.full_symbol(0.3, -0.7) == pytest.approx(1.0)

    def test_geometric_plus_factor_at_origin(self):
        fac = builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1)
        assert fac.plus_factor(0.0, 0.0) == pytest.approx(0.25)

    def test_shifted_zeta_plus_factor_at_origin(self):
        fac = builtin_factor_family("shifted_zeta", 1.0, c=5.0, kappa=1.0)
        assert fac.plus_factor(0.0, 0.0) == pytest.approx(5.0)
        assert fac.index == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="a"):
            builtin_factor_family("geometric", 1.0, a=1.0)
        with pytest.raises(ValueError, match="c >"):
            builtin_factor_family("shifted_zeta", 1.0, c=3.9, kappa=1.0)
        with pytest.raises(ValueError, match="unknown"):
            builtin_factor_family("nope", 1.0)

    @pytest.mark.parametrize("kind, h, params, name", [
        ("geometric", math.nan, dict(a=0.5), "mesh size h"),
        ("geometric", math.inf, dict(a=0.5), "mesh size h"),
        ("geometric", 1.0, dict(a=math.nan), "a=nan"),
        ("shifted_zeta", 1.0, dict(c=math.nan, kappa=1.0), "c=nan"),
        ("shifted_zeta", 1.0, dict(c=math.inf, kappa=1.0), "c=inf"),
        ("shifted_zeta", 1.0, dict(c=5.0, kappa=math.nan), "kappa=nan"),
    ], ids=["h-nan", "h-inf", "a-nan", "c-nan", "c-inf", "kappa-nan"])
    def test_non_finite_parameters_rejected(self, kind, h, params, name):
        with pytest.raises(ValueError, match=name):
            builtin_factor_family(kind, h, **params)

    @pytest.mark.parametrize("kind,params", [
        ("geometric", dict(a=0.5, p=1, q=2)),
        ("geometric", dict(a=-0.3, p=2, q=1)),
        ("shifted_zeta", dict(c=9.0, kappa=1.0)),
        ("shifted_zeta", dict(c=11.0, kappa=2.5)),
    ])
    def test_factor_product_identity(self, kind, params):
        h = 0.5
        fac = builtin_factor_family(kind, h, **params)
        g = FrequencyGrid(h, 16)
        x1, x2 = g.nodes_2d()
        full = fac.full_symbol(x1, x2)
        prod = fac.plus_factor(x1, x2) * fac.minus_factor(x1, x2)
        assert np.max(np.abs(prod - full) / np.abs(full)) <= 1e-10


class TestTubeSampling:
    def test_identity_factor_has_unit_ratio(self):
        fac = builtin_factor_family("geometric", 1.0, a=0.0)
        rep = sample_tube_holomorphy(fac, grid=FrequencyGrid(1.0, 8))
        assert rep.passed
        assert rep.min_ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)

    def test_geometric_factor_value_in_the_tube(self):
        # frozen: (1 - 0.5 e^{-1})^2 at xi = 0, tau = (1, 1)
        fac = builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1)
        val = fac.plus_factor(0.0 + 1.0j, 0.0 + 1.0j)
        assert val == pytest.approx(0.6659543796377109, abs=1e-14)

    def test_shifted_zeta_value_in_the_tube(self):
        # the two complexified differences are conjugate phases at
        # xi = (pi/2, -pi/2), tau = (1/2, 1/2): their sum is exactly -2
        fac = builtin_factor_family("shifted_zeta", 1.0, c=5.0, kappa=1.0)
        val = fac.plus_factor(math.pi / 2 + 0.5j, -math.pi / 2 + 0.5j)
        assert val == pytest.approx(3.0 + 0.0j, abs=1e-14)

    def test_builtin_families_pass_over_default_taus(self):
        for fac in (builtin_factor_family("geometric", 0.5, a=0.4, p=2, q=1),
                    builtin_factor_family("shifted_zeta", 0.5, c=9.0, kappa=1.5)):
            rep = sample_tube_holomorphy(fac, grid=FrequencyGrid(0.5, 8))
            assert rep.passed
            assert rep.min_ratio > 0

    def test_real_only_evaluator_is_reported(self):
        def real_only(x1, x2):
            if np.iscomplexobj(x1):
                raise TypeError("real arguments only")
            return np.ones(np.broadcast(x1, x2).shape)

        fac = WaveFactorization(real_only, real_only, index=0.0, h=1.0)
        with pytest.raises(UnsupportedCapabilityError):
            sample_tube_holomorphy(fac, grid=FrequencyGrid(1.0, 4))

    def test_tau_outside_open_quadrant_rejected(self):
        fac = builtin_factor_family("geometric", 1.0, a=0.2)
        with pytest.raises(ValueError, match="open quadrant"):
            sample_tube_holomorphy(fac, tau_samples=((0.0, 1.0),),
                                   grid=FrequencyGrid(1.0, 4))
