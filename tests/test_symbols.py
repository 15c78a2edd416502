import math

import numpy as np
import pytest

from quadbvp import FrequencyGrid, builtin_factor_family

# imaginary parts (tau1, tau2) in the open quadrant, from near the real
# plane to deep in the tube
TAUS = ((0.1, 0.1), (1.0, 1.0), (5.0, 5.0))


def tube_values(fac, grid):
    """Plus factor at ``xi + i tau`` over the grid's nodes, one slice per tau."""
    x1, x2 = grid.nodes_2d()
    return np.stack([fac.plus_factor(x1 + 1j * t1, x2 + 1j * t2) for t1, t2 in TAUS])


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
        vals = tube_values(fac, FrequencyGrid(1.0, 8))
        assert np.allclose(np.abs(vals), 1.0, rtol=1e-12, atol=0.0)

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
        # the docstring's bounds on the closed tube: each geometric base
        # stays within |a| of 1, and Re(c + zeta + zeta) >= c - 4/h = 1
        geometric = builtin_factor_family("geometric", 0.5, a=0.4, p=2, q=1)
        shifted = builtin_factor_family("shifted_zeta", 0.5, c=9.0, kappa=1.5)
        for fac, floor in ((geometric, 0.6 ** 3), (shifted, 1.0)):
            vals = tube_values(fac, FrequencyGrid(0.5, 8))
            assert np.all(np.isfinite(vals))
            assert np.min(np.abs(vals)) >= floor
