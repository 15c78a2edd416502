"""Symbols of digital operators, growth-class checks, and wave factorizations.

A periodic symbol is an evaluator ``(xi1, xi2) -> complex`` with the torus
period ``2 pi / h`` per axis.  The growth class of order ``alpha`` pins the
modulus between multiples of ``(1 + |zeta^2|)^(alpha/2)``; membership is
estimated by sampling, never assumed.

A wave factorization splits a symbol into a "plus" factor extending
holomorphically into the tube over the open first quadrant and a "minus"
factor extending into the opposite tube.  Constructing such factorizations
for general symbols is out of scope: they are inputs here, and two analytic
families with known index are built in for experiments and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnsupportedCapabilityError
from .lattice import FrequencyGrid, zeta, zeta_squared_2d

__all__ = [
    "PeriodicSymbol",
    "ContinuousSymbol",
    "WaveFactorization",
    "ClassReport",
    "TubeReport",
    "periodize",
    "check_symbol_class",
    "builtin_factor_family",
    "sample_tube_holomorphy",
    "DEFAULT_TUBE_TAUS",
]

DEFAULT_TUBE_TAUS: tuple[tuple[float, float], ...] = ((0.1, 0.1), (1.0, 1.0), (5.0, 5.0))


@dataclass(frozen=True, eq=False)
class PeriodicSymbol:
    """Symbol of a digital operator: a ``2 pi / h``-periodic evaluator.

    ``evaluate`` takes ``(xi1, xi2)`` for ``ndim == 2`` or a single ``xi``
    for one-axis symbols; it must broadcast over numpy arrays.
    """

    evaluate: Callable[..., np.ndarray]
    order: float
    h: float
    ndim: int = 2

    def __call__(self, *xi):
        return self.evaluate(*xi)

    def periodicity_defect(self, probes: np.ndarray) -> float:
        """Max deviation ``|p(xi) - p(xi + period e_m)|`` over probe points."""
        period = 2.0 * np.pi / self.h
        if self.ndim == 1:
            base = np.asarray(self.evaluate(probes))
            return float(np.max(np.abs(base - self.evaluate(probes + period))))
        x1, x2 = probes
        base = np.asarray(self.evaluate(x1, x2))
        d1 = np.max(np.abs(base - self.evaluate(x1 + period, x2)))
        d2 = np.max(np.abs(base - self.evaluate(x1, x2 + period)))
        return float(max(d1, d2))


@dataclass(frozen=True, eq=False)
class ContinuousSymbol:
    """Symbol on the continuous frequency plane (or line) with declared order."""

    evaluate: Callable[..., np.ndarray]
    order: float
    ndim: int = 2

    def __call__(self, *xi):
        return self.evaluate(*xi)


def _wrap(xi, h: float):
    half = np.pi / h
    return np.mod(np.asarray(xi) + half, 2.0 * half) - half


def periodize(c: ContinuousSymbol, h: float) -> PeriodicSymbol:
    """Restrict a continuous symbol to the basic period cell and continue
    periodically: each coordinate is reduced mod ``2 pi / h`` into
    ``[-pi/h, pi/h)`` before evaluation."""
    if c.ndim == 1:
        ev = lambda x: c.evaluate(_wrap(x, h))
    else:
        ev = lambda x1, x2: c.evaluate(_wrap(x1, h), _wrap(x2, h))
    return PeriodicSymbol(evaluate=ev, order=c.order, h=h, ndim=c.ndim)


@dataclass(frozen=True)
class ClassReport:
    """Sampled growth-sandwich constants ``c1 <= |p| / (1+|zeta^2|)^(a/2) <= c2``."""

    c1_est: float
    c2_est: float
    passed: bool


def check_symbol_class(p: PeriodicSymbol, alpha: float, sample: FrequencyGrid) -> ClassReport:
    """Estimate the growth-class constants of ``p`` over the sample grid."""
    if not sample.matches_mesh(p.h):
        raise ValueError(f"sample grid mesh {sample.h} does not match symbol mesh {p.h}")
    if p.ndim == 2:
        x1, x2 = sample.nodes_2d()
        denom = (1.0 + np.abs(zeta_squared_2d(x1, x2, sample.h))) ** (alpha / 2.0)
        ratio = np.abs(p(x1, x2)) / denom
    else:
        xi = sample.axis_nodes
        denom = (1.0 + np.abs(zeta(xi, sample.h)) ** 2) ** (alpha / 2.0)
        ratio = np.abs(p(xi)) / denom
    c1 = float(np.min(ratio))
    c2 = float(np.max(ratio))
    return ClassReport(c1_est=c1, c2_est=c2, passed=c1 > 0.0)


@dataclass(frozen=True, eq=False)
class WaveFactorization:
    """Factor pair of a symbol with respect to the first quadrant.

    ``plus_factor`` plays the role holomorphic in the tube over the quadrant
    and nonvanishing there; ``minus_factor`` the opposite tube.  ``index``
    is the growth order of the plus factor.  ``h`` is None for
    factorizations of continuous symbols.
    """

    plus_factor: Callable[..., np.ndarray]
    minus_factor: Callable[..., np.ndarray]
    index: float
    h: float | None = None
    label: str = ""

    def full_symbol(self, xi1, xi2):
        return self.plus_factor(xi1, xi2) * self.minus_factor(xi1, xi2)


def builtin_factor_family(kind: str, h: float, *, a: float | None = None,
                          p: int = 1, q: int = 1, c: float | None = None,
                          kappa: float | None = None) -> WaveFactorization:
    """Analytic factorization families with known index.

    ``geometric``
        plus factor ``(1 - a e^{i h xi1})^p (1 - a e^{i h xi2})^q`` with
        ``|a| < 1``; the minus factor mirrors it with ``e^{-i h xi}``.
        Each base stays in the disk of radius ``|a|`` around 1 throughout
        the closed tube, so the factor is nonvanishing there; index 0.

    ``shifted_zeta``
        plus factor ``(c + zeta(xi1) + zeta(xi2))^kappa`` with ``c > 4/h``;
        each ``zeta`` ranges over a disk of radius ``2/h``, so the base
        keeps a positive real part on the closed tube and the principal
        power is holomorphic; the minus factor uses the conjugate
        differences ``(e^{-i h xi} - 1)/h``.  Index ``kappa``.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"mesh size h must be positive and finite, got {h}")
    hbar = 1.0 / h
    if kind == "geometric":
        if a is None or not abs(a) < 1.0:
            raise ValueError(f"family 'geometric' needs |a| < 1, got a={a}")
        if p < 0 or q < 0 or int(p) != p or int(q) != q:
            raise ValueError(f"exponents p, q must be non-negative integers, got p={p}, q={q}")

        def plus(x1, x2, _a=a, _p=p, _q=q, _h=h):
            return (1.0 - _a * np.exp(1j * _h * np.asarray(x1))) ** _p \
                 * (1.0 - _a * np.exp(1j * _h * np.asarray(x2))) ** _q

        def minus(x1, x2, _a=a, _p=p, _q=q, _h=h):
            return (1.0 - _a * np.exp(-1j * _h * np.asarray(x1))) ** _p \
                 * (1.0 - _a * np.exp(-1j * _h * np.asarray(x2))) ** _q

        return WaveFactorization(plus, minus, index=0.0, h=h,
                                 label=f"geometric(a={a}, p={p}, q={q})")

    if kind == "shifted_zeta":
        if c is None or not 4.0 * hbar < c < math.inf:
            raise ValueError(f"family 'shifted_zeta' needs finite c > 4/h = "
                             f"{4.0 * hbar:g}, got c={c}")
        if kappa is None or not math.isfinite(kappa):
            raise ValueError(f"family 'shifted_zeta' needs a finite kappa, got kappa={kappa}")

        def plus(x1, x2, _c=c, _k=kappa, _h=h):
            return (_c + zeta(x1, _h) + zeta(x2, _h)) ** _k

        def minus(x1, x2, _c=c, _k=kappa, _h=h):
            zbar = lambda x: (np.exp(-1j * _h * np.asarray(x)) - 1.0) / _h
            return (_c + zbar(x1) + zbar(x2)) ** _k

        return WaveFactorization(plus, minus, index=float(kappa), h=h,
                                 label=f"shifted_zeta(c={c}, kappa={kappa})")

    raise ValueError(f"unknown factor family {kind!r}")


@dataclass(frozen=True)
class TubeReport:
    """Sampled tube-domain growth estimate for a plus factor."""

    min_ratio: float
    max_ratio: float
    passed: bool
    tau_samples: tuple[tuple[float, float], ...] = field(default=DEFAULT_TUBE_TAUS)


def sample_tube_holomorphy(w: WaveFactorization,
                           tau_samples: tuple[tuple[float, float], ...] | None = None,
                           grid: FrequencyGrid | None = None) -> TubeReport:
    """Sample ``|plus(xi + i tau)| / (1 + |zeta_hat^2|)^(index/2)`` over the
    grid for each tau in the open quadrant.

    ``zeta_hat^2`` is the complexified aggregate built from
    ``zeta(xi_m + i tau_m)``.  This is a smoke test of the tube-domain
    estimates, not a proof.
    """
    if w.h is None:
        raise ValueError("tube sampling requires a lattice factorization (h set)")
    taus = tuple(tau_samples) if tau_samples is not None else DEFAULT_TUBE_TAUS
    if grid is None:
        grid = FrequencyGrid(w.h, 16, ndim=2)
    x1, x2 = grid.nodes_2d()
    lo, hi = np.inf, -np.inf
    for t1, t2 in taus:
        if t1 <= 0 or t2 <= 0:
            raise ValueError(f"tau must lie in the open quadrant, got ({t1}, {t2})")
        z1 = x1 + 1j * t1
        z2 = x2 + 1j * t2
        try:
            vals = np.asarray(w.plus_factor(z1, z2), dtype=complex)
        except (TypeError, ValueError) as exc:
            raise UnsupportedCapabilityError(
                f"plus factor {w.label or w.plus_factor!r} does not evaluate "
                f"at complex arguments: {exc}") from exc
        denom = (1.0 + np.abs(zeta_squared_2d(z1, z2, w.h))) ** (w.index / 2.0)
        ratio = np.abs(vals) / denom
        lo = min(lo, float(np.min(ratio)))
        hi = max(hi, float(np.max(ratio)))
    return TubeReport(min_ratio=lo, max_ratio=hi, passed=lo > 0.0, tau_samples=taus)
