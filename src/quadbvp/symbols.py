"""Symbols of digital operators and wave factorizations.

A periodic symbol is an evaluator ``(xi1, xi2) -> complex`` with the torus
period ``2 pi / h`` per axis.  Its order ``alpha`` is declared, not
checked: membership in the growth class, which pins the modulus between
multiples of ``(1 + |zeta^2|)^(alpha/2)``, is a hypothesis of the problem.

A wave factorization splits a symbol into a "plus" factor extending
holomorphically into the tube over the open first quadrant and a "minus"
factor extending into the opposite tube.  Constructing such factorizations
for general symbols is out of scope: they are inputs here, and two analytic
families with known index are built in for experiments and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import zeta

__all__ = [
    "PeriodicSymbol",
    "WaveFactorization",
    "builtin_factor_family",
]


@dataclass(frozen=True, eq=False)
class PeriodicSymbol:
    """Symbol of a digital operator: a ``2 pi / h``-periodic evaluator.

    ``evaluate`` acts elementwise on ``(xi1, xi2)``, an open mesh of arrays
    of shapes ``(R, 1)`` and ``(1, N)`` in either order, and may return any
    array that broadcasts to the mesh: a one-axis symbol can ignore the other.
    """

    evaluate: Callable[..., np.ndarray]
    order: float
    h: float

    def __call__(self, *xi):
        return self.evaluate(*xi)


@dataclass(frozen=True, eq=False)
class WaveFactorization:
    """Factor pair of a symbol with respect to the first quadrant.

    ``plus_factor`` plays the role holomorphic in the tube over the quadrant
    and nonvanishing there; ``minus_factor`` the opposite tube.  ``index``
    is the growth order of the plus factor.  ``h`` is None for
    factorizations of continuous symbols.  Both factors are evaluated like
    :class:`PeriodicSymbol`: elementwise on an open mesh in either
    orientation, returning any array that broadcasts to it.
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
