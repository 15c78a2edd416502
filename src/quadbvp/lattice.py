"""Frequency grids, lattice Fourier transforms, and weighted spectral norms.

The discrete side of the library lives on the square lattice ``h Z^2``.  Its
Fourier dual is the frequency torus ``[-pi/h, pi/h]^2``, discretized with a
composite midpoint rule.  The midpoint layout keeps both the origin and the
torus seam off the node set, and the rule is exact for lattice exponentials
up to the grid bandwidth, which makes the inverse transform below exactly
invert the forward one on resolved support windows (and Parseval exact).

Conventions, used uniformly across the package:

* forward transform   ``F u (xi) = sum_x exp(+i x.xi) u(x) h^2``
* inverse transform   ``u(x) = (2 pi)^-2 integral exp(-i x.xi) (F u)(xi) dxi``
* weighted norms use the first-difference symbol :func:`zeta` in place of
  ``i xi``; the two-dimensional aggregate is the complex sum of squares
  ``zeta(xi_1)^2 + zeta(xi_2)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "FrequencyGrid",
    "LineGrid",
    "LatticeFunction",
    "SpectralFunction",
    "inverse_discrete_fourier",
    "zeta",
    "zeta_squared_2d",
    "sobolev_norm_2d",
    "sobolev_norm_1d",
]


def zeta(xi, h: float):
    """Per-axis first-difference symbol ``(exp(i h xi) - 1) / h``.

    This is the lattice stand-in for ``i xi``: it agrees with ``i xi`` to
    first order in ``h`` and is ``2 pi / h``-periodic.  Accepts real or
    complex ``xi`` (complex arguments are used when sampling holomorphic
    continuations into tube domains).  ``expm1`` keeps the real part
    ``(cos(h xi) - 1) / h`` free of cancellation as ``h xi`` goes to 0.
    """
    return np.expm1(1j * h * np.asarray(xi)) / h


# exponents that are multiples of 1/2 up to this modulus are taken by products
_PRODUCT_POWER_MAX = 8


def _power(base, exponent: float) -> np.ndarray:
    """``base ** exponent`` as a new array, on the principal branch, for a
    float or complex array ``base``.

    A nonzero multiple of 1/2 of modulus at most ``_PRODUCT_POWER_MAX`` is
    taken from products of the base and at most one square root, then
    inverted for a negative exponent: ``sqrt(base)`` times the base once
    per whole unit, or for a whole exponent binary powering, left to right.
    All of it is done in place in the one array returned, as a second array
    of the base's size costs more in fresh pages than the products do.  The
    result is within a few ulp of ``**`` where no product overflows, at
    half its cost or less, and on its branch, as ``z^k sqrt(z) = exp((k +
    1/2) Log z)`` for every complex ``z != 0``.  Any other exponent goes to
    ``**``.
    """
    base = np.asarray(base)
    twice = 2.0 * abs(float(exponent))
    if base.ndim == 0 or not (twice.is_integer() and 0 < twice <= 2 * _PRODUCT_POWER_MAX):
        return base ** exponent
    whole, half = divmod(int(twice), 2)
    if half:
        out = np.sqrt(base)
        for _ in range(whole):
            out *= base
    else:
        out = base.copy()
        for bit in bin(whole)[3:]:  # the bits after the leading one
            out *= out
            if bit == "1":
                out *= base
    if exponent < 0:
        np.reciprocal(out, out=out)
    return out


def _power_base(nodes: np.ndarray, h: float | None) -> np.ndarray:
    """``zeta(xi, h)`` on the torus, ``i xi`` on the line (``h`` None)."""
    return zeta(nodes, h) if h is not None else 1j * nodes


def _trace_weight(nodes: np.ndarray, h: float | None, exponent: float) -> np.ndarray:
    """Trace-norm weight ``(1 + |p|^2)^exponent`` at the nodes, ``p`` the
    power base (:func:`_power_base`): ``|zeta|`` on the torus, ``|xi|`` on
    the line, where ``|i xi|`` is ``|xi|`` exactly."""
    return (1.0 + np.abs(_power_base(nodes, h)) ** 2) ** exponent


def zeta_squared_2d(xi1, xi2, h: float):
    """Two-dimensional aggregate ``zeta(xi1)^2 + zeta(xi2)^2`` (complex)."""
    return zeta(xi1, h) ** 2 + zeta(xi2, h) ** 2


def _open_mesh(axis1: np.ndarray, axis2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Open ``ij`` mesh of two node axes, shapes ``(len(axis1), 1)`` and
    ``(1, len(axis2))``: the layout every symbol, factor and weight evaluator
    receives, in this order or swapped.  Broadcasting evaluates each one-axis
    piece once per node and only the combination on the whole mesh.
    """
    return np.meshgrid(axis1, axis2, indexing="ij", sparse=True)


def _midpoint_nodes(half_width: float, count: int) -> np.ndarray:
    step = 2.0 * half_width / count
    return -half_width + (np.arange(count) + 0.5) * step


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Midpoint quadrature grid on the frequency torus ``[-pi/h, pi/h]^ndim``.

    Parameters
    ----------
    h : float
        Mesh size of the dual lattice (> 0).
    nodes_per_axis : int
        Number of midpoint nodes per axis.  Must be even so that ``xi = 0``
        is never a node (symbols of positive order vanish there) and the
        nodes stay strictly inside the open torus.
    ndim : int
        1 for trace grids, 2 for the full frequency torus.
    """

    h: float
    nodes_per_axis: int
    ndim: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"mesh size h must be positive and finite, got {self.h}")
        if self.nodes_per_axis <= 0 or self.nodes_per_axis % 2 != 0:
            raise ValueError(
                f"nodes_per_axis must be a positive even integer, got {self.nodes_per_axis}")
        if self.ndim not in (1, 2):
            raise ValueError(f"ndim must be 1 or 2, got {self.ndim}")

    @property
    def half_width(self) -> float:
        """``pi / h``, taken as ``pi`` times the dual spacing ``1 / h``."""
        return math.pi * (1.0 / self.h)

    @property
    def axis_nodes(self) -> np.ndarray:
        return _midpoint_nodes(self.half_width, self.nodes_per_axis)

    @property
    def axis_weight(self) -> float:
        """Uniform quadrature weight per node, ``2 pi / (h N)``."""
        return 2.0 * self.half_width / self.nodes_per_axis

    def nodes_2d(self) -> tuple[np.ndarray, np.ndarray]:
        """The torus nodes as an open mesh, ``xi1`` of shape ``(N, 1)`` and
        ``xi2`` of shape ``(1, N)``; broadcast them for dense arrays."""
        if self.ndim != 2:
            raise ValueError("nodes_2d requires a 2D grid")
        return _open_mesh(self.axis_nodes, self.axis_nodes)

    def matches_mesh(self, h: float) -> bool:
        return math.isclose(self.h, h, rel_tol=1e-12, abs_tol=0.0)


@dataclass(frozen=True, eq=False)
class LineGrid:
    """Midpoint quadrature grid on a symmetric segment ``[-half_width, half_width]``.

    Used for truncations of improper integrals over the whole frequency
    line; carries no mesh size.  ``half_width`` must be positive and
    finite, and ``nodes_count`` even, so that ``xi = 0`` is never a node.
    A line is one-dimensional: ``ndim`` is a class constant, not a field.
    """

    half_width: float
    nodes_count: int
    ndim: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.nodes_count <= 0 or self.nodes_count % 2 != 0:
            raise ValueError(
                f"nodes_count must be a positive even integer, got {self.nodes_count}")

    @property
    def axis_nodes(self) -> np.ndarray:
        return _midpoint_nodes(self.half_width, self.nodes_count)

    @property
    def axis_weight(self) -> float:
        return 2.0 * self.half_width / self.nodes_count


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """Complex function of a discrete variable on a finite window of ``h Z^2``.

    ``support_box`` holds inclusive index ranges ``((i1_lo, i1_hi),
    (i2_lo, i2_hi))``; lattice point ``(i1, i2)`` sits at ``(i1 h, i2 h)``.
    Values outside the box are implicitly zero.
    """

    h: float
    support_box: tuple[tuple[int, int], tuple[int, int]]
    values: np.ndarray

    def __post_init__(self) -> None:
        (a1, b1), (a2, b2) = self.support_box
        shape = (b1 - a1 + 1, b2 - a2 + 1)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match box shape {shape}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Node values of a spectral function on a :class:`FrequencyGrid` or
    :class:`LineGrid`.

    On a frequency torus the values represent a ``2 pi / h``-periodic
    function through its restriction to the basic period cell.
    """

    grid: FrequencyGrid | LineGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        n = self.grid.nodes_per_axis if isinstance(self.grid, FrequencyGrid) \
            else self.grid.nodes_count
        expected = (n,) if self.grid.ndim == 1 else (n, n)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape}, expected {expected}")
        object.__setattr__(self, "values", vals)


def inverse_discrete_fourier(f: SpectralFunction,
                             support_box: tuple[tuple[int, int], tuple[int, int]]) -> LatticeFunction:
    """Quadrature inverse ``(2 pi)^-2 integral exp(-i x.xi) f(xi) dxi`` on a box.

    Recovers the forward transform's input exactly on its support when the
    grid resolves the box (node count at least the box width per axis).
    """
    grid = f.grid
    if not isinstance(grid, FrequencyGrid) or grid.ndim != 2:
        raise ValueError("inverse_discrete_fourier requires a 2D frequency grid")
    (a1, b1), (a2, b2) = support_box
    i1 = np.arange(a1, b1 + 1)
    i2 = np.arange(a2, b2 + 1)
    xi = grid.axis_nodes
    e1 = np.exp(-1j * grid.h * np.outer(i1, xi))   # (n1, N)
    e2 = np.exp(-1j * grid.h * np.outer(i2, xi))   # (n2, N)
    scale = grid.axis_weight ** 2 / (2.0 * math.pi) ** 2
    vals = scale * (e1 @ f.values @ e2.T)
    return LatticeFunction(grid.h, support_box, vals)


def _weight_2d(grid: FrequencyGrid, s: float) -> np.ndarray:
    x1, x2 = grid.nodes_2d()
    return (1.0 + np.abs(zeta_squared_2d(x1, x2, grid.h))) ** s


def sobolev_norm_2d(f: SpectralFunction, s: float) -> float:
    """Weighted L2 norm with weight ``(1 + |zeta^2(xi)|)^s`` over the torus."""
    grid = f.grid
    if not isinstance(grid, FrequencyGrid) or grid.ndim != 2:
        raise ValueError("sobolev_norm_2d requires a 2D frequency grid")
    w = _weight_2d(grid, s)
    total = np.sum(w * np.abs(f.values) ** 2) * grid.axis_weight ** 2
    return float(np.sqrt(total))


def sobolev_norm_1d(f: SpectralFunction, s_k: float) -> float:
    """One-axis analogue with weight ``(1 + |zeta(xi)|^2)^s_k``."""
    grid = f.grid
    if not isinstance(grid, FrequencyGrid) or grid.ndim != 1:
        raise ValueError("sobolev_norm_1d requires a 1D frequency grid")
    w = _trace_weight(grid.axis_nodes, grid.h, s_k)
    total = np.sum(w * np.abs(f.values) ** 2) * grid.axis_weight
    return float(np.sqrt(total))
