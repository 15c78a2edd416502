"""Application of digital operators on the lattice and of boundary operators
in Fourier images.

A digital operator multiplies the spectrum by its periodic symbol and
transforms back; it is evaluated only at requested window points, so no
projection operator is materialized.  A boundary operator is its symbol
and acts in Fourier images on one edge: the symbol multiplies the spectrum
and the axis transverse to the edge is integrated out, leaving a one-axis
spectral function (no trace normalization factor is applied to that
integral).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import MeshMismatchError
from .lattice import (FrequencyGrid, LatticeFunction, SpectralFunction,
                      inverse_discrete_fourier)
from .symbols import PeriodicSymbol

__all__ = [
    "apply_symbol_to_spectrum",
    "boundary_trace_spectrum",
]

SIDE_BOTTOM = "bottom"   # trace on the x2 = 0 row, output a function of xi1
SIDE_LEFT = "left"       # trace on the x1 = 0 column, output a function of xi2


def apply_symbol_to_spectrum(symbol: PeriodicSymbol, u_hat: SpectralFunction,
                             window: Iterable[tuple[int, int]]) -> LatticeFunction:
    """Evaluate ``(2 pi)^-2 integral A(xi) exp(-i x.xi) u_hat(xi) dxi`` at the
    window's lattice points."""
    grid = u_hat.grid
    if not isinstance(grid, FrequencyGrid) or grid.ndim != 2:
        raise ValueError("apply_symbol_to_spectrum requires a 2D frequency grid")
    if not grid.matches_mesh(symbol.h):
        raise MeshMismatchError(f"symbol mesh {symbol.h} does not match grid mesh {grid.h}")
    points = [(int(i1), int(i2)) for i1, i2 in window]
    if not points:
        raise ValueError("window must contain at least one lattice point")
    idx = np.array(points)
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    box = ((int(lo[0]), int(hi[0])), (int(lo[1]), int(hi[1])))
    x1, x2 = grid.nodes_2d()
    whole = inverse_discrete_fourier(SpectralFunction(grid, symbol(x1, x2) * u_hat.values), box)
    # the whole box is evaluated; lattice points outside the window read zero
    rows, cols = (idx - lo).T
    vals = np.zeros_like(whole.values)
    vals[rows, cols] = whole.values[rows, cols]
    return LatticeFunction(grid.h, box, vals)


def boundary_trace_spectrum(symbol: PeriodicSymbol, u_hat: SpectralFunction,
                            side: str) -> SpectralFunction:
    """Integrate ``symbol * u_hat`` over the axis transverse to the edge
    ``side``: over ``xi2`` on the ``"bottom"`` edge, returning a function of
    ``xi1``, and the other way around on the ``"left"`` edge.
    """
    if side not in (SIDE_BOTTOM, SIDE_LEFT):
        raise ValueError(f"side must be {SIDE_BOTTOM!r} or {SIDE_LEFT!r}, got {side!r}")
    grid = u_hat.grid
    if not isinstance(grid, FrequencyGrid) or grid.ndim != 2:
        raise ValueError("boundary_trace_spectrum requires a 2D frequency grid")
    if not grid.matches_mesh(symbol.h):
        raise MeshMismatchError(
            f"symbol mesh {symbol.h} does not match grid mesh {grid.h}")
    x1, x2 = grid.nodes_2d()
    integrand = symbol(x1, x2) * u_hat.values
    axis = 1 if side == SIDE_BOTTOM else 0
    vals = integrand.sum(axis=axis) * grid.axis_weight
    out_grid = FrequencyGrid(grid.h, grid.nodes_per_axis, ndim=1)
    return SpectralFunction(out_grid, vals)
