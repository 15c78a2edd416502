"""Reduction of the quadrant problem to a block system of integral equations.

The homogeneous lattice equation with a wave-factorized symbol has an
``n``-parameter family of solutions per boundary edge: the spectrum is the
inverse plus factor times a combination of unknown one-axis trace functions
paired with powers of the transverse difference symbol,

    u_hat(xi) = plus(xi)^-1 * sum_k ( c_k(xi1) zeta(xi2)^k + d_k(xi2) zeta(xi1)^k ).

Feeding this into the boundary conditions written in Fourier images yields a
``2n x 2n`` system of one-dimensional integral equations for the traces:
diagonal multiplier blocks on the own-axis unknowns and integral-kernel
blocks on the cross-axis unknowns.  The system is discretized by a Nystrom
rule on the same midpoint grid that carries the unknowns.  Kernel block
``(j, k)`` of an edge is one core, ``symbol_j * weight / plus`` on the node
pairs with the quadrature weight in it, times the k-th transverse power at
the output node, so a system stores the n cores of each edge and applies
the powers where the cores are used (:func:`_kernel_blocks`).  The kernels
are analytic when the plus factor is holomorphic and nonvanishing in the tube,
so the solver compresses them to their numerical rank and solves by a
Woodbury update; see :func:`solve_block_system`.

The continuous counterpart replaces ``zeta(xi)^k`` by ``(i xi)^k`` and the
torus by the full frequency line, truncated to a symmetric segment.  On a
torus window both sample the same cores at the same nodes: the lattice
operator there is a continuous strip's cores with the other powers, its
multipliers the window's partial sums of the cores' rows.  One
:func:`assemble` builds all three systems, the grid choosing the nodes,
the weight and the powers: a lattice problem on its torus, a continuous
one on a line or, with difference powers, on a torus window.

The trace representation is not unique: adding the m-th transverse power to
a bottom trace and subtracting the matching k-th power from a left trace
leaves the reconstructed spectrum unchanged, so the block system carries an
``n^2``-dimensional structural null space regardless of the symbols.  The
solver deflates these known gauge directions and returns the minimum-norm
representative; see :func:`structural_null_basis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import AssemblyError, MeshMismatchError, NearSingularError
from .lattice import (FrequencyGrid, LineGrid, SpectralFunction, _open_mesh, _power,
                      _power_base, sobolev_norm_1d, zeta)
from .operators import SIDE_BOTTOM, SIDE_LEFT, boundary_trace_spectrum
from .symbols import PeriodicSymbol, WaveFactorization

__all__ = [
    "ProblemSpec",
    "ContinuousProblem",
    "BlockSystem",
    "TraceVector",
    "SolveReport",
    "RoundtripReport",
    "GaussianBumps",
    "assemble",
    "solve_block_system",
    "structural_null_basis",
    "project_out_gauge",
    "reconstruct_solution",
    "manufactured_roundtrip",
    "zeta_boundary_operators",
    "row_trace_boundary_operators",
    "radial_power_problem",
    "random_bumps",
    "random_trace_vector",
    "trace_exponents",
    "CONDITION_LIMIT",
]

CONDITION_LIMIT = 1.0e12


def trace_exponents(s: float, index: float, n: int) -> tuple[float, ...]:
    """Weight exponents of the trace spaces, ``s - index + k - 1/2``."""
    return tuple(s - index + k - 0.5 for k in range(n))


def _check_split(s: float, n: int, delta: float) -> None:
    """The parameters of the index split ``index = s + n + delta``."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not abs(delta) < 0.5:
        raise ValueError(f"delta must satisfy |delta| < 1/2, got {delta}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """The operator of a discrete quadrant problem.

    Boundary operators are their symbols, grouped by edge: ``bottom_ops``
    act on the x2 = 0 edge (their data are functions of xi1), ``left_ops``
    on the x1 = 0 edge.  The boundary data are not part of the problem:
    they enter only :func:`solve_block_system`.
    """

    s: float
    factorization: WaveFactorization
    n: int
    delta: float
    bottom_ops: tuple[PeriodicSymbol, ...]
    left_ops: tuple[PeriodicSymbol, ...]

    def __post_init__(self) -> None:
        _check_split(self.s, self.n, self.delta)
        gap = self.factorization.index - self.s
        if not math.isclose(gap, self.n + self.delta, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"index - s = {gap} must equal n + delta = {self.n + self.delta}")
        if len(self.bottom_ops) != self.n or len(self.left_ops) != self.n:
            raise ValueError(
                f"need n = {self.n} boundary operators per edge, got "
                f"{len(self.bottom_ops)} bottom and {len(self.left_ops)} left")

    @property
    def trace_exponents(self) -> tuple[float, ...]:
        return trace_exponents(self.s, self.factorization.index, self.n)


@dataclass(frozen=True, eq=False)
class ContinuousProblem:
    """Continuous counterpart: symbols on the frequency plane, truncated line.

    Symbol and factor evaluators are called like :class:`PeriodicSymbol`'s,
    on row tiles of a mesh, open meshes with at least 2 rows in either
    orientation, possibly several times per assembly: they must be pure
    and elementwise.  Orders are declared, not checked: the growth sandwich
    is a hypothesis of the problem.  The plus factor's index is ``s + n +
    delta`` (:attr:`index`).
    """

    s: float
    n: int
    delta: float
    plus_factor: Callable[..., np.ndarray]
    bottom_symbols: tuple[Callable[..., np.ndarray], ...]
    left_symbols: tuple[Callable[..., np.ndarray], ...]
    bottom_orders: tuple[float, ...]
    left_orders: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_split(self.s, self.n, self.delta)  # the index is the split's sum
        for seq, name in ((self.bottom_symbols, "bottom_symbols"),
                          (self.left_symbols, "left_symbols"),
                          (self.bottom_orders, "bottom_orders"),
                          (self.left_orders, "left_orders")):
            if len(seq) != self.n:
                raise ValueError(f"{name} must have n = {self.n} entries")

    @property
    def index(self) -> float:
        return self.s + self.n + self.delta

    @property
    def trace_exponents(self) -> tuple[float, ...]:
        return trace_exponents(self.s, self.index, self.n)


def radial_power_problem(s: float, n: int, delta: float,
                         bottom_orders: Sequence[float],
                         left_orders: Sequence[float]) -> ContinuousProblem:
    """Built-in continuous test family with radial power symbols.

    Plus factor ``(1 + |xi|^2)^(index/2)`` with ``index = s + n + delta``,
    boundary symbols ``(1 + |xi|^2)^(order/2)``.  All satisfy the growth
    sandwich with constants independent of any mesh.  As ``pow(x, 0)`` is
    exactly 1, an evaluator of order 0 returns a one that broadcasts.  The
    power of an integer order up to 16 in modulus, every shipped order, is
    taken as products of ``1 + |xi|^2`` and at most one square root,
    within a few ulp of ``pow``; of any other order by ``pow``
    (``lattice._power``).
    """
    index = s + n + delta

    def radial(order: float) -> Callable[..., np.ndarray]:
        if order == 0:
            return lambda x1, x2: np.ones((1, 1))

        def ev(x1, x2, _o=order):
            return _power(1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2, _o / 2.0)
        return ev

    return ContinuousProblem(
        s=s, n=n, delta=delta,
        plus_factor=radial(index),
        bottom_symbols=tuple(radial(b) for b in bottom_orders),
        left_symbols=tuple(radial(g) for g in left_orders),
        bottom_orders=tuple(float(b) for b in bottom_orders),
        left_orders=tuple(float(g) for g in left_orders),
    )


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """Nystrom discretization of the reduced block operator, without data.

    One array per block kind, its leading axis the edge whose equations
    the blocks belong to, 0 the bottom and 1 the left, the order of the
    traces (:class:`TraceVector`):

    * ``mult[e, j, k]`` diagonal values multiplying edge e's own trace k in
      its equation j, shape ``(2, n, n, N)``;
    * ``core[e, j]``    core of the kernels applying the other edge's traces
      in edge e's equation j, ``symbol_j * weight / plus`` on the node
      pairs, shape ``(2, n, N, N)``, indexed ``(out, in)``: ``(xi1, xi2)``
      for the bottom edge, ``(xi2, xi1)`` for the left.

    Kernel block ``(j, k)`` of an edge is ``core[e, j] * p^k[:, None]``,
    with ``p`` the power base (``zeta`` on the torus, ``i xi`` on the line)
    at the output nodes, so a core is its kernel's block ``(j, 0)``:
    :func:`_kernel_blocks` fills the ``(n, n, out, in)`` stack, the solver
    applies the blocks without it.  The cores take the dtype of the symbol
    values over the plus factor, float64 where every one is real (the
    radial family); multipliers are complex, ``mult[e, j, k] = core[e, j]
    @ p^k`` with ``p`` at the input nodes.  The finiteness check names an
    edge's slice as its block: ``bottom_mult``, ``bottom_core``,
    ``left_core`` or ``left_mult``.

    A strip (``_assemble`` with ``rows``) holds ``(2, n, n, R)``
    multipliers and ``(2, n, R, R)`` cores on R of the N nodes, its
    multipliers the sums over the other N - R nodes only: it is not a
    system on the R nodes, and ``size``, ``gauge_basis`` and the solver do
    not apply to it.

    A system keeps its ``nodes`` and torus mesh ``h`` (None on the line),
    but no grid: the data bring theirs (:class:`TraceVector`), and the
    solve returns its traces on it.
    """

    nodes: np.ndarray
    h: float | None
    mult: np.ndarray    # (2, n, n, N)
    core: np.ndarray    # (2, n, N, N)

    def __post_init__(self) -> None:
        # the blocks of [[A, B], [C, D]] in reading order
        for name, part in (("bottom_mult", self.mult[0]), ("bottom_core", self.core[0]),
                           ("left_core", self.core[1]), ("left_mult", self.mult[1])):
            _require_finite(name, part)

    @property
    def n(self) -> int:
        return self.mult.shape[1]

    @property
    def size(self) -> int:
        return 2 * self.n * len(self.nodes)

    @cached_property
    def gauge_basis(self) -> np.ndarray:
        """Orthonormal basis ``Q`` of the structural gauge directions
        (:func:`structural_null_basis`), factored once per system."""
        q, _ = np.linalg.qr(structural_null_basis(self))
        return q


@dataclass(frozen=True, eq=False)
class TraceVector:
    """2n one-axis functions on one 1-D grid, the traces the solve returns
    or the boundary data it takes: ``values`` is ``(2n, N)``, its rows the
    bottom traces 0..n-1 and then the left ones, the order of the block
    system's unknowns, each row one value per grid node."""

    grid: FrequencyGrid | LineGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.ndim != 1:
            raise ValueError("a trace vector needs a 1D grid")
        vals = np.asarray(self.values, dtype=complex)
        N = len(self.grid.axis_nodes)
        if vals.ndim != 2 or not len(vals) or len(vals) % 2 or vals.shape[1] != N:
            raise ValueError(f"trace values of shape {vals.shape} are not 2n > 0 rows "
                             f"of the grid's {N} nodes")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values) // 2


def _require_finite(name: str, arr: np.ndarray) -> None:
    # C and Fortran layouts as a real view in memory order, others in place
    if not np.all(np.isfinite(arr.ravel(order="K").view(float) if arr.flags.forc else arr)):
        raise AssemblyError(f"non-finite entries in block {name}")


def _check_mesh(what: str, h: float | None, grid: FrequencyGrid | LineGrid) -> None:
    if isinstance(grid, LineGrid):
        raise MeshMismatchError(f"{what} mesh {h} does not match a line of half width "
                                f"{grid.half_width:.6g}, which has none")
    if h is None or not grid.matches_mesh(h):
        raise MeshMismatchError(f"{what} mesh {h} does not match grid mesh {grid.h}")


def _check_on_grid(what: str, traces: TraceVector, nodes: np.ndarray, h: float | None) -> None:
    """Reject a trace vector off the grid of ``nodes``: with a mesh ``h``,
    off the torus of that mesh or with another node count; on the line
    (``h`` None), on other nodes, compared exactly, as a grid and the
    system assembled on it take the same ``_midpoint_nodes``."""
    mesh = getattr(traces.grid, "h", None)
    if h is not None and (mesh is None or not traces.grid.matches_mesh(h)):
        raise MeshMismatchError(f"{what} mesh {mesh} does not match grid mesh {h}")
    N = traces.values.shape[1]
    if N != len(nodes):
        raise MeshMismatchError(f"{what} have {N} nodes, the grid {len(nodes)}")
    if h is None and not np.array_equal(traces.grid.axis_nodes, nodes):
        theirs = traces.grid.axis_nodes
        at = int(np.argmax(theirs != nodes))
        raise MeshMismatchError(f"{what} node {at} is {theirs[at]:.6g}, the grid's {nodes[at]:.6g}")


def _plus_values(plus, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Evaluate an inverse-safe plus factor evaluator on the open mesh
    ``(x1, x2)``, broadcast to the whole mesh, flagging zeros.  A real
    factor stays real, in double precision.

    A value passes when its modulus is finite and at least 1e-300.  A real
    factor is read by its least and largest values alone; one that fails
    that reading, or is negative somewhere, and every complex factor by
    the extremes of their moduli.  A NaN fails every comparison.  The first
    failing node is named: the factor vanishes there, its modulus below
    1e-300, or is not finite, its value given."""
    vals = np.asarray(plus(x1, x2))
    vals = np.broadcast_to(vals.astype(np.result_type(vals, float), copy=False),
                           np.broadcast_shapes(x1.shape, x2.shape))
    if vals.dtype.kind == "f" and vals.min() >= 1e-300 and vals.max() < math.inf:
        return vals
    mags = np.abs(vals)
    if not (mags.min() >= 1e-300 and mags.max() < math.inf):
        fails = ~((mags >= 1e-300) & (mags < math.inf))
        at = np.unravel_index(int(np.argmax(fails)), mags.shape)
        x1, x2 = np.broadcast_arrays(x1, x2)
        node = f"node (xi1={x1[at]:.6g}, xi2={x2[at]:.6g})"
        if mags[at] < 1e-300:
            raise AssemblyError(f"plus factor vanishes at {node}")
        raise AssemblyError(f"plus factor is not finite at {node}: {vals[at]}")
    return vals


def _products(core: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``(core @ columns).T`` for C-ordered complex columns in one product,
    for a real core against their real view: real and imaginary parts apart."""
    if np.iscomplexobj(core):
        return (core @ columns).T
    return (core @ columns.view(float)).view(complex).T


def _kernel_blocks(stack: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Fill the kernel stack ``block[j, k] = core[j] * p^k[:, None]``, shape
    ``(n, n, out, in)``, in place from the n cores in its blocks ``(j, 0)``,
    with ``p`` the power base ``powers`` at the output nodes; returns it.
    ``p^0 = 1`` is not multiplied in, which changes at most the sign of a
    zero."""
    n = len(stack)
    for j, k in np.ndindex(n, n):
        if k:  # in place: no mesh-sized temporary per block
            np.multiply(stack[j, 0], (powers ** k)[:, None], out=stack[j, k])
    return stack


# Meshes are assembled in row tiles of at most this many entries, each run
# through the whole chain while in cache, so no temporary is mesh-sized;
# 16k to 64k entries measured alike, 8k slower from per-tile overhead.
_TILE = 32768


def _row_tiles(rows: int, cols: int) -> list[slice]:
    """Slices of the output rows of a ``(rows x cols)`` open mesh: one for a
    mesh of at most ``_TILE`` entries, else tiles of at most ``_TILE`` where
    8 rows fit (the last up to a row more), of at least 2 rows and starting
    on multiples of 8, where BLAS groups the rows of products to the same bits."""
    step = max(8, _TILE // cols // 8 * 8)
    bounds = list(range(0, max(rows - 1, 1), step)) + [rows]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _assemble(nodes: np.ndarray, weight: float, h: float | None,
              plus_factor, bottom_symbols, left_symbols,
              rows: slice | np.ndarray | None = None) -> BlockSystem:
    """Shared assembly core; ``h`` selects difference powers (set) or
    ``(i xi)`` powers (None), and n is the number of bottom symbols.

    Each family is evaluated in its ``(out, in)`` order, the bottom one on
    the open mesh of ``(xi1, xi2)`` pairs, the left one on it swapped, in
    row tiles (:func:`_row_tiles`): a tile's factor is checked and its
    inverse scaled by the quadrature weight, and its cores formed before
    the next tile, each with its n multipliers ``core_j @ p^k``, ``p`` at
    the input nodes, in one matrix product (:func:`_products`) against the
    powers as columns.  A full assembly keeps the bottom inverse factor,
    whose transpose is the left one's.

    Both families' multipliers are one ``(2, n, n, R)`` array and their
    cores one ``(2, n, R, R)`` array, a full assembly's cores written in
    place.  The cores are real only where every family's values are real
    over a real factor: their dtype is taken from the first values, and
    the whole array, both families, is cast to complex when a later
    family's values are complex.

    ``rows``, a slice or a boolean mask of the nodes, makes a square strip
    on the R nodes it selects: the full assembly's cores ``[..., rows,
    :][..., rows]`` and as multipliers their sums over the other N - R
    nodes only, against the powers zeroed on the rows.  A slice takes each
    tile's window columns as a view, where a mask gathers them.  In a strip
    over a real factor, a symbol whose value is a real one that broadcasts
    (the radial family's order 0) multiplies nothing: its core is the
    weighted inverse factor itself, the same bits as their product.
    """
    n, N = len(bottom_symbols), len(nodes)
    out = nodes if rows is None else nodes[rows]
    R = len(out)
    powers = _power_base(nodes, h)[:, None] ** np.arange(n)
    if rows is not None:
        powers[rows] = 0
    mults = np.empty((2, n, n, R), dtype=complex)
    x_out, x_in = _open_mesh(out, nodes)
    inv_plus, cores = None, None
    for swap, symbols in enumerate((bottom_symbols, left_symbols)):
        for t in _row_tiles(R, N):
            x1, x2 = (x_in, x_out[t]) if swap else (x_out[t], x_in)
            if swap and rows is None:
                inv = inv_plus[:, t].T
            else:
                vals = _plus_values(plus_factor, x1, x2)
                if rows is None and inv_plus is None:
                    inv_plus = np.empty((N, N), dtype=vals.dtype)
                inv = np.divide(1.0, vals, out=None if rows is not None else inv_plus[t])
                inv *= weight
            for j, symbol in enumerate(symbols):
                values = np.asarray(symbol(x1, x2))
                if cores is None:
                    cores = np.empty((2, n, R, R), dtype=inv.dtype)
                if not np.can_cast(values.dtype, cores.dtype):  # complex values, a real factor
                    cores = cores.astype(complex)
                if rows is not None and values.dtype.kind == inv.dtype.kind == "f" \
                        and values.size == 1 and values.item() == 1:
                    core = inv  # 1 * x is x, bit for bit, for a real x
                else:
                    core = np.multiply(values, inv,
                                       out=cores[swap, j, t] if rows is None else None)
                del values
                mults[swap, j, :, t] = _products(core, powers)
                if rows is not None:
                    cores[swap, j, t] = core[:, rows]
    return BlockSystem(nodes, h, mults, cores)


def _kernel_strips(problem: ContinuousProblem, window: np.ndarray, line: np.ndarray,
                   weight: float, scales: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Pair strips of the continuous kernel stacks between the ``window``
    and the ``line`` nodes, as one ``(2, n, n, 2, R, N)`` array whose
    leading axis is the family, 0 the bottom and 1 the left, as in a block
    system.  In a family's strip ``[..., 0, :, :]`` is the stack ``K[window,
    line]`` and ``[..., 1, :, :]`` the transposed stack ``K[line,
    window]^T``, both in the order the nodes are given.
    ``scales`` are the ``(n, R)`` and ``(n, N)`` scales of the window and
    the line nodes.  Every entry of block ``(j, k)`` equals the full
    assembly's kernel block at its node pair, multiplied by scale j of its
    output node, then divided by scale k of its input node.

    The ``(window x line)`` open mesh of ``(xi1, xi2)`` pairs carries the
    bottom ``K[window, line]`` and the left ``K[line, window]^T``, the same
    mesh swapped the other two, so each core, ``symbol_j * weight / plus``
    in :func:`_assemble`'s arithmetic, is written straight into its block
    ``(j, 0)`` in the slot's order.  Both meshes go in the same row tiles
    of the window (:func:`_row_tiles`): a tile's factor once per mesh, its
    stacks filled from the cores (:func:`_kernel_blocks`), then scaled by
    the node scales, and checked before the next tile.

    The array is real only at n = 1 for real values over a real factor: its
    dtype is taken from the first core's values, and the whole array is
    cast to complex when a later core's are complex.  One allocation, because two strips
    allocated apart had their pages faulted in again on every sweep after
    the first in a process: 833 minor faults per ``commutator.ini`` run in
    the benchmark's order, 0 as one array.  The likely cause is glibc's
    adaptive trim threshold (mallopt(3)), twice the largest mapped block
    freed so far, which two strips freed together reach and one does not.
    """
    n, R, N = problem.n, len(window), len(line)
    families, strips = (problem.bottom_symbols, problem.left_symbols), None
    x_window, x_line = _open_mesh(window, line)
    window_powers, line_powers = _power_base(window, None), _power_base(line, None)
    for t in _row_tiles(R, N):
        for mesh, (x1, x2) in enumerate(((x_window[t], x_line), (x_line, x_window[t]))):
            inv_plus = 1.0 / _plus_values(problem.plus_factor, x1, x2)
            inv_plus *= weight
            for f, symbols in enumerate(families):
                # bottom kernels have their output nodes on xi1, left ones on
                # xi2: those on the window's axis fill slot 0
                into_window = mesh == f
                for j, symbol in enumerate(symbols):
                    values = np.asarray(symbol(x1, x2))
                    # real only where every block is: n = 1, a real core
                    dtype = np.result_type(values, inv_plus) if n == 1 else complex
                    if strips is None:
                        strips = np.empty((2, n, n, 2, R, N), dtype=dtype)
                    elif not np.can_cast(dtype, strips.dtype):
                        strips = strips.astype(complex)
                    np.multiply(values, inv_plus, out=strips[f, j, 0, 0 if into_window else 1, t])
                    del values
                # each stack in (out, in) order
                pair = strips[f][..., t, :]
                slots = pair[:, :, 0] if into_window else pair[:, :, 1].swapaxes(-1, -2)
                _kernel_blocks(slots, window_powers[t] if into_window else line_powers)
                tile_scales = (scales[0][:, t], scales[1])
                s_out, s_in = tile_scales if into_window else tile_scales[::-1]
                slots *= s_out[:, None, :, None]
                slots /= s_in[None, :, None, :]
            del inv_plus
        for name, pair in zip(("bottom", "left"), strips):
            _require_finite(f"{name} kernel strip", pair[..., t, :])
    return strips


def assemble(problem: ProblemSpec | ContinuousProblem,
             grid: FrequencyGrid | LineGrid) -> BlockSystem:
    """Assemble the block system of a problem on the midpoint nodes of a
    grid, with its quadrature weight.

    The grid selects the powers:

    * a :class:`ProblemSpec` on a torus of its own mesh gives the lattice
      system, ``zeta`` powers; every symbol's mesh is checked against the
      grid's, and a line raises :class:`MeshMismatchError`;
    * a :class:`ContinuousProblem` on a :class:`LineGrid` gives the
      continuous system on the truncated line, ``(i xi)`` powers; the
      truncation must be wide enough for the negative trace exponents to
      tame the tails, the half width is the caller's choice;
    * a :class:`ContinuousProblem` on a :class:`FrequencyGrid` gives the
      window system: the continuous symbols' cores on the torus nodes with
      ``zeta`` powers, the system's ``h`` the grid's.
    """
    if isinstance(problem, ProblemSpec):
        _check_mesh("factorization", problem.factorization.h, grid)
        for symbol in problem.bottom_ops + problem.left_ops:
            _check_mesh("boundary symbol", symbol.h, grid)
        evaluators = (problem.factorization.plus_factor, problem.bottom_ops, problem.left_ops)
    else:
        evaluators = (problem.plus_factor, problem.bottom_symbols, problem.left_symbols)
    return _assemble(grid.axis_nodes, grid.axis_weight, getattr(grid, "h", None), *evaluators)


def structural_null_basis(system: BlockSystem) -> np.ndarray:
    """Exact gauge directions of the block system, one column per pair
    ``(k, m)``: the bottom trace k carries the m-th transverse power and the
    left trace m compensates with the negated k-th power.

    These vectors annihilate the assembled matrix for any symbols, because
    both sides sample the same kernel products.
    """
    n, nodes = system.n, system.nodes
    N = len(nodes)
    powers = _power_base(nodes, system.h)
    cols = []
    for k in range(n):
        for m in range(n):
            z = np.zeros(2 * n * N, dtype=complex)
            z[k * N:(k + 1) * N] = powers ** m
            z[(n + m) * N:(n + m + 1) * N] = -(powers ** k)
            cols.append(z)
    return np.stack(cols, axis=1)


def project_out_gauge(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a stacked trace vector onto the complement
    of the structural gauge directions (the minimum-norm representative of
    its gauge orbit)."""
    q = system.gauge_basis
    return x - q @ (q.conj().T @ x)


# Randomized block Krylov estimate of a largest singular value (Halko,
# Martinsson & Tropp 2011, range finder with power steps; Musco & Musco
# 2015, Rayleigh-Ritz on the whole block Krylov space), built as a block
# Arnoldi run on ``M M^H``: each block is orthonormalized as it is made.
# Fixed seed, so a rerun reports the same condition.
_ESTIMATE_BLOCK = 8
_ESTIMATE_POWER_STEPS = 4
_ESTIMATE_SEED = 0


def _sigma_max_estimate(apply: Callable[[np.ndarray], np.ndarray],
                        adjoint: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Estimate of the largest singular value of a square operator of size
    ``dim``, given as the products ``apply(v) = M v`` and ``adjoint(v) =
    M^H v`` on column blocks; from below, about 1% low at worst on the
    block systems' flat top spectra.

    Each new block ``M M^H q`` is projected twice against the basis so far
    and orthonormalized by a QR of its own columns; the images ``M^H q`` are
    kept, and the Rayleigh-Ritz value is the top eigenvalue of their Gram
    matrix.  It bounds ``sigma_max`` from below only while the basis is
    orthonormal, so a basis off by more than 1e-12 (a block that fell
    inside the space already built) is orthonormalized again as a whole.
    """
    rng = np.random.default_rng(_ESTIMATE_SEED)
    cols = min(_ESTIMATE_BLOCK, dim)  # a block QR keeps at most dim columns
    width = cols * (_ESTIMATE_POWER_STEPS + 1)
    basis = np.empty((dim, width), dtype=complex)
    images = np.empty((dim, width), dtype=complex)
    block = apply(rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols)))
    for i in range(0, width, cols):
        if i:
            block = apply(image)
            for _ in range(2):
                block -= basis[:, :i] @ _adjoint_mul(basis[:, :i], block)
        basis[:, i:i + cols] = q = np.linalg.qr(block)[0]
        images[:, i:i + cols] = image = adjoint(q)
    if np.abs(_adjoint_mul(basis, basis) - np.eye(width)).max() > 1e-12:
        basis = np.linalg.qr(basis)[0]
        images = adjoint(basis)
    top = np.linalg.eigvalsh(_adjoint_mul(images, images))[-1]
    return math.sqrt(max(float(top), 0.0))


def _per_node(mult: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the per-node matrices ``mult[..., :, :, i]`` (``mult`` of shape
    ``(..., n, n, N)``) to blocks of stacked traces ``v`` of shape
    ``(..., n N, k)``."""
    n, N = mult.shape[-2:]
    if n == 1:  # the common scalar case, without einsum's call overhead
        return mult[..., 0, 0, :, None] * v
    return np.einsum("...jki,...kil->...jil", mult,
                     v.reshape(v.shape[:-2] + (n, N, -1))).reshape(v.shape)


def _adjoint_mul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m^H v`` without copying ``m``."""
    return (m.T @ v.conj()).conj()


def _kernel_apply(core: np.ndarray, powers: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``K v`` for the kernel matrix of n cores ``core``, ``(n, N, N)``, with
    blocks ``core[j] * p^k[:, None]`` (:func:`_kernel_blocks`), applied to
    blocks ``v`` of shape ``(n N, c)``: output block j is ``sum_k p^k *
    (core[j] @ v_k)``, summed in Horner form over one product of the
    stacked cores with each input block."""
    n, N = core.shape[:2]
    stacked = core.reshape(n * N, N)
    out = stacked @ v[(n - 1) * N:]
    for k in range(n - 2, -1, -1):
        rows = out.reshape(n, N, -1)
        rows *= powers[:, None]
        out += stacked @ v[k * N:(k + 1) * N]
    return out


def _kernel_adjoint(core: np.ndarray, powers: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``K^H u`` for the kernel of :func:`_kernel_apply`: input block k is
    ``sum_j core[j]^H (conj(p)^k * u_j)``, one product of the stacked
    cores' adjoint with the scaled output blocks per k."""
    n, N = core.shape[:2]
    stacked = core.reshape(n * N, N)
    # core^H x = conj(core^T conj(x)), with conj(conj(p)^k u) = p^k conj(u)
    scaled = u.conj()
    out = np.empty((n, N, u.shape[-1]), dtype=complex)
    for k in range(n):
        if k:
            scaled = (scaled.reshape(n, N, -1) * powers[:, None]).reshape(u.shape)
        np.matmul(stacked.T, scaled, out=out[k])
    np.conjugate(out, out=out)
    return out.reshape(u.shape)


def _kernel_norm(core: np.ndarray, powers: np.ndarray) -> float:
    """Frobenius norm of the kernel of :func:`_kernel_apply`, from the
    cores' squared row norms and the powers, with no block formed.  Where
    the squares overflow, as on a system scaled past about 1e154, the norm
    is taken again on the cores scaled by their largest modulus."""
    parts = np.ascontiguousarray(core).view(float)  # real and imaginary parts
    gains = sum(np.abs(powers) ** (2 * k) for k in range(len(core)))
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.einsum("jix,jix->i", parts, parts) @ gains))
    if math.isfinite(norm):
        return norm
    scale = float(np.abs(parts).max())
    return scale * math.sqrt(float(np.square(parts / scale).sum(axis=(0, 2)) @ gains))


# Adaptive randomized range finder (Halko, Martinsson & Tropp 2011) in
# blocks of real Gaussian samples.  A block of ``cols`` samples scales the
# kernel's singular values, and the rounding noise of the product, by about
# ``sqrt(cols)``; directions are kept down to ``_RANGE_TOL`` times the
# kernel's Frobenius norm in the kernel's own scale.
_RANGE_BLOCK = 16
_RANGE_TOL = 1e-13


def _compress(core: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank factors of the square kernel matrix ``K`` of n cores and the
    powers (:func:`_kernel_apply`): ``U`` with orthonormal columns spanning
    its numerical range and ``V = K^H U``, so that ``K`` is ``U
    V^H`` to ``_RANGE_TOL`` times its Frobenius norm.  ``K`` is applied
    through its cores, never formed.

    Each sample block is projected twice against the basis so far, and its
    singular directions above the floor join the basis; the first block
    that drops a direction ends the search.  Seeded, so a rerun compresses
    alike.
    """
    m = core.shape[0] * core.shape[1]
    rng = np.random.default_rng(_ESTIMATE_SEED)
    floor = _RANGE_TOL * _kernel_norm(core, powers)
    u = np.empty((m, 0), dtype=complex)
    while u.shape[1] < m:
        cols = min(_RANGE_BLOCK, m - u.shape[1])
        y = _kernel_apply(core, powers, rng.standard_normal((m, cols)))
        for _ in range(2):
            y -= u @ (u.conj().T @ y)
        dirs, sig, _ = np.linalg.svd(y, full_matrices=False)
        keep = sig > floor * math.sqrt(cols)
        # the SVD leaves a direction near the floor orthogonal to the basis
        # only to rounding over the floor; one more projection restores it
        kept = dirs[:, keep]
        kept -= u @ (u.conj().T @ kept)
        u = np.hstack([u, kept])
        if not keep.all():
            break
    return u, _kernel_adjoint(core, powers, u)


class _CompressedSystem:
    """``A`` and ``P``, the leading ``2m x 2m`` block of the bordered
    inverse, applied through the blocks of the bordered matrix and never
    formed at size ``2m``.

    With ``m = nN``, ``D = blkdiag(D_b, D_l)`` the per-node multipliers and
    the kernels compressed to ``K_b ~ U_b V_b^H`` and ``K_l ~ U_l V_l^H``
    (:func:`_compress`), ``A ~ D + W_r Z_r^H`` with ``W_r = [[U_b, 0], [0,
    U_l]]`` and ``Z_r = [[0, V_l], [V_b, 0]]``.  Appending the gauge basis
    ``Q`` to both, ``W = [W_r, Q]`` and ``Z = [Z_r, Q]``, the bordered
    equations ``A x + Q lam = v``, ``Q^H x = 0`` reduce to the capacitance
    matrix ``C = Z^H D^-1 W + blkdiag(I_r, 0)``, of size ``r_b + r_l +
    n^2``, on the unknowns ``[Z_r^H x; lam]``, and the Woodbury identity
    (Hager 1989) gives ``P = (I - G Z^H) D^-1`` with ``G = D^-1 W C^-1``.
    ``D`` is inverted node by node (``mult_inv``, shape ``(2, n, n, N)``)
    and only ``C`` densely.  The kernels are applied from the system's
    cores: block j of ``K v`` is ``sum_k p^k * (core_j v_k)``, with ``p``
    the power base on the grid, which carries the output nodes of both
    edges (:func:`_kernel_apply`).

    ``a`` applies the exact ``A``; ``a_low`` and ``a_low_h`` apply the
    compressed one and its adjoint, ``p`` and ``p_h`` the Woodbury ``P``
    and its adjoint.
    """

    def __init__(self, system: BlockSystem, q: np.ndarray, mult_inv: np.ndarray):
        n, N = system.n, len(system.nodes)
        m, g = n * N, q.shape[1]
        self.m = m
        # the per-node stacks are kept C-contiguous, einsum is ~2x slower on
        # transposes; the system's own are not copied
        self.mult = np.ascontiguousarray(system.mult)
        self.mult_h = np.ascontiguousarray(self.mult.transpose(0, 2, 1, 3).conj())
        self.dinv = mult_inv
        self.dinv_h = np.ascontiguousarray(mult_inv.transpose(0, 2, 1, 3).conj())
        self.powers = _power_base(system.nodes, system.h)
        # complex cores in C order, so that a stacked core is a view and the kernel
        # products round alike in any layout; complex C-order cores are not copied
        self.cores = np.ascontiguousarray(system.core, dtype=complex)
        (ub, vb), (ul, vl) = (_compress(core, self.powers) for core in self.cores)
        rb, rl = ub.shape[1], ul.shape[1]
        self.rank = (rb, rl)
        r = rb + rl
        w = np.zeros((2, m, r + g), dtype=complex)
        z = np.zeros((2, m, r + g), dtype=complex)
        w[0, :, :rb], w[1, :, rb:r] = ub, ul
        z[1, :, :rb], z[0, :, rb:r] = vb, vl
        w[..., r:] = z[..., r:] = q.reshape(2, m, g)
        dw = _per_node(mult_inv, w).reshape(2 * m, r + g)  # D^-1 W
        w, self.z = w.reshape(2 * m, r + g), z.reshape(2 * m, r + g)
        self.w_r, self.z_r = w[:, :r], self.z[:, :r]
        c = _adjoint_mul(self.z, dw)
        c[np.arange(r), np.arange(r)] += 1.0
        # C's rows equilibrated before it is inverted: its gauge rows scale
        # like h^2 against the identity's 1, and the rounding of an unscaled
        # inverse swamps them, so the solve leaks into the gauge at small h.
        # A zero row is left as it is, and C stays singular.
        rows = np.abs(c).max(axis=1)
        rows[rows == 0.0] = 1.0
        self.g = dw @ (np.linalg.inv(c / rows[:, None]) / rows)

    def a(self, v: np.ndarray) -> np.ndarray:
        v2 = v.reshape(2, self.m, -1)
        out = _per_node(self.mult, v2)
        bottom, left = self.cores
        out[0] += _kernel_apply(bottom, self.powers, v2[1])
        out[1] += _kernel_apply(left, self.powers, v2[0])
        return out.reshape(v.shape)

    def a_low(self, v: np.ndarray) -> np.ndarray:
        out = _per_node(self.mult, v.reshape(2, self.m, -1)).reshape(v.shape)
        return out + self.w_r @ _adjoint_mul(self.z_r, v)

    def a_low_h(self, v: np.ndarray) -> np.ndarray:
        out = _per_node(self.mult_h, v.reshape(2, self.m, -1)).reshape(v.shape)
        return out + self.z_r @ _adjoint_mul(self.w_r, v)

    def p(self, v: np.ndarray) -> np.ndarray:
        y = _per_node(self.dinv, v.reshape(2, self.m, -1)).reshape(v.shape)
        return y - self.g @ _adjoint_mul(self.z, y)

    def p_h(self, v: np.ndarray) -> np.ndarray:
        y = v - self.z @ _adjoint_mul(self.g, v)
        return _per_node(self.dinv_h, y.reshape(2, self.m, -1)).reshape(v.shape)


def _invert_multipliers(system: BlockSystem) -> tuple[np.ndarray, float]:
    """Invert the per-node multiplier matrices of both edges,
    ``mult[e, :, :, i]``, in one batch; returns the inverses, shape ``(2,
    n, n, N)`` (bottom, then left), and their largest 2-norm condition.
    Raises :class:`NearSingularError` naming the edge and the node where a
    matrix is singular to working precision."""
    stack = system.mult.transpose(0, 3, 1, 2)
    sig = np.linalg.svd(stack, compute_uv=False)
    cond = np.full(sig.shape[:2], math.inf)
    np.divide(sig[..., 0], sig[..., -1], out=cond, where=sig[..., -1] > 0)
    edge, worst = np.unravel_index(int(np.argmax(cond)), cond.shape)
    if not cond[edge, worst] <= CONDITION_LIMIT:
        name, coord = (("bottom", "xi1"), ("left", "xi2"))[edge]
        raise NearSingularError(
            f"{name} multiplier matrix at node {coord}={system.nodes[worst]:.6g} has "
            f"condition {cond[edge, worst]:.3e} > {CONDITION_LIMIT:.0e}: the {name} "
            "edge condition fails; system not uniquely solvable by elimination",
            condition=math.inf)
    return (np.ascontiguousarray(np.linalg.inv(stack).transpose(0, 2, 3, 1)),
            float(cond[edge, worst]))


@dataclass(frozen=True)
class SolveReport:
    """``condition`` estimates the deflated condition, the largest singular
    value over the smallest one outside the structural gauge space; it is
    ``sigma_max(A) * sigma_max(P)`` with ``P`` the bordered inverse, which
    lands within a few percent of the singular-value ratio.  ``residual``
    is ``|b - A x| / |b|``; for data outside the range of ``A`` it measures
    the incompatible part.  The solver deflates the ``n^2`` structural gauge
    directions.  ``multiplier_condition`` is the largest 2-norm condition
    of the per-node multiplier matrices of both edges, which the solver
    inverts: each edge's own boundary problem, node by node.
    ``kernel_rank`` is ``(r_b, r_l)``, the numerical ranks the bottom and
    left kernel matrices were compressed to."""

    condition: float
    residual: float
    multiplier_condition: float
    kernel_rank: tuple[int, int]


def solve_block_system(system: BlockSystem,
                       data: TraceVector) -> tuple[TraceVector, SolveReport]:
    """Minimum-norm solve of the Nystrom system on compressed kernels.

    ``data`` are the boundary data ``b``: a trace vector of n bottom and n
    left rows on the system's nodes, each measured in the trace norm with
    exponent ``s - order - 3/2``, ``order`` that of its boundary operator:
    the exponent that bounds the multipliers on the trace space of exponent
    ``trace_exponents[0]``.  They are checked once, as one vector, before
    any factorization: another component count raises ``ValueError``,
    another node count, on the torus another mesh and on the line other
    nodes :class:`MeshMismatchError`, non-finite values
    :class:`AssemblyError`.
    Their rows stacked are the right-hand side, and the traces come back as
    a trace vector on the data's own grid.

    With ``Q`` the system's ``gauge_basis``, ``x = P b`` with ``P`` the
    leading ``2nN x 2nN`` block of the inverse of the bordered matrix ``B =
    [[A, Q], [Q^H, 0]]``, followed by one refinement step against the exact
    ``A``.  For data in the range of ``A`` this is the unique solution
    orthogonal to the gauge directions.

    Neither ``A`` nor ``B`` nor ``P`` is formed (:class:`_CompressedSystem`):
    the per-node multiplier matrices of both edges are inverted node by
    node, each kernel matrix is compressed to its numerical rank by a
    seeded randomized range finder, and only the Woodbury capacitance
    matrix, of size ``r_b + r_l + n^2``, is inverted densely.  The
    condition estimate takes ``sigma_max`` of the compressed ``A`` and of
    the Woodbury ``P``; the refinement step and the reported residual use
    the exact ``A``.  Raises :class:`NearSingularError` when a per-node
    multiplier matrix of either edge is singular to working precision
    (``condition`` is then ``inf``), when the capacitance matrix is
    singular, or when the condition estimate exceeds ``CONDITION_LIMIT``
    (read: the system is not uniquely solvable even modulo gauge), and,
    with ``condition`` ``inf``, when LAPACK fails inside the condition
    estimate, as its Gram matrix does on a system scaled past about 1e154.
    """
    if data.n != system.n:
        raise ValueError(f"data must have n = {system.n} components per edge, got {data.n}")
    _check_on_grid("data", data, system.nodes, system.h)
    for name, part in zip(("rhs_bottom", "rhs_left"), np.split(data.values, 2)):
        _require_finite(name, part)
    rhs = data.values.reshape(-1, 1)
    mult_inv, mult_cond = _invert_multipliers(system)
    try:
        ops = _CompressedSystem(system, system.gauge_basis, mult_inv)
    except np.linalg.LinAlgError:  # C singular: rank loss beyond the gauge
        ops = None
    size = system.size
    try:
        # an estimate that overflows is not finite, and so rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            cond = (_sigma_max_estimate(ops.a_low, ops.a_low_h, size)
                    * _sigma_max_estimate(ops.p, ops.p_h, size)
                    if ops is not None and np.isfinite(ops.g).all() else math.inf)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"the deflated condition estimate failed: LAPACK error "
                                f"{exc!r}", condition=math.inf) from None
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NearSingularError(
            f"deflated condition estimate {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; system not uniquely solvable", condition=cond)

    x = ops.p(rhs)
    # one refinement step keeps the residual at rounding level
    x = x + ops.p(rhs - ops.a(x))
    rhs_norm = float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(rhs - ops.a(x)))
    residual = res / rhs_norm if rhs_norm > 0 else res

    traces = TraceVector(data.grid, x.reshape(data.values.shape))
    return traces, SolveReport(condition=cond, residual=residual,
                               multiplier_condition=mult_cond, kernel_rank=ops.rank)


def reconstruct_solution(traces: TraceVector, fac: WaveFactorization,
                         grid: FrequencyGrid) -> SpectralFunction:
    """Build the two-axis spectrum from a trace vector and the plus factor,
    pairing each trace with powers of the difference symbol.

    The traces and the factorization must be on the grid's mesh, the traces
    with its node count; the bottom and left row blocks enter one product.
    """
    if grid.ndim != 2:
        raise ValueError("reconstruct_solution requires a 2D grid")
    _check_mesh("factorization", fac.h, grid)
    _check_on_grid("traces", traces, grid.axis_nodes, grid.h)
    x1, x2 = grid.nodes_2d()
    bottom, left = np.split(traces.values, 2)
    powers = zeta(grid.axis_nodes, grid.h) ** np.arange(traces.n)[:, None]
    plus = _plus_values(fac.plus_factor, x1, x2)
    # sum_k b_k(xi1) p^k(xi2) + p^k(xi1) l_k(xi2) as one (N, 2n) @ (2n, N) product
    num = np.concatenate([bottom, powers]).T @ np.concatenate([powers, left])
    num /= plus
    return SpectralFunction(grid, num)


@dataclass(frozen=True)
class RoundtripReport(SolveReport):
    """The solve's report, with the ``recovered`` traces and ``rel_error``,
    their worst component-wise relative trace-norm error."""

    recovered: TraceVector
    rel_error: float


def manufactured_roundtrip(spec: ProblemSpec, planted: TraceVector,
                           grid: FrequencyGrid) -> RoundtripReport:
    """Plant traces, synthesize boundary data from them, solve, compare.

    The data are synthesized as one trace vector on the planted vector's
    grid, so the recovered traces come back on it too.  The planted traces
    are projected onto the gauge complement as one stacked vector (this
    does not change the spectrum they reconstruct), so that the comparison
    against the solver's minimum-norm representative is well posed.  The
    relative error is the worst row-wise trace-norm error, each row
    measured with its own exponent.
    """
    u_hat = reconstruct_solution(planted, spec.factorization, grid)
    edges = ((spec.bottom_ops, SIDE_BOTTOM), (spec.left_ops, SIDE_LEFT))
    data = TraceVector(planted.grid, [boundary_trace_spectrum(op, u_hat, side).values
                                      for ops, side in edges for op in ops])
    # the planted spectrum is not needed past its boundary data
    del u_hat
    system = assemble(spec, grid)
    recovered, report = solve_block_system(system, data)

    gauged = project_out_gauge(system, planted.values.ravel()).reshape(planted.values.shape)
    worst = 0.0
    # bottom rows, then left ones, each with its own exponent
    for got, want, s_k in zip(recovered.values, gauged, spec.trace_exponents * 2):
        scale = sobolev_norm_1d(SpectralFunction(planted.grid, want), s_k)
        err = sobolev_norm_1d(SpectralFunction(planted.grid, got - want), s_k)
        worst = max(worst, err / scale if scale > 0 else err)
    return RoundtripReport(**vars(report), recovered=recovered, rel_error=worst)


def zeta_boundary_operators(n: int, h: float) -> tuple[tuple[PeriodicSymbol, ...],
                                                       tuple[PeriodicSymbol, ...]]:
    """Difference-power trace operators: the bottom operator of index j has
    symbol ``zeta(xi2)^(j+1)``, the left one ``zeta(xi1)^(j+1)``.

    Well posed at n = 1; for n >= 2 together with one-sided factor families
    the conditions degenerate (the multiplier block becomes rank one), so
    prefer :func:`row_trace_boundary_operators` there.
    """
    bottom = tuple(PeriodicSymbol(lambda x1, x2, _k=k: zeta(x2, h) ** _k, float(k), h)
                   for k in range(1, n + 1))
    left = tuple(PeriodicSymbol(lambda x1, x2, _k=k: zeta(x1, h) ** _k, float(k), h)
                 for k in range(1, n + 1))
    return bottom, left


def row_trace_boundary_operators(n: int, h: float) -> tuple[tuple[PeriodicSymbol, ...],
                                                            tuple[PeriodicSymbol, ...]]:
    """Trace operators reading the first n lattice rows and columns.

    The j-th bottom operator has the unimodular symbol ``exp(-i j h xi2)``;
    its datum is (up to one period factor) the partial transform of the
    lattice row at height ``j h``.  This is the discrete Cauchy-data choice
    and gives independent conditions for every n.
    """
    bottom = tuple(PeriodicSymbol(lambda x1, x2, _j=j: np.exp(-1j * _j * h * np.asarray(x2)),
                                  0.0, h) for j in range(n))
    left = tuple(PeriodicSymbol(lambda x1, x2, _j=j: np.exp(-1j * _j * h * np.asarray(x1)),
                                0.0, h) for j in range(n))
    return bottom, left


@dataclass(frozen=True)
class GaussianBumps:
    """Sum of a few Gaussians; smooth, rapidly decaying trace data."""

    amplitudes: tuple[complex, ...]
    centers: tuple[float, ...]
    widths: tuple[float, ...]

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        for a, c, w in zip(self.amplitudes, self.centers, self.widths):
            out += a * np.exp(-((xi - c) ** 2) / (2.0 * w ** 2))
        return out


# bumps per random trace function
_BUMPS = 3


def random_bumps(rng: np.random.Generator, half_width: float) -> GaussianBumps:
    """Seeded random bump parameters with centers well inside the window."""
    amps = tuple(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(_BUMPS))
    centers = tuple(rng.uniform(-0.75, 0.75) * half_width for _ in range(_BUMPS))
    widths = tuple(rng.uniform(0.08, 0.25) * half_width for _ in range(_BUMPS))
    return GaussianBumps(amps, centers, widths)


def random_trace_vector(rng: np.random.Generator, grid: FrequencyGrid,
                        n: int) -> TraceVector:
    """Seeded random trace vector of smooth bumps on a 1D grid, their centers
    within three quarters of the torus half-width: one bump set per row,
    drawn in row order, the n bottom rows first."""
    nodes = grid.axis_nodes
    return TraceVector(grid, [random_bumps(rng, grid.half_width)(nodes) for _ in range(2 * n)])
