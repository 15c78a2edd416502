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
rule on the same midpoint grid that carries the unknowns, and solved
densely.

The continuous counterpart replaces ``zeta(xi)^k`` by ``(i xi)^k`` and the
torus by the full frequency line, truncated to a symmetric segment.

The trace representation is not unique: adding the m-th transverse power to
a bottom trace and subtracting the matching k-th power from a left trace
leaves the reconstructed spectrum unchanged, so the block system carries an
``n^2``-dimensional structural null space regardless of the symbols.  The
solver deflates these known gauge directions and returns the minimum-norm
representative; see :func:`structural_null_basis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import AssemblyError, NearSingularError
from .lattice import (FrequencyGrid, LineGrid, SpectralFunction,
                      sobolev_norm_1d, zeta)
from .operators import (SIDE_BOTTOM, SIDE_LEFT, BoundaryOperatorSpec,
                        boundary_trace_spectrum)
from .symbols import PeriodicSymbol, WaveFactorization

__all__ = [
    "ProblemSpec",
    "ContinuousProblem",
    "BlockSystem",
    "TraceVector",
    "SolveReport",
    "RoundtripReport",
    "GaussianBumps",
    "assemble_discrete_system",
    "assemble_continuous_system",
    "solve_block_system",
    "structural_null_basis",
    "project_out_gauge",
    "reconstruct_solution",
    "manufactured_roundtrip",
    "identity_boundary_operators",
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


def _check_index_split(index: float, s: float, n: int, delta: float) -> None:
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not abs(delta) < 0.5:
        raise ValueError(f"delta must satisfy |delta| < 1/2, got {delta}")
    if not math.isclose(index - s, n + delta, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(
            f"index - s = {index - s} must equal n + delta = {n + delta}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full statement of a discrete quadrant problem.

    ``bottom_ops`` act on the x2 = 0 edge (data are functions of xi1),
    ``left_ops`` on the x1 = 0 edge.  Data may be omitted for manufactured
    runs; when present, each component must have a finite trace norm with
    exponent ``s - order - 1/2``.
    """

    s: float
    factorization: WaveFactorization
    n: int
    delta: float
    bottom_ops: tuple[BoundaryOperatorSpec, ...]
    left_ops: tuple[BoundaryOperatorSpec, ...]
    bottom_data: tuple[SpectralFunction, ...] | None = None
    left_data: tuple[SpectralFunction, ...] | None = None

    def __post_init__(self) -> None:
        _check_index_split(self.factorization.index, self.s, self.n, self.delta)
        if len(self.bottom_ops) != self.n or len(self.left_ops) != self.n:
            raise ValueError(
                f"need n = {self.n} boundary operators per edge, got "
                f"{len(self.bottom_ops)} bottom and {len(self.left_ops)} left")
        for op in self.bottom_ops:
            if op.side != SIDE_BOTTOM:
                raise ValueError("bottom_ops must have side 'bottom'")
        for op in self.left_ops:
            if op.side != SIDE_LEFT:
                raise ValueError("left_ops must have side 'left'")
        for data, ops, name in ((self.bottom_data, self.bottom_ops, "bottom"),
                                (self.left_data, self.left_ops, "left")):
            if data is None:
                continue
            if len(data) != self.n:
                raise ValueError(f"{name}_data must have n = {self.n} components")
            for j, (f, op) in enumerate(zip(data, ops)):
                norm = sobolev_norm_1d(f, self.s - op.order - 0.5)
                if not math.isfinite(norm):
                    raise ValueError(
                        f"{name} data component {j} has non-finite trace norm")

    @property
    def trace_exponents(self) -> tuple[float, ...]:
        return trace_exponents(self.s, self.factorization.index, self.n)


@dataclass(frozen=True, eq=False)
class ContinuousProblem:
    """Continuous counterpart: symbols on the frequency plane, truncated line.

    Symbol evaluators take ``(xi1, xi2)`` arrays.  Orders are declared, and
    the growth sandwich is checked by sampling where tests need it.
    """

    s: float
    n: int
    delta: float
    plus_factor: Callable[..., np.ndarray]
    index: float
    bottom_symbols: tuple[Callable[..., np.ndarray], ...]
    left_symbols: tuple[Callable[..., np.ndarray], ...]
    bottom_orders: tuple[float, ...]
    left_orders: tuple[float, ...]
    bottom_data: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None
    left_data: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __post_init__(self) -> None:
        _check_index_split(self.index, self.s, self.n, self.delta)
        for seq, name in ((self.bottom_symbols, "bottom_symbols"),
                          (self.left_symbols, "left_symbols"),
                          (self.bottom_orders, "bottom_orders"),
                          (self.left_orders, "left_orders")):
            if len(seq) != self.n:
                raise ValueError(f"{name} must have n = {self.n} entries")

    @property
    def trace_exponents(self) -> tuple[float, ...]:
        return trace_exponents(self.s, self.index, self.n)


def radial_power_problem(s: float, n: int, delta: float,
                         bottom_orders: Sequence[float],
                         left_orders: Sequence[float]) -> ContinuousProblem:
    """Built-in continuous test family with radial power symbols.

    Plus factor ``(1 + |xi|^2)^(index/2)`` with ``index = s + n + delta``,
    boundary symbols ``(1 + |xi|^2)^(order/2)``.  All satisfy the growth
    sandwich with constants independent of any mesh.
    """
    index = s + n + delta

    def radial(order: float) -> Callable[..., np.ndarray]:
        def ev(x1, x2, _o=order):
            return (1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2) ** (_o / 2.0)
        return ev

    return ContinuousProblem(
        s=s, n=n, delta=delta,
        plus_factor=radial(index), index=index,
        bottom_symbols=tuple(radial(b) for b in bottom_orders),
        left_symbols=tuple(radial(g) for g in left_orders),
        bottom_orders=tuple(float(b) for b in bottom_orders),
        left_orders=tuple(float(g) for g in left_orders),
    )


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """Nystrom discretization of the reduced block system.

    Blocks are operator matrices acting on node-value vectors (quadrature
    weights already folded into the integral blocks):

    * ``bottom_mult[j, k]``   diagonal values multiplying the bottom traces
      in the bottom equations,
    * ``bottom_kernel[j, k]`` matrix applying the left traces in the bottom
      equations,
    * ``left_kernel[j, k]``   matrix applying the bottom traces in the left
      equations,
    * ``left_mult[j, k]``     diagonal values multiplying the left traces.
    """

    n: int
    nodes: np.ndarray
    weight: float
    h: float | None
    bottom_mult: np.ndarray    # (n, n, N)
    bottom_kernel: np.ndarray  # (n, n, N, N)
    left_kernel: np.ndarray    # (n, n, N, N)
    left_mult: np.ndarray      # (n, n, N)
    rhs_bottom: np.ndarray     # (n, N)
    rhs_left: np.ndarray       # (n, N)

    def __post_init__(self) -> None:
        for name in ("bottom_mult", "bottom_kernel", "left_kernel",
                     "left_mult", "rhs_bottom", "rhs_left"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr.view(float))):
                raise AssemblyError(f"non-finite entries in block {name}")

    @property
    def size(self) -> int:
        return 2 * self.n * len(self.nodes)

    def full_matrix(self) -> np.ndarray:
        n, N = self.n, len(self.nodes)
        a = np.zeros((2 * n * N, 2 * n * N), dtype=complex)
        idx = np.arange(N)
        for j in range(n):
            rb = j * N            # bottom equation rows
            rl = (n + j) * N      # left equation rows
            for k in range(n):
                cb = k * N        # bottom trace columns
                cl = (n + k) * N  # left trace columns
                a[rb + idx, cb + idx] = self.bottom_mult[j, k]
                a[rb:rb + N, cl:cl + N] = self.bottom_kernel[j, k]
                a[rl:rl + N, cb:cb + N] = self.left_kernel[j, k]
                a[rl + idx, cl + idx] = self.left_mult[j, k]
        return a

    def full_rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_bottom.reshape(-1), self.rhs_left.reshape(-1)])

    def trace_grid(self) -> FrequencyGrid | LineGrid:
        if self.h is not None:
            return FrequencyGrid(self.h, len(self.nodes), ndim=1)
        return LineGrid(float(-self.nodes[0] + 0.5 * self.weight), len(self.nodes))


@dataclass(frozen=True, eq=False)
class TraceVector:
    """The unknowns of the block system: n bottom and n left trace functions."""

    bottom: tuple[SpectralFunction, ...]
    left: tuple[SpectralFunction, ...]

    def __post_init__(self) -> None:
        if len(self.bottom) != len(self.left):
            raise ValueError("bottom and left trace counts differ")

    @property
    def n(self) -> int:
        return len(self.bottom)


def _plus_values(fac, x1: np.ndarray, x2: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Evaluate an inverse-safe plus factor on the mesh, flagging zeros."""
    plus = fac.plus_factor if isinstance(fac, WaveFactorization) else fac
    vals = np.asarray(plus(x1, x2), dtype=complex)
    mags = np.abs(vals)
    if np.min(mags) < 1e-300 or not np.all(np.isfinite(mags)):
        i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise AssemblyError(
            f"plus factor vanishes at node (xi1={nodes[i]:.6g}, xi2={nodes[j]:.6g})")
    return vals


def _assemble(n: int, nodes: np.ndarray, weight: float, h: float | None,
              plus_factor, bottom_symbols, left_symbols,
              rhs_bottom: np.ndarray, rhs_left: np.ndarray) -> BlockSystem:
    """Shared assembly core; ``h`` selects difference powers (set) or
    ``(i xi)`` powers (None)."""
    N = len(nodes)
    x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
    inv_plus = 1.0 / _plus_values(plus_factor, x1, x2, nodes)
    powers = zeta(nodes, h) if h is not None else 1j * nodes

    bottom_mult = np.empty((n, n, N), dtype=complex)
    bottom_kernel = np.empty((n, n, N, N), dtype=complex)
    left_kernel = np.empty((n, n, N, N), dtype=complex)
    left_mult = np.empty((n, n, N), dtype=complex)

    for j in range(n):
        core_b = np.asarray(bottom_symbols[j](x1, x2), dtype=complex) * inv_plus
        core_l = np.asarray(left_symbols[j](x1, x2), dtype=complex) * inv_plus
        for k in range(n):
            pk = powers ** k
            # bottom equations: collocated in xi1 (rows), integrate over xi2
            bottom_mult[j, k] = (core_b * pk[None, :]).sum(axis=1) * weight
            bottom_kernel[j, k] = core_b * pk[:, None] * weight
            # left equations: collocated in xi2, integrate over xi1; the
            # kernel matrix is transposed so rows index the output axis
            left_kernel[j, k] = (core_l * pk[None, :]).T * weight
            left_mult[j, k] = (core_l * pk[:, None]).sum(axis=0) * weight

    return BlockSystem(n=n, nodes=nodes, weight=weight, h=h,
                       bottom_mult=bottom_mult, bottom_kernel=bottom_kernel,
                       left_kernel=left_kernel, left_mult=left_mult,
                       rhs_bottom=rhs_bottom, rhs_left=rhs_left)


def assemble_discrete_system(spec: ProblemSpec, grid: FrequencyGrid) -> BlockSystem:
    """Assemble the lattice block system on the grid's midpoint nodes."""
    if spec.factorization.h is None or not grid.matches_mesh(spec.factorization.h):
        raise ValueError("factorization mesh does not match the grid")
    for op in spec.bottom_ops + spec.left_ops:
        if not grid.matches_mesh(op.symbol.h):
            raise ValueError(
                f"boundary symbol mesh {op.symbol.h} does not match grid mesh {grid.h}")
    N = grid.nodes_per_axis
    nodes = grid.axis_nodes

    def data_rows(data):
        if data is None:
            return np.zeros((spec.n, N), dtype=complex)
        for f in data:
            if f.grid.ndim != 1 or len(f.values) != N:
                raise ValueError("boundary data must live on the grid's 1D node set")
        return np.stack([f.values for f in data])

    return _assemble(
        n=spec.n, nodes=nodes, weight=grid.axis_weight, h=grid.h,
        plus_factor=spec.factorization,
        bottom_symbols=[op.symbol for op in spec.bottom_ops],
        left_symbols=[op.symbol for op in spec.left_ops],
        rhs_bottom=data_rows(spec.bottom_data),
        rhs_left=data_rows(spec.left_data))


def assemble_continuous_system(problem: ContinuousProblem, grid: LineGrid) -> BlockSystem:
    """Assemble the continuous block system on a truncated frequency line.

    The truncation must be wide enough for the negative trace exponents to
    tame the tails; the half width is the caller's choice.
    """
    N = grid.nodes_count
    nodes = grid.axis_nodes

    def data_rows(data):
        if data is None:
            return np.zeros((problem.n, N), dtype=complex)
        return np.stack([np.asarray(f(nodes), dtype=complex) for f in data])

    return _assemble(
        n=problem.n, nodes=nodes, weight=grid.axis_weight, h=None,
        plus_factor=problem.plus_factor,
        bottom_symbols=problem.bottom_symbols,
        left_symbols=problem.left_symbols,
        rhs_bottom=data_rows(problem.bottom_data),
        rhs_left=data_rows(problem.left_data))


def structural_null_basis(system: BlockSystem) -> np.ndarray:
    """Exact gauge directions of the block system, one column per pair
    ``(k, m)``: the bottom trace k carries the m-th transverse power and the
    left trace m compensates with the negated k-th power.

    These vectors annihilate the assembled matrix for any symbols, because
    both sides sample the same kernel products.
    """
    n, nodes = system.n, system.nodes
    N = len(nodes)
    powers = zeta(nodes, system.h) if system.h is not None else 1j * nodes
    cols = []
    for k in range(n):
        for m in range(n):
            z = np.zeros(2 * n * N, dtype=complex)
            z[k * N:(k + 1) * N] = powers ** m
            z[(n + m) * N:(n + m + 1) * N] = -(powers ** k)
            cols.append(z)
    return np.stack(cols, axis=1)


def _gauge_basis(system: BlockSystem) -> np.ndarray:
    """Orthonormal basis ``Q`` of the structural gauge directions."""
    q, _ = np.linalg.qr(structural_null_basis(system))
    return q


def project_out_gauge(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a stacked trace vector onto the complement
    of the structural gauge directions (the minimum-norm representative of
    its gauge orbit)."""
    q = _gauge_basis(system)
    return x - q @ (q.conj().T @ x)


# Randomized block Krylov estimate of a largest singular value (Halko,
# Martinsson & Tropp 2011, range finder with power steps; Musco & Musco
# 2015, Rayleigh-Ritz on the whole block Krylov space).  Fixed seed, so a
# rerun reports the same condition.
_ESTIMATE_BLOCK = 8
_ESTIMATE_POWER_STEPS = 4
_ESTIMATE_SEED = 0


def _sigma_max_estimate(m: np.ndarray) -> float:
    """Estimate of the largest singular value of a square matrix, from
    below; about 1% low at worst on the block systems' flat top spectra.

    The blocks are only rescaled between steps: the final QR spans the same
    Krylov space as orthonormalizing every step would.
    """
    rng = np.random.default_rng(_ESTIMATE_SEED)
    shape = (m.shape[1], _ESTIMATE_BLOCK)
    block = m @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    mh = m.conj().T
    blocks = [block / np.linalg.norm(block)]
    for _ in range(_ESTIMATE_POWER_STEPS):
        block = m @ (mh @ blocks[-1])
        blocks.append(block / np.linalg.norm(block))
    basis, _ = np.linalg.qr(np.hstack(blocks))
    projected = mh @ basis
    top = np.linalg.eigvalsh(projected.conj().T @ projected)[-1]
    return math.sqrt(max(float(top), 0.0))


@dataclass(frozen=True)
class SolveReport:
    """``condition`` estimates the deflated condition, the largest singular
    value over the smallest one outside the structural gauge space; it is
    ``sigma_max(A) * sigma_max(P)`` with ``P`` the bordered inverse, which
    lands within a few percent of the singular-value ratio.  ``residual``
    is ``|b - A x| / |b|``; for data outside the range of ``A`` it measures
    the incompatible part.  ``gauge_dim`` is the number of deflated
    directions."""

    condition: float
    residual: float
    gauge_dim: int


def solve_block_system(system: BlockSystem) -> tuple[TraceVector, SolveReport]:
    """Dense minimum-norm solve of the Nystrom system.

    With ``Q`` an orthonormal basis of the structural gauge directions, the
    bordered matrix ``B = [[A, Q], [Q^H, 0]]`` is inverted once and
    ``x = P b`` with ``P = (B^-1)[:m, :m]``, followed by one refinement
    step.  For data in the range of ``A`` this is the unique solution
    orthogonal to the gauge directions.  Raises :class:`NearSingularError`
    when ``B`` is singular or the condition estimate exceeds
    ``CONDITION_LIMIT`` (read: the system is not uniquely solvable even
    modulo gauge).
    """
    a = system.full_matrix()
    rhs = system.full_rhs()
    size = system.size
    q = _gauge_basis(system)
    bordered = np.zeros((size + q.shape[1],) * 2, dtype=complex)
    bordered[:size, :size] = a
    bordered[:size, size:] = q
    bordered[size:, :size] = q.conj().T
    try:
        p = np.linalg.inv(bordered)[:size, :size]
    except np.linalg.LinAlgError:  # B singular: rank loss beyond the gauge
        p = None
    cond = (_sigma_max_estimate(a) * _sigma_max_estimate(p)
            if p is not None and np.isfinite(p).all() else math.inf)
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NearSingularError(
            f"deflated condition estimate {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; system not uniquely solvable", condition=cond)

    x = p @ rhs
    # one refinement step keeps the residual at rounding level
    x = x + p @ (rhs - a @ x)
    rhs_norm = float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(rhs - a @ x))
    residual = res / rhs_norm if rhs_norm > 0 else res

    N = len(system.nodes)
    grid = system.trace_grid()
    parts = x.reshape(2 * system.n, N)
    traces = TraceVector(
        bottom=tuple(SpectralFunction(grid, parts[k]) for k in range(system.n)),
        left=tuple(SpectralFunction(grid, parts[system.n + k]) for k in range(system.n)))
    return traces, SolveReport(condition=cond, residual=residual,
                               gauge_dim=system.n ** 2)


def reconstruct_solution(traces: TraceVector, fac, grid: FrequencyGrid,
                         continuous: bool = False) -> SpectralFunction:
    """Build the two-axis spectrum from trace functions and the plus factor.

    With ``continuous=True`` the powers are ``(i xi)^k`` instead of the
    difference-symbol powers; the grid then only supplies the node set.
    """
    if grid.ndim != 2:
        raise ValueError("reconstruct_solution requires a 2D grid")
    nodes = grid.axis_nodes
    x1, x2 = grid.nodes_2d()
    powers = (1j * nodes) if continuous else zeta(nodes, grid.h)
    plus = _plus_values(fac, x1, x2, nodes)
    num = np.zeros_like(plus)
    for k in range(traces.n):
        num += traces.bottom[k].values[:, None] * powers[None, :] ** k
        num += traces.left[k].values[None, :] * powers[:, None] ** k
    return SpectralFunction(grid, num / plus)


@dataclass(frozen=True)
class RoundtripReport:
    recovered: TraceVector
    rel_error: float
    condition: float
    residual: float


def manufactured_roundtrip(spec: ProblemSpec, planted: TraceVector,
                           grid: FrequencyGrid) -> RoundtripReport:
    """Plant traces, synthesize boundary data from them, solve, compare.

    The planted traces are first projected onto the gauge complement (this
    does not change the spectrum they reconstruct), so that the comparison
    against the solver's minimum-norm representative is well posed.  The
    relative error is the worst component-wise trace-norm error, each
    component measured with its own exponent.
    """
    u_hat = reconstruct_solution(planted, spec.factorization, grid)
    data_bottom = tuple(boundary_trace_spectrum(op, u_hat) for op in spec.bottom_ops)
    data_left = tuple(boundary_trace_spectrum(op, u_hat) for op in spec.left_ops)
    spec_with_data = replace(spec, bottom_data=data_bottom, left_data=data_left)
    system = assemble_discrete_system(spec_with_data, grid)
    recovered, report = solve_block_system(system)

    N = grid.nodes_per_axis
    stacked = np.concatenate([f.values for f in planted.bottom + planted.left])
    gauged = project_out_gauge(system, stacked).reshape(2 * spec.n, N)

    exps = spec.trace_exponents
    grid1 = recovered.bottom[0].grid
    worst = 0.0
    for got, want, s_k in [(recovered.bottom[k], gauged[k], exps[k])
                           for k in range(spec.n)] + \
                          [(recovered.left[k], gauged[spec.n + k], exps[k])
                           for k in range(spec.n)]:
        diff = SpectralFunction(grid1, got.values - want)
        scale = sobolev_norm_1d(SpectralFunction(grid1, want), s_k)
        err = sobolev_norm_1d(diff, s_k)
        worst = max(worst, err / scale if scale > 0 else err)
    return RoundtripReport(recovered=recovered, rel_error=worst,
                           condition=report.condition, residual=report.residual)


def identity_boundary_operators(n: int, h: float) -> tuple[tuple[BoundaryOperatorSpec, ...],
                                                           tuple[BoundaryOperatorSpec, ...]]:
    """Order-zero boundary operators (symbol one) on both edges.

    Note: for n >= 2 the rows repeat and the system is singular by
    construction; use the difference-power family there.
    """
    one = PeriodicSymbol(lambda x1, x2: np.ones(np.broadcast(x1, x2).shape), 0.0, h)
    bottom = tuple(BoundaryOperatorSpec(SIDE_BOTTOM, one, 0.0) for _ in range(n))
    left = tuple(BoundaryOperatorSpec(SIDE_LEFT, one, 0.0) for _ in range(n))
    return bottom, left


def zeta_boundary_operators(n: int, h: float) -> tuple[tuple[BoundaryOperatorSpec, ...],
                                                       tuple[BoundaryOperatorSpec, ...]]:
    """Difference-power trace operators: the bottom operator of index j has
    symbol ``zeta(xi2)^(j+1)``, the left one ``zeta(xi1)^(j+1)``.

    Well posed at n = 1; for n >= 2 together with one-sided factor families
    the conditions degenerate (the multiplier block becomes rank one), so
    prefer :func:`row_trace_boundary_operators` there.
    """
    bottom = []
    left = []
    for j in range(n):
        k = j + 1
        sb = PeriodicSymbol(lambda x1, x2, _k=k, _h=h: zeta(x2, _h) ** _k, float(k), h)
        sl = PeriodicSymbol(lambda x1, x2, _k=k, _h=h: zeta(x1, _h) ** _k, float(k), h)
        bottom.append(BoundaryOperatorSpec(SIDE_BOTTOM, sb, float(k)))
        left.append(BoundaryOperatorSpec(SIDE_LEFT, sl, float(k)))
    return tuple(bottom), tuple(left)


def row_trace_boundary_operators(n: int, h: float) -> tuple[tuple[BoundaryOperatorSpec, ...],
                                                            tuple[BoundaryOperatorSpec, ...]]:
    """Trace operators reading the first n lattice rows and columns.

    The j-th bottom operator has the unimodular symbol ``exp(-i j h xi2)``;
    its datum is (up to one period factor) the partial transform of the
    lattice row at height ``j h``.  This is the discrete Cauchy-data choice
    and gives independent conditions for every n.
    """
    bottom = []
    left = []
    for j in range(n):
        sb = PeriodicSymbol(lambda x1, x2, _j=j, _h=h: np.exp(-1j * _j * _h * np.asarray(x2))
                            * np.ones(np.broadcast(x1, x2).shape), 0.0, h)
        sl = PeriodicSymbol(lambda x1, x2, _j=j, _h=h: np.exp(-1j * _j * _h * np.asarray(x1))
                            * np.ones(np.broadcast(x1, x2).shape), 0.0, h)
        bottom.append(BoundaryOperatorSpec(SIDE_BOTTOM, sb, 0.0))
        left.append(BoundaryOperatorSpec(SIDE_LEFT, sl, 0.0))
    return tuple(bottom), tuple(left)


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


def random_bumps(rng: np.random.Generator, half_width: float,
                 count: int = 3) -> GaussianBumps:
    """Seeded random bump parameters with centers well inside the window."""
    amps = tuple(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(count))
    centers = tuple(rng.uniform(-0.75, 0.75) * half_width for _ in range(count))
    widths = tuple(rng.uniform(0.08, 0.25) * half_width for _ in range(count))
    return GaussianBumps(amps, centers, widths)


def random_trace_vector(rng: np.random.Generator, grid: FrequencyGrid, n: int,
                        half_width: float | None = None) -> TraceVector:
    """Seeded random trace vector of smooth bumps on the grid's 1D node set.

    ``half_width`` bounds the bump centers; pass the smallest window of a
    mesh sweep to keep the same bumps representable across the sweep.
    """
    if grid.ndim != 1:
        raise ValueError("random_trace_vector requires a 1D grid")
    hw = half_width if half_width is not None else grid.half_width
    nodes = grid.axis_nodes
    return TraceVector(
        bottom=tuple(SpectralFunction(grid, random_bumps(rng, hw)(nodes))
                     for _ in range(n)),
        left=tuple(SpectralFunction(grid, random_bumps(rng, hw)(nodes))
                   for _ in range(n)))
