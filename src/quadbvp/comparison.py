"""Quantitative comparison of the lattice and continuous reductions.

Three empirical measurements back the discrete-to-continuous passage:

* the pointwise gap between ``(i xi)^k`` and the difference-symbol power
  ``zeta^k``, with its explicit first-order bound;
* the gaps between the four continuous kernel families and their lattice
  counterparts, normalized by the predicted ``h`` rate and growth weight;
* operator-level rates: the commutator of the continuous block operator
  with the window restriction, and the gap between the restricted
  continuous operator and the lattice operator on the same window, both
  measured in weighted trace norms and fitted against the mesh size.

Operator norms are taken on finite Nystrom discretizations, which
understates the true norms; slopes, not absolute constants, are the
verifiable content.  The weighted frames use ``(1 + xi^2)^s_k`` on the
truncated line and ``(1 + |zeta|^2)^s_k`` on the torus window, and the
direct-sum norm adds block norms, so the operator norm of a block matrix is
the largest column sum of per-block spectral norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, NormEstimateError
from .lattice import LineGrid, _open_mesh, _power_base, _trace_weight, zeta
from .system import ContinuousProblem, _assemble, _kernel_strips, _products

__all__ = [
    "PowerGap",
    "RateReport",
    "WeightedOperatorFrame",
    "zeta_power_gap",
    "kernel_gap_ratios",
    "estimate_operator_norm",
    "commutator_rate_sweep",
    "section_gap_rate_sweep",
    "fit_rate",
    "check_sweep",
    "check_window_nodes",
    "check_lambda_factor",
    "check_aligned_sweep",
    "check_rate_sweep",
    "aligned_line_grid",
    "window_mask",
]


@dataclass(frozen=True)
class PowerGap:
    """Pointwise gap ``|(i xi)^k - zeta^k|`` and its proof-chain bound."""

    gap: np.ndarray
    bound: np.ndarray


def zeta_power_gap(xi, k: int, h: float) -> PowerGap:
    """Gap between the k-th powers of ``i xi`` and ``zeta(xi, h)``.

    The bound ``k e^(k pi) h |xi|^(k+1)`` assembles the chain
    ``|zeta - i xi| <= e^pi h xi^2`` and ``|zeta| <= e^pi |xi|``, both valid
    for ``|xi| <= pi / h``.  A bound that overflows would pass any check, so
    it raises :class:`InvalidConfigurationError` naming ``k`` and ``h``.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"power k must be a positive integer, got {k}")
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            bound = k * math.exp(k * math.pi) * h * np.abs(xi) ** (k + 1)
        except OverflowError:  # from math.exp
            bound = None
    if bound is None or not np.all(np.isfinite(bound)):
        raise InvalidConfigurationError(f"the first-order bound overflows at k = {k}, h = {h:g}")
    gap = np.abs((1j * xi) ** k - zeta(xi, h) ** k)
    return PowerGap(gap=gap, bound=bound)


# a fitted slope needs at least this many mesh sizes
FIT_MIN_SIZES = 3


def check_sweep(h_values, minimum: int = 1) -> tuple[float, ...]:
    """The mesh sizes of a sweep as floats, checked: each positive and
    finite, strictly decreasing, and at least ``max(minimum, 1)`` of them.
    The one rule for ``h_values``, in the library and in the CLI."""
    hs = tuple(float(v) for v in h_values)
    if not all(0.0 < h < math.inf for h in hs):
        raise InvalidConfigurationError(f"h_values must be positive and finite, got {hs}")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise InvalidConfigurationError("h_values must be strictly decreasing")
    if len(hs) < max(minimum, 1):
        raise InvalidConfigurationError(
            f"h_values needs at least {max(minimum, 1)} mesh sizes, got {len(hs)}")
    return hs


def check_window_nodes(nodes_per_window: int) -> int:
    """The node count of the coarsest window, checked: a positive even
    integer.  The one rule for ``nodes_per_window``."""
    if not (nodes_per_window > 0 and nodes_per_window % 2 == 0):
        raise InvalidConfigurationError(
            f"nodes_per_window must be a positive even integer, got {nodes_per_window}")
    return nodes_per_window


def check_lambda_factor(lambda_factor: float) -> float:
    """The truncation of the line in units of the widest window, checked:
    finite and at least 1, so the line holds every window.  The one rule
    for ``lambda_factor``."""
    if not 1.0 <= lambda_factor < math.inf:
        raise InvalidConfigurationError(
            f"lambda_factor must be finite and >= 1, got {lambda_factor}")
    return lambda_factor


def check_aligned_sweep(h_values, nodes_per_window: int) -> None:
    """Reject a sweep whose torus windows are not whole midpoint grids.

    On :func:`aligned_line_grid`'s grid the window of ``h`` spans ``max(h) /
    h * nodes_per_window / 2`` cells on each side of 0.  Only when that is
    an integer, to rounding, are the window's nodes the midpoint grid of its
    torus, on which the lattice operator is a Nystrom rule; every halving
    sweep is aligned, and so is every one-size sweep.
    """
    for h in h_values:
        cells = max(h_values) / h * nodes_per_window / 2
        if not math.isclose(cells, round(cells), rel_tol=1e-9):
            raise InvalidConfigurationError(
                f"h_values are not aligned with nodes_per_window = {nodes_per_window}: "
                f"the window at h = {h:g} spans {cells:.4g} grid cells on each side "
                f"of 0, not a whole number (max(h) / h * nodes_per_window / 2)")


# the most nodes a line may hold: 1024 times the shipped sweeps' 1024, and
# a float array of them 8 MiB
LINE_NODES_MAX = 2 ** 20


def aligned_line_grid(h_values, nodes_per_window: int,
                      lambda_factor: float = 4.0) -> LineGrid:
    """Midpoint grid on ``[-lam, lam]``, ``lam = lambda_factor * pi / min(h)``,
    whose spacing is the coarsest window width over ``nodes_per_window``.

    The ``h_values``, ``nodes_per_window`` and ``lambda_factor`` are
    checked (:func:`check_sweep`, :func:`check_window_nodes`,
    :func:`check_lambda_factor`), and so is the line's cell count, which a
    finite factor can still overflow, and then its node count, at most
    ``LINE_NODES_MAX``; no node is allocated.  The cell edges
    are the multiples of the spacing, so a window's nodes form the exact
    midpoint grid of its torus when its edges ``+-pi/h`` are multiples too:
    when the sweep is aligned (:func:`check_aligned_sweep`), as every
    halving sweep is.
    """
    hs = check_sweep(h_values)
    delta = (2.0 * math.pi / max(hs)) / check_window_nodes(nodes_per_window)
    lam = check_lambda_factor(lambda_factor) * (math.pi / min(hs))
    cells = 2.0 * lam / delta
    if not cells < math.inf:
        raise InvalidConfigurationError(f"truncation half-width {lam:g} must be finite and "
                                        f"span a finite number of cells of width {delta:g}")
    count = int(math.ceil(cells))
    count += count % 2
    if count > LINE_NODES_MAX:
        raise InvalidConfigurationError(
            f"lambda_factor = {lambda_factor:g} makes a line of {count} nodes, more than "
            f"LINE_NODES_MAX = {LINE_NODES_MAX}")
    return LineGrid(half_width=count * delta / 2.0, nodes_count=count)


def window_mask(grid: LineGrid, h: float) -> np.ndarray:
    """Boolean indicator of the grid nodes strictly inside ``(-pi/h, pi/h)``.

    As a 0/1 diagonal this is the window restriction; it is idempotent by
    construction.
    """
    return np.abs(grid.axis_nodes) < math.pi / h


@dataclass(frozen=True, eq=False)
class WeightedOperatorFrame:
    """Block operator ``[[A, B], [C, D]]`` expressed in coordinates that make
    the weighted trace norms Euclidean.

    ``blocks`` is ``((A, B), (C, D))``; a quadrant is an ``(n, n, ...)``
    stack whose block ``(j, k)`` maps input k to output j, or ``None`` when
    it vanishes.  Its blocks are 1-D diagonals, 2-D dense blocks, or 3-D
    arrays of shape ``(2, r, c)``: the block ``[[0, X], [-Y^T, 0]]`` (in
    some ordering of its rows and columns) given by the pair ``(X, Y)``,
    whose largest singular value is ``max(sigma_max(X), sigma_max(Y))``.  A
    quadrant may be a strided view of a larger array, as the commutator's
    are, and real, its norms then taken in real arithmetic.  Entries already
    include the quadrature and weight scalings, so each block's contribution
    to the operator norm is its largest singular value, and the direct-sum
    convention makes the full norm the largest column sum of those values.
    """

    blocks: tuple[tuple[np.ndarray | None, ...], ...]


# power iteration on dense blocks: relative tolerance on the squared value
# and iteration budget
_POWER_TOL = 1e-8
_POWER_MAX_ITER = 10000


def _sigma_max(block: np.ndarray) -> float:
    """Largest singular value of a block: ``max|d|`` for a diagonal block
    given as its diagonal ``d``, the larger of its two slices' values for a
    3-D pair block, power iteration on the normal matrix for a dense one.

    The iteration starts from the deterministic all-ones vector.  A block
    whose rows each sum to zero annihilates it; such a block, unless it is
    zero, is iterated again from the conjugate of its largest-norm row
    ``r``, whose image ``B v`` holds ``|r|`` and so does not vanish, nor
    does ``B^H B v``.  Only then is the block scanned for a nonzero entry.
    A start that is orthogonal to the top right singular vector without
    being annihilated still converges to a lower value: ``[[3, -3], [1,
    1]]`` gives ``sqrt(2)``, not ``3 sqrt(2)``.
    """
    b = np.asarray(block)
    if b.size == 0:
        return 0.0
    if b.ndim == 1:
        return float(np.max(np.abs(b)))
    if b.ndim == 3:
        return max(_sigma_max(part) for part in b)
    v = np.ones(b.shape[1], dtype=np.result_type(b, float))
    value = _power_iteration(b, v / np.linalg.norm(v))
    if value == 0.0 and np.any(b):
        # rows scaled to a largest entry of one, so no row norm underflows
        scaled = b / np.max(np.abs(b))
        row = scaled[np.argmax(np.linalg.norm(scaled, axis=1))].conj()
        value = _power_iteration(b, row / np.linalg.norm(row))
    return value


def _power_iteration(b: np.ndarray, v: np.ndarray) -> float:
    """The square root of the largest eigenvalue of ``b^H b`` by power
    iteration from the unit vector ``v``; 0.0 when an image ``b^H b v`` is
    zero."""
    lam_prev = None
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        # b^H b v as ((b v)^H b)^H: vector products only, no adjoint copy
        w = ((b @ v).conj() @ b).conj()
        lam = float(np.real(np.vdot(v, w)))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if lam_prev is not None and abs(lam - lam_prev) <= _POWER_TOL * max(abs(lam), 1e-300):
            return math.sqrt(max(lam, 0.0))
        lam_prev = lam
    raise NormEstimateError(
        f"power iteration did not converge in {_POWER_MAX_ITER} iterations "
        f"(last value {lam:.6e})", iterations=_POWER_MAX_ITER)


def estimate_operator_norm(frame: WeightedOperatorFrame) -> float:
    """Operator norm of the frame under the sum-of-block-norms convention:
    the largest column sum of the ``(2n, 2n)`` table of block norms.  A
    quadrant that is not an ``(n, n, ...)`` stack raises ``ValueError``."""
    (a, b), (c, d) = frame.blocks
    n = next((len(q) for q in (a, b, c, d) if q is not None), 0)

    def norms(quadrant, name):
        if quadrant is None:
            return np.zeros((n, n))
        if np.ndim(quadrant) < 3 or np.shape(quadrant)[:2] != (n, n):
            raise ValueError(f"quadrant {name} of shape {np.shape(quadrant)} is not "
                             f"an ({n}, {n}, ...) stack of blocks")
        return np.array([[_sigma_max(block) for block in row] for row in quadrant])

    table = np.block([[norms(a, "A"), norms(b, "B")], [norms(c, "C"), norms(d, "D")]])
    return float(table.sum(axis=0).max(initial=0.0))


def fit_rate(h_values, norms) -> float | None:
    """Least-squares slope of ``log(norm)`` against ``log(h)`` over a sweep
    of at least ``FIT_MIN_SIZES`` (:func:`check_sweep`); None (a degenerate
    sweep) when a norm is not positive and finite."""
    hs = np.asarray(check_sweep(h_values, FIT_MIN_SIZES))
    ns = np.asarray(list(norms), dtype=float)
    if len(ns) != len(hs):
        raise ValueError(f"need one norm per mesh size, got {len(ns)} for {len(hs)}")
    if np.any(~np.isfinite(ns)) or np.any(ns <= 0.0):
        return None
    slope, _ = np.polyfit(np.log(hs), np.log(ns), 1)
    return float(slope)


@dataclass(frozen=True)
class RateReport:
    """Measured norms over a mesh sweep with the fitted decay rate.

    ``slope`` is None for a degenerate sweep (see :func:`fit_rate`);
    ``epsilon`` is the predicted exponent the slope is gated against;
    ``monotone_violations`` lists sweep indices whose norm exceeds the
    previous (coarser) one; ``window_nodes`` counts the grid nodes inside
    each torus window.
    """

    h_values: tuple[float, ...]
    norms: tuple[float, ...]
    slope: float | None
    epsilon: float | None
    monotone_violations: tuple[int, ...] = ()
    window_nodes: tuple[int, ...] = ()


# Each rate measurement's order hypotheses, ``s - order > gap`` on the
# bottom and on the left edge, and the name it reports them under.
_HYPOTHESES = {"commutator": ("commutator sweep", 1.0, 2.0),
               "section_gap": ("section gap sweep", 3.0, 3.0),
               "kernel_gap": ("kernel gap ratios", 2.0, 2.0)}


def check_rate_sweep(kind: str, problem: ContinuousProblem, h_values, nodes_per_window: int,
                     lambda_factor: float) -> tuple[tuple[float, ...], LineGrid]:
    """The opening checks of the rate measurement ``kind``, ``"commutator"``,
    ``"section_gap"`` or ``"kernel_gap"``, in the order it runs them: its
    order hypotheses, the mesh sizes (:func:`check_sweep`, at least
    ``FIT_MIN_SIZES`` for a fitted rate), the line grid
    (:func:`aligned_line_grid`) and, for the section gap, the alignment
    (:func:`check_aligned_sweep`).  Returns the sizes and the grid; as the
    grid allocates no nodes, the checks cost nothing to run before a run.
    """
    what, bottom_gap, left_gap = _HYPOTHESES[kind]
    for edge, orders, gap in (("bottom", problem.bottom_orders, bottom_gap),
                              ("left", problem.left_orders, left_gap)):
        for j, order in enumerate(orders):
            if not problem.s - order > gap:
                raise InvalidConfigurationError(f"{what} needs s - {edge} order > {gap}; violated "
                                                f"at j={j} (s={problem.s}, order={order})")
    hs = check_sweep(h_values, 1 if kind == "kernel_gap" else FIT_MIN_SIZES)
    grid = aligned_line_grid(hs, nodes_per_window, lambda_factor)
    if kind == "section_gap":
        check_aligned_sweep(hs, nodes_per_window)
    return hs, grid


def _report(hs: tuple[float, ...], norms, epsilon, grid: LineGrid) -> RateReport:
    ns = tuple(float(v) for v in norms)
    window_nodes = tuple(int(window_mask(grid, h).sum()) for h in hs)
    violations = tuple(i for i in range(1, len(ns)) if ns[i] > ns[i - 1])
    return RateReport(hs, ns, slope=fit_rate(hs, ns), epsilon=epsilon,
                      monotone_violations=violations, window_nodes=window_nodes)


def _run(mask: np.ndarray) -> slice:
    """The slice of a mask that is one contiguous run, as a window on
    sorted nodes is: a slice is a view where a mask gathers a copy."""
    at = np.flatnonzero(mask)
    return slice(at[0], at[-1] + 1)


def commutator_rate_sweep(problem: ContinuousProblem, h_values,
                          nodes_per_window: int = 32,
                          lambda_factor: float = 4.0) -> RateReport:
    """Decay rate of the commutator of the continuous block operator with
    the window restriction.

    The multiplier blocks commute with the restriction exactly, so only the
    integral blocks contribute.  The predicted exponent is
    ``min_j(s - bottom_order_j - 1, s - left_order_j - 1)``.

    A kernel block of the commutator is ``S o K`` with
    ``S_ab = chi_a - chi_b``; with the window nodes ``W`` listed first it is
    ``[[0, K[W, W^c]], [-K[W^c, W], 0]]``, so its norm is exactly the larger
    of the two rectangles' largest singular values.  Each kernel family is
    evaluated once, as a pair strip (:func:`_kernel_strips`) between the
    finest window ``W*``, in sorted order, and the line, listed from 0 out
    to ``+lam`` and then from ``-lam`` back to 0.  In that order the
    complement of every window is one run, ``a : N - a`` with ``a`` the
    window's count of positive nodes, so each frame block is a view of the
    strip, ``pair[j, k, :, inside, a:N - a]``: ``K[W, W^c]`` and ``K[W^c,
    W]^T`` as one ``(2, w, N - w)`` array.  The strips are weighted tile by
    tile as they are formed, and nothing is copied per window.  Both
    families' strips are the halves of one allocation, so a later sweep in
    the same process reuses their pages instead of faulting them in again
    (833 minor faults per run as two allocations, 0 as one).
    """
    h_values, grid = check_rate_sweep("commutator", problem, h_values, nodes_per_window,
                                      lambda_factor)
    nodes = grid.axis_nodes
    N = len(nodes)
    finest = window_mask(grid, min(h_values))
    # the line from 0 out to +lam, then from -lam back to 0
    line = np.roll(np.arange(N), N // 2)
    weights = np.array([_trace_weight(nodes, None, e) for e in problem.trace_exponents])
    scales = tuple(np.sqrt(weights[:, at]) for at in (finest, line))
    strips = _kernel_strips(problem, nodes[finest], nodes[line], grid.axis_weight, scales)

    def window_norm(h):
        win = window_mask(grid, h)
        # the window is symmetric: half its nodes are positive
        inside, a = _run(win[finest]), int(np.count_nonzero(win)) // 2
        # bottom equations take left traces and left equations bottom ones
        bottom, left = (pair[:, :, :, inside, a:N - a] for pair in strips)
        return estimate_operator_norm(WeightedOperatorFrame(((None, bottom), (left, None))))

    norms = [window_norm(h) for h in h_values]

    epsilon = min(min(problem.s - b - 1.0 for b in problem.bottom_orders),
                  min(problem.s - g - 1.0 for g in problem.left_orders))
    return _report(h_values, norms, epsilon, grid)


def _window_gaps(problem: ContinuousProblem, grid: LineGrid, h_values):
    """For each ``h``, the gap between the window-restricted continuous
    operator and the lattice operator on the same window nodes, continuous
    minus lattice, unweighted, as ``(wnodes, mults, cores, moduli)``: the
    multiplier gaps of both families, ``(2, n, n, w)`` diagonals; views of
    the two families' ``(n, w, w)`` cores on the window; and the ``(w, n)``
    moduli ``|g_k|``, ``g_k = (i xi)^k - zeta^k`` at the window nodes.

    Both sides are sliced from one square strip on the finest window: on a
    window they sample the same cores ``symbol_j * weight / plus`` at the
    same nodes (the symbols' periodic continuation agrees there), and
    differ only in the powers, ``(i xi)^k`` against ``zeta^k``, and in the
    range of the multiplier sums, the whole truncated line against the
    window.  So kernel-gap block ``(j, k)`` is ``core_j * g_k`` at its
    outputs, zero at ``k = 0``, and a multiplier gap the strip's
    multiplier, its sum outside the finest window, plus the core's row
    against ``p^k`` on the rest of it and ``g_k`` on the window, in one
    product (:func:`_products`): at ``k = 0`` exactly the sum outside the
    window.  A kernel-gap block may be formed up to a row phase, as
    ``core_j * |g_k|[:, None]``, real for a real core: a diagonal of
    unit-modulus factors changes neither its singular values nor its
    entries' moduli, all that the sweeps read.
    """
    n = problem.n
    rows = _run(window_mask(grid, min(h_values)))
    strip = _assemble(n=n, nodes=grid.axis_nodes, weight=grid.axis_weight, h=None,
                      plus_factor=problem.plus_factor,
                      bottom_symbols=problem.bottom_symbols,
                      left_symbols=problem.left_symbols, rows=rows)
    cores, outside = (strip.bottom_core, strip.left_core), (strip.bottom_mult, strip.left_mult)
    powers = _power_base(grid.axis_nodes[rows], None)[:, None] ** np.arange(n)
    for h in h_values:
        win = window_mask(grid, h)
        out, wnodes = _run(win[rows]), grid.axis_nodes[win]
        # p^k on the finest window, (i xi)^k - zeta^k on this one
        gaps = powers.copy()
        gaps[out] -= _power_base(wnodes, float(h))[:, None] ** np.arange(n)
        mults = np.stack([mult[..., out] for mult in outside])
        for f, j in np.ndindex(2, n):
            mults[f, j] += _products(cores[f][j, out], gaps)
        yield wnodes, mults, tuple(core[:, out, out] for core in cores), np.abs(gaps[out])


def section_gap_rate_sweep(problem: ContinuousProblem, h_values,
                           nodes_per_window: int = 32,
                           lambda_factor: float = 4.0) -> RateReport:
    """Rate of the gap between the window-restricted continuous operator and
    the lattice operator on the same window nodes, predicted first order in
    ``h``, over an aligned sweep (:func:`check_aligned_sweep`), whose every
    window's lattice operator is the Nystrom rule of its torus.

    The pieces of :func:`_window_gaps` are weighed with the frame's torus
    weights: block ``(j, k)`` times ``sqrt(w_j)`` at its outputs, over
    ``sqrt(w_k)`` at its inputs.  Each kernel-gap block, ``k >= 1``, is
    formed in that order into one buffer of the finest window's size, and
    its norm taken before the next is formed; the frame holds the block as
    that norm alone, a one-entry diagonal, which the frame's norm reads
    alike.
    """
    h_values, grid = check_rate_sweep("section_gap", problem, h_values, nodes_per_window,
                                      lambda_factor)
    buffer, norms = None, []
    for h, (wnodes, mults, cores, moduli) in zip(h_values, _window_gaps(problem, grid, h_values)):
        scale = np.sqrt(np.array([_trace_weight(wnodes, h, e) for e in problem.trace_exponents]))
        mults *= scale[:, None]
        mults /= scale
        if buffer is None:  # one, of the finest window's size
            buffer = np.empty(np.count_nonzero(window_mask(grid, h_values[-1])) ** 2,
                              dtype=np.result_type(*cores))
        w = len(wnodes)
        kernel = np.zeros((2, problem.n, problem.n, 1))
        for f, j, k in np.ndindex(2, problem.n, problem.n):
            if k:
                block = np.multiply(cores[f][j], (moduli[:, k] * scale[j])[:, None],
                                    out=buffer[:w * w].reshape(w, w))
                kernel[f, j, k] = _sigma_max(np.divide(block, scale[k], out=block))
        norms.append(estimate_operator_norm(WeightedOperatorFrame(((mults[0], kernel[0]),
                                                                   (kernel[1], mults[1])))))
    return _report(h_values, norms, 1.0, grid)


def kernel_gap_ratios(problem: ContinuousProblem, h: float,
                      nodes_per_window: int = 64,
                      lambda_factor: float = 4.0) -> dict[str, np.ndarray]:
    """Max kernel gaps normalized by their predicted ``h`` rate and weight.

    For each of the four block families the gap between the continuous
    kernel (full-line integrals truncated at the grid edge) and its lattice
    counterpart on the window, with kernel gaps taken per unit quadrature
    weight, is divided by ``h (1 + |xi|)^e``, where ``e`` is the growth
    exponent of block ``(j, k)``: ``order_j - index + k + 1`` for kernels
    and ``+ 2`` for multipliers.  The max over window nodes is returned as
    an ``(n, n)`` array indexed by ``(j, k)`` under the keys
    ``bottom_mult``, ``bottom_kernel``, ``left_kernel``, ``left_mult``.
    Both sides are sliced from one continuous strip (:func:`_window_gaps`).
    """
    _, grid = check_rate_sweep("kernel_gap", problem, [h], nodes_per_window, lambda_factor)
    wnodes, mults, cores, moduli = next(_window_gaps(problem, grid, [h]))
    weight_2d = 1.0 + np.hypot(*_open_mesh(wnodes, wnodes))
    weight_1d = 1.0 + np.abs(wnodes)

    def exponent(f, j, k):
        return (problem.bottom_orders, problem.left_orders)[f][j] - problem.index + k

    kernel, mult = np.zeros((2, problem.n, problem.n)), np.empty((2, problem.n, problem.n))
    for f, j, k in np.ndindex(mult.shape):
        if k:  # per unit quadrature weight; blocks (j, 0) are 0
            block = cores[f][j] * moduli[:, k][:, None]
            kernel[f, j, k] = np.max(np.abs(block) / grid.axis_weight
                                     / (h * weight_2d ** (exponent(f, j, k) + 1)))
        mult[f, j, k] = np.max(np.abs(mults[f, j, k]) / (h * weight_1d ** (exponent(f, j, k) + 2)))
    return {"bottom_mult": mult[0], "bottom_kernel": kernel[0],
            "left_kernel": kernel[1], "left_mult": mult[1]}
