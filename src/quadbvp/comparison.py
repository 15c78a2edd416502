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
from .lattice import LineGrid, zeta
from .system import BlockSystem, ContinuousProblem, _assemble, assemble_continuous_system

__all__ = [
    "PowerGap",
    "RateFit",
    "RateReport",
    "WeightedOperatorFrame",
    "zeta_power_gap",
    "kernel_gap_ratios",
    "estimate_operator_norm",
    "commutator_rate_sweep",
    "section_gap_rate_sweep",
    "fit_rate",
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
    for ``|xi| <= pi / h``.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"power k must be a positive integer, got {k}")
    xi = np.asarray(xi, dtype=float)
    gap = np.abs((1j * xi) ** k - zeta(xi, h) ** k)
    bound = k * math.exp(k * math.pi) * h * np.abs(xi) ** (k + 1)
    return PowerGap(gap=gap, bound=bound)


def aligned_line_grid(h_values, nodes_per_window: int,
                      lam: float | None = None,
                      lambda_factor: float = 4.0) -> LineGrid:
    """Midpoint grid on ``[-lam, lam]`` whose spacing subdivides every torus
    window of the sweep.

    The spacing is the coarsest window width over ``nodes_per_window``; for
    halving sweeps every window boundary then falls on a cell edge and the
    window nodes form exact midpoint grids of their tori.
    """
    hs = [float(v) for v in h_values]
    if not hs or any(b >= a for a, b in zip(hs, hs[1:])):
        raise InvalidConfigurationError("h_values must be strictly decreasing")
    if nodes_per_window <= 0 or nodes_per_window % 2 != 0:
        raise InvalidConfigurationError("nodes_per_window must be a positive even integer")
    widest = math.pi / min(hs)
    if lam is None:
        lam = lambda_factor * widest
    if lam < widest:
        raise InvalidConfigurationError(
            f"truncation half-width {lam:g} is smaller than the widest window {widest:g}")
    delta = (2.0 * math.pi / max(hs)) / nodes_per_window
    count = int(math.ceil(2.0 * lam / delta))
    count += count % 2
    return LineGrid(half_width=count * delta / 2.0, nodes_count=count)


def window_mask(grid: LineGrid, h: float) -> np.ndarray:
    """Boolean indicator of the grid nodes strictly inside ``(-pi/h, pi/h)``.

    As a 0/1 diagonal this is the window restriction; it is idempotent by
    construction.
    """
    return np.abs(grid.axis_nodes) < math.pi / h


@dataclass(frozen=True, eq=False)
class WeightedOperatorFrame:
    """Block operator expressed in coordinates that make the weighted trace
    norms Euclidean.

    ``blocks[i][j]`` maps input block j to output block i; ``None`` marks a
    block known to vanish.  Entries already include the quadrature and
    weight scalings, so each block's contribution to the operator norm is
    its largest singular value, and the direct-sum (sum of block norms)
    convention makes the full norm the largest column sum of those values.
    """

    nodes: np.ndarray
    quad_weight: float
    weight_exponents: tuple[float, ...]
    blocks: tuple[tuple[np.ndarray | None, ...], ...]


def _sigma_max(block: np.ndarray, tol: float = 1e-8, max_iter: int = 10000) -> float:
    """Largest singular value by power iteration on the normal matrix.

    Deterministic all-ones start; relative tolerance on the squared value.
    """
    b = np.asarray(block)
    if b.size == 0 or not np.any(b):
        return 0.0
    v = np.ones(b.shape[1], dtype=complex)
    v /= np.linalg.norm(v)
    lam_prev = None
    lam = 0.0
    for iteration in range(1, max_iter + 1):
        w = b.conj().T @ (b @ v)
        lam = float(np.real(np.vdot(v, w)))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return math.sqrt(max(lam, 0.0))
        lam_prev = lam
    raise NormEstimateError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last value {lam:.6e})", iterations=max_iter, last_value=lam,
        last_delta=abs(lam - (lam_prev or 0.0)))


def estimate_operator_norm(frame: WeightedOperatorFrame, tol: float = 1e-8,
                           max_iter: int = 10000) -> float:
    """Operator norm of the frame under the sum-of-block-norms convention."""
    n_out = len(frame.blocks)
    n_in = len(frame.blocks[0]) if n_out else 0
    best = 0.0
    for j in range(n_in):
        col = 0.0
        for i in range(n_out):
            block = frame.blocks[i][j]
            if block is not None:
                col += _sigma_max(block, tol=tol, max_iter=max_iter)
        best = max(best, col)
    return best


@dataclass(frozen=True)
class RateFit:
    slope: float | None
    intercept: float | None
    degenerate: bool
    reason: str | None = None


def fit_rate(h_values, norms) -> RateFit:
    """Least-squares slope of ``log(norm)`` against ``log(h)``."""
    hs = np.asarray(list(h_values), dtype=float)
    ns = np.asarray(list(norms), dtype=float)
    if len(hs) < 3 or len(ns) != len(hs):
        raise ValueError("need at least 3 matching (h, norm) pairs")
    if np.any(~np.isfinite(ns)) or np.any(ns <= 0.0):
        return RateFit(slope=None, intercept=None, degenerate=True,
                       reason="nonpositive or non-finite norm in sweep")
    slope, intercept = np.polyfit(np.log(hs), np.log(ns), 1)
    return RateFit(slope=float(slope), intercept=float(intercept), degenerate=False)


@dataclass(frozen=True)
class RateReport:
    """Measured norms over a mesh sweep with the fitted decay rate.

    ``epsilon`` is the predicted exponent the slope is gated against;
    ``monotone_violations`` lists sweep indices whose norm exceeds the
    previous (coarser) one; ``window_nodes`` counts the grid nodes inside
    each torus window.
    """

    h_values: tuple[float, ...]
    norms: tuple[float, ...]
    slope: float | None
    epsilon: float | None
    degenerate: bool = False
    monotone_violations: tuple[int, ...] = ()
    window_nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        hs = self.h_values
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("h_values must be strictly decreasing")


def _hypotheses(problem: ContinuousProblem, bottom_gap: float, left_gap: float,
                what: str) -> None:
    for j, beta in enumerate(problem.bottom_orders):
        if not problem.s - beta > bottom_gap:
            raise InvalidConfigurationError(
                f"{what} needs s - bottom order > {bottom_gap}; "
                f"violated at j={j} (s={problem.s}, order={beta})")
    for j, gamma in enumerate(problem.left_orders):
        if not problem.s - gamma > left_gap:
            raise InvalidConfigurationError(
                f"{what} needs s - left order > {left_gap}; "
                f"violated at j={j} (s={problem.s}, order={gamma})")


def _line_weights(nodes: np.ndarray, exponent: float) -> np.ndarray:
    return (1.0 + nodes ** 2) ** exponent


def _torus_weights(nodes: np.ndarray, exponent: float, h: float) -> np.ndarray:
    return (1.0 + np.abs(zeta(nodes, h)) ** 2) ** exponent


def _weighted(block: np.ndarray, w_out: np.ndarray, w_in: np.ndarray,
              quad: float) -> np.ndarray:
    s_out = np.sqrt(w_out * quad)
    s_in = np.sqrt(w_in * quad)
    return (s_out[:, None] * block) / s_in[None, :]


def _frame_from_blocks(raw, nodes, quad, exponents, weights) -> WeightedOperatorFrame:
    n2 = len(raw)
    blocks = tuple(
        tuple(None if raw[i][j] is None
              else _weighted(raw[i][j], weights[i], weights[j], quad)
              for j in range(n2))
        for i in range(n2))
    return WeightedOperatorFrame(nodes=nodes, quad_weight=quad,
                                 weight_exponents=exponents, blocks=blocks)


def _report(h_values, norms, epsilon, grid: LineGrid) -> RateReport:
    hs = tuple(float(v) for v in h_values)
    ns = tuple(float(v) for v in norms)
    window_nodes = tuple(int(window_mask(grid, h).sum()) for h in hs)
    violations = tuple(i for i in range(1, len(ns)) if ns[i] > ns[i - 1])
    if all(v == 0.0 for v in ns):
        return RateReport(hs, ns, slope=None, epsilon=epsilon, degenerate=True,
                          monotone_violations=violations, window_nodes=window_nodes)
    fit = fit_rate(hs, ns)
    return RateReport(hs, ns, slope=fit.slope, epsilon=epsilon,
                      degenerate=fit.degenerate, monotone_violations=violations,
                      window_nodes=window_nodes)


def commutator_rate_sweep(problem: ContinuousProblem, h_values,
                          nodes_per_window: int = 32,
                          lam: float | None = None,
                          lambda_factor: float = 4.0) -> RateReport:
    """Decay rate of the commutator of the continuous block operator with
    the window restriction.

    The multiplier blocks commute with the restriction exactly, so only the
    integral blocks contribute.  The predicted exponent is
    ``min_j(s - bottom_order_j - 1, s - left_order_j - 1)``.
    """
    _hypotheses(problem, 1.0, 2.0, "commutator sweep")
    grid = aligned_line_grid(h_values, nodes_per_window, lam, lambda_factor)
    q_full = assemble_continuous_system(problem, grid)
    nodes = grid.axis_nodes
    quad = grid.axis_weight
    n = problem.n
    exps = problem.trace_exponents
    exponents = exps + exps
    weights = [_line_weights(nodes, e) for e in exponents]

    norms = []
    for h in h_values:
        chi = window_mask(grid, h).astype(float)
        sign = chi[:, None] - chi[None, :]
        raw: list[list[np.ndarray | None]] = [[None] * (2 * n) for _ in range(2 * n)]
        for j in range(n):
            for k in range(n):
                raw[j][n + k] = sign * q_full.bottom_kernel[j, k]
                raw[n + j][k] = sign * q_full.left_kernel[j, k]
        frame = _frame_from_blocks(raw, nodes, quad, tuple(exponents), weights)
        norms.append(estimate_operator_norm(frame))

    epsilon = min(min(problem.s - b - 1.0 for b in problem.bottom_orders),
                  min(problem.s - g - 1.0 for g in problem.left_orders))
    return _report(h_values, norms, epsilon, grid)


def _restricted_blocks(q_full: BlockSystem, win: np.ndarray, n: int):
    """Blocks of the window-restricted continuous operator."""
    mult_b = q_full.bottom_mult[:, :, win]
    mult_l = q_full.left_mult[:, :, win]
    ker_b = q_full.bottom_kernel[:, :, win][:, :, :, win]
    ker_l = q_full.left_kernel[:, :, win][:, :, :, win]
    return mult_b, ker_b, ker_l, mult_l


def section_gap_rate_sweep(problem: ContinuousProblem, h_values,
                           nodes_per_window: int = 32,
                           lam: float | None = None,
                           lambda_factor: float = 4.0) -> RateReport:
    """Rate of the gap between the window-restricted continuous operator and
    the lattice operator assembled on the same window nodes.

    The lattice side uses the restriction of the continuous symbols to the
    window (their periodic continuation agrees there) and difference-symbol
    powers; the predicted rate is first order in ``h``.
    """
    _hypotheses(problem, 3.0, 3.0, "section gap sweep")
    grid = aligned_line_grid(h_values, nodes_per_window, lam, lambda_factor)
    q_full = assemble_continuous_system(problem, grid)
    quad = grid.axis_weight
    n = problem.n
    exps = problem.trace_exponents
    exponents = exps + exps

    norms = []
    for h in h_values:
        win = window_mask(grid, h)
        wnodes = grid.axis_nodes[win]
        mult_b, ker_b, ker_l, mult_l = _restricted_blocks(q_full, win, n)
        zeros = np.zeros((n, len(wnodes)), dtype=complex)
        lattice = _assemble(n=n, nodes=wnodes, weight=quad, h=float(h),
                            plus_factor=problem.plus_factor,
                            bottom_symbols=problem.bottom_symbols,
                            left_symbols=problem.left_symbols,
                            rhs_bottom=zeros, rhs_left=zeros)
        raw: list[list[np.ndarray | None]] = [[None] * (2 * n) for _ in range(2 * n)]
        for j in range(n):
            for k in range(n):
                raw[j][k] = np.diag(mult_b[j, k] - lattice.bottom_mult[j, k])
                raw[j][n + k] = ker_b[j, k] - lattice.bottom_kernel[j, k]
                raw[n + j][k] = ker_l[j, k] - lattice.left_kernel[j, k]
                raw[n + j][n + k] = np.diag(mult_l[j, k] - lattice.left_mult[j, k])
        weights = [_torus_weights(wnodes, e, float(h)) for e in exponents]
        frame = _frame_from_blocks(raw, wnodes, quad, tuple(exponents), weights)
        norms.append(estimate_operator_norm(frame))

    return _report(h_values, norms, 1.0, grid)


def kernel_gap_ratios(problem: ContinuousProblem, h: float, j: int, k: int,
                      nodes_per_window: int = 64,
                      lambda_factor: float = 4.0) -> dict[str, float]:
    """Max kernel gaps normalized by their predicted ``h`` rate and weight.

    For each of the four block families the gap between the continuous
    kernel (full-line integrals truncated at the grid edge) and its lattice
    counterpart on the window is divided by ``h (1 + |xi|)^e`` with the
    family's growth exponent; the max over window nodes is returned under
    the keys ``bottom_kernel``, ``left_kernel``, ``bottom_mult``,
    ``left_mult``.
    """
    _hypotheses(problem, 2.0, 2.0, "kernel gap ratios")
    if not (0 <= j < problem.n and 0 <= k < problem.n):
        raise ValueError(f"block indices (j={j}, k={k}) out of range for n={problem.n}")
    grid = aligned_line_grid([h], nodes_per_window, lambda_factor=lambda_factor)
    nodes = grid.axis_nodes
    quad = grid.axis_weight
    win = window_mask(grid, h)
    wnodes = nodes[win]
    index = problem.index
    beta = problem.bottom_orders[j]
    gamma = problem.left_orders[j]

    x1, x2 = np.meshgrid(wnodes, wnodes, indexing="ij")
    inv_plus = 1.0 / np.asarray(problem.plus_factor(x1, x2), dtype=complex)
    weight_2d = (1.0 + np.hypot(x1, x2))
    pow_cont = (1j * wnodes) ** k
    pow_disc = zeta(wnodes, h) ** k

    core_b = np.asarray(problem.bottom_symbols[j](x1, x2), dtype=complex) * inv_plus
    core_l = np.asarray(problem.left_symbols[j](x1, x2), dtype=complex) * inv_plus
    # kernel blocks differ only through the powers of the outer variable
    gap_b = np.abs(core_b * (pow_cont - pow_disc)[:, None])
    gap_l = np.abs(core_l * (pow_cont - pow_disc)[None, :])
    ratio_bk = float(np.max(gap_b / (h * weight_2d ** (beta - index + k + 1))))
    ratio_lk = float(np.max(gap_l / (h * weight_2d ** (gamma - index + k + 1))))

    # multiplier blocks: continuous integrals run over the whole grid,
    # lattice integrals over the window only
    y1, t = np.meshgrid(wnodes, nodes, indexing="ij")
    inv_plus_line = 1.0 / np.asarray(problem.plus_factor(y1, t), dtype=complex)
    cb_line = np.asarray(problem.bottom_symbols[j](y1, t), dtype=complex) * inv_plus_line
    cl_line = np.asarray(problem.left_symbols[j](t, y1), dtype=complex) \
        / np.asarray(problem.plus_factor(t, y1), dtype=complex)
    cont_b = (cb_line * ((1j * t) ** k)).sum(axis=1) * quad
    cont_l = (cl_line * ((1j * t) ** k)).sum(axis=1) * quad
    disc_b = (cb_line[:, win] * pow_disc[None, :]).sum(axis=1) * quad
    disc_l = (cl_line[:, win] * pow_disc[None, :]).sum(axis=1) * quad
    weight_1d = 1.0 + np.abs(wnodes)
    ratio_bm = float(np.max(np.abs(cont_b - disc_b)
                            / (h * weight_1d ** (beta - index + k + 2))))
    ratio_lm = float(np.max(np.abs(cont_l - disc_l)
                            / (h * weight_1d ** (gamma - index + k + 2))))

    return {"bottom_kernel": ratio_bk, "left_kernel": ratio_lk,
            "bottom_mult": ratio_bm, "left_mult": ratio_lm}
