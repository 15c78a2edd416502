import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quadbvp import (ContinuousProblem, FrequencyGrid, LatticeFunction, MeshMismatchError,
                     SpectralFunction, WaveFactorization)
from quadbvp.lattice import _power_base
from quadbvp.system import _kernel_blocks

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    """The module of ``scripts/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def discrete_fourier(u: LatticeFunction, grid: FrequencyGrid) -> SpectralFunction:
    """Forward transform ``sum_x exp(+i x.xi) u(x) h^2`` at every grid node,
    exact (no truncation beyond the support box of ``u``): the spectrum
    ``apply_symbol_to_spectrum`` takes, from a lattice function, and the
    input ``inverse_discrete_fourier`` inverts."""
    if grid.ndim != 2:
        raise ValueError("discrete_fourier requires a 2D grid")
    if not grid.matches_mesh(u.h):
        raise MeshMismatchError(f"lattice mesh {u.h} does not match grid mesh {grid.h}")
    (a1, b1), (a2, b2) = u.support_box
    xi = grid.axis_nodes
    e1 = np.exp(1j * u.h * np.outer(np.arange(a1, b1 + 1), xi))   # (n1, N)
    e2 = np.exp(1j * u.h * np.outer(np.arange(a2, b2 + 1), xi))   # (n2, N)
    return SpectralFunction(grid, u.h ** 2 * (e1.T @ u.values @ e2))


def lattice_function(h, points):
    """The lattice function with the given values at the given ``(i1, i2)``
    points, on their bounding box, and zero elsewhere."""
    idx = np.array(list(points.keys()))
    box = ((int(idx[:, 0].min()), int(idx[:, 0].max())),
           (int(idx[:, 1].min()), int(idx[:, 1].max())))
    vals = np.zeros((box[0][1] - box[0][0] + 1, box[1][1] - box[1][0] + 1), dtype=complex)
    for (i1, i2), v in points.items():
        vals[i1 - box[0][0], i2 - box[1][0]] = v
    return LatticeFunction(h, box, vals)


def unit_mass(h, point=(0, 0)):
    """Unit mass at a single lattice point."""
    return lattice_function(h, {point: 1.0})


def kernel_stacks(system, rows=None):
    """The ``(n, n, out, in)`` bottom and left kernel stacks of a block
    system, formed from its cores; ``rows`` is the mask a strip was
    assembled with, which sets the output nodes of its powers."""
    nodes = system.nodes if rows is None else system.nodes[rows]
    powers = _power_base(nodes, system.h)
    return tuple(kernel_stack(core, powers) for core in system.core)


def kernel_stack(core, powers):
    """The ``(n, n, out, in)`` kernel stack of n cores, real only at n = 1
    with a real core, filled by ``_kernel_blocks`` from the cores placed in
    its blocks ``(j, 0)``."""
    n = len(core)
    stack = np.empty((n, n) + core.shape[1:], dtype=core.dtype if n == 1 else complex)
    stack[:, 0] = core
    return _kernel_blocks(stack, powers)


def fsum_multipliers(cores, powers):
    """Oracle: ``mult[j, k, i]``, the correctly rounded sums of the terms
    ``core_j[i, :] * p^k`` (real and imaginary parts apart), and the bound
    ``N eps sum|terms|`` on the rounding of any order of summing them."""
    n, (R, N) = len(cores), cores[0].shape
    want = np.empty((n, n, R), dtype=complex)
    bound = np.empty((n, n, R))
    for j, k in np.ndindex(n, n):
        terms = cores[j] * powers ** k
        want[j, k] = [complex(math.fsum(row.real), math.fsum(row.imag)) for row in terms]
        bound[j, k] = N * np.finfo(float).eps * np.abs(terms).sum(axis=1)
    return want, bound


def unit_scales(problem, window, line):
    """``_kernel_strips``' scales at the window and line nodes that leave
    every entry as the kernel stacks have it."""
    return np.ones((problem.n, len(window))), np.ones((problem.n, len(line)))


def full_matrix(system):
    """Dense oracle: the ``(2nN, 2nN)`` matrix of a square block system,
    rows ordered bottom then left equations, columns bottom then left
    traces, each edge component after component."""
    n, N = system.n, len(system.nodes)
    bottom_kernel, left_kernel = kernel_stacks(system)
    a = np.zeros((2 * n * N, 2 * n * N), dtype=complex)
    idx = np.arange(N)
    for j in range(n):
        rb = j * N            # bottom equation rows
        rl = (n + j) * N      # left equation rows
        for k in range(n):
            cb = k * N        # bottom trace columns
            cl = (n + k) * N  # left trace columns
            a[rb + idx, cb + idx] = system.mult[0, j, k]
            a[rb:rb + N, cl:cl + N] = bottom_kernel[j, k]
            a[rl:rl + N, cb:cb + N] = left_kernel[j, k]
            a[rl + idx, cl + idx] = system.mult[1, j, k]
    return a


def ones_symbol(*args):
    return np.ones(np.broadcast(*args).shape) if len(args) > 1 \
        else np.ones(np.asarray(args[0]).shape)


def with_continuous_evaluators(wrap, problem):
    """The continuous problem with its plus factor and symbols wrapped."""
    return replace(problem, plus_factor=wrap(problem.plus_factor),
                   bottom_symbols=tuple(map(wrap, problem.bottom_symbols)),
                   left_symbols=tuple(map(wrap, problem.left_symbols)))


def skewed_problem():
    """n = 2 problem whose symbols are neither radial nor symmetric in
    (xi1, xi2), so a transposed mesh or a misplaced power shows."""
    def plus(x1, x2):
        return (1.0 + x1 ** 2 + 2.0 * x2 ** 2) ** 0.75 * (2.0 + 1j * np.tanh(x1 - 0.3 * x2))

    def symbol(a, b, c):
        return lambda x1, x2: (1.0 + a * x1 ** 2 + b * x2 ** 2) ** -0.5 * (2.0 + 1j * c * x1)

    return ContinuousProblem(
        s=3.25, n=2, delta=-0.25, plus_factor=plus,
        bottom_symbols=(symbol(0.5, 1.0, 0.2), symbol(1.0, 3.0, -0.4)),
        left_symbols=(symbol(2.0, 0.7, 0.1), symbol(0.3, 1.5, 0.6)),
        bottom_orders=(0.0, -1.0), left_orders=(0.0, -1.0))


@pytest.fixture
def trivial_factorization():
    """Factor pair identically one, index 0, on the h=1 lattice."""
    return WaveFactorization(plus_factor=ones_symbol, minus_factor=ones_symbol,
                             index=0.0, h=1.0, label="one")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
