import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbvp import (AssemblyError, ContinuousProblem, FrequencyGrid, MeshMismatchError,
                     NearSingularError, PeriodicSymbol, ProblemSpec,
                     SpectralFunction, TraceVector, WaveFactorization,
                     assemble_continuous_system, assemble_discrete_system,
                     builtin_factor_family, identity_boundary_operators,
                     manufactured_roundtrip, project_out_gauge,
                     radial_power_problem, random_bumps, random_trace_vector,
                     reconstruct_solution, row_trace_boundary_operators,
                     sobolev_norm_1d, sobolev_norm_2d, solve_block_system,
                     structural_null_basis, trace_exponents, zeta,
                     zeta_boundary_operators, apply_symbol_to_spectrum,
                     aligned_line_grid, boundary_trace_spectrum, window_mask)
from quadbvp import lattice, system
from quadbvp.lattice import _open_mesh, _power_base
from quadbvp.system import (_ESTIMATE_BLOCK, _ESTIMATE_POWER_STEPS, _ESTIMATE_SEED,
                            _CompressedSystem, _assemble, _compress, _invert_multipliers,
                            _kernel_adjoint, _kernel_apply, _kernel_norm, _kernel_strips,
                            _plus_values, _sigma_max_estimate)
from conftest import (fsum_multipliers, full_matrix, kernel_stack, kernel_stacks, ones_symbol,
                      skewed_problem, unit_scales, with_continuous_evaluators)


def trivial_spec(n=1, h=1.0, delta=0.25, boundary="identity"):
    fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=h)
    ops = identity_boundary_operators(n, h) if boundary == "identity" \
        else zeta_boundary_operators(n, h)
    return ProblemSpec(s=-(n + delta), factorization=fac, n=n, delta=delta,
                       bottom_ops=ops[0], left_ops=ops[1])


def trace_data(system, bottom, left):
    """Boundary data on the system's trace grid, one value array per
    component."""
    grid = system.trace_grid()
    return TraceVector(bottom=tuple(SpectralFunction(grid, v) for v in bottom),
                       left=tuple(SpectralFunction(grid, v) for v in left))


def zero_data(system):
    zeros = [np.zeros(len(system.nodes))] * system.n
    return trace_data(system, zeros, zeros)


class TestProblemSpecValidation:
    def test_trace_exponents(self):
        assert trace_exponents(s=-1.25, index=0.0, n=2) == (-1.75, -0.75)

    def test_index_split_must_hold(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 1.0)
        with pytest.raises(ValueError, match="n \\+ delta"):
            ProblemSpec(s=-2.0, factorization=fac, n=1, delta=0.25,
                        bottom_ops=bottom, left_ops=left)

    def test_delta_bound_enforced(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 1.0)
        with pytest.raises(ValueError, match="delta"):
            ProblemSpec(s=-1.6, factorization=fac, n=1, delta=0.6,
                        bottom_ops=bottom, left_ops=left)

    def test_operator_count_must_match_n(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 1.0)
        with pytest.raises(ValueError, match="boundary operators"):
            ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                        bottom_ops=bottom, left_ops=left)

    def test_non_finite_data_rejected(self):
        # data are the solve's input, checked there, not the problem's
        grid1 = FrequencyGrid(1.0, 8, ndim=1)
        bad = SpectralFunction(grid1, np.full(8, np.nan, dtype=complex))
        ok = SpectralFunction(grid1, np.ones(8))
        system = assemble_discrete_system(trivial_spec(), FrequencyGrid(1.0, 8))
        with pytest.raises(AssemblyError, match="non-finite entries in block rhs_bottom"):
            solve_block_system(system, TraceVector(bottom=(bad,), left=(ok,)))


class TestAssembly:
    def test_unit_symbols_give_torus_width_multiplier(self):
        grid = FrequencyGrid(1.0, 16)
        sys = assemble_discrete_system(trivial_spec(), grid)
        assert np.allclose(sys.bottom_mult[0, 0], 2 * math.pi, rtol=1e-14)
        assert np.allclose(sys.left_mult[0, 0], 2 * math.pi, rtol=1e-14)

    def test_unit_symbols_give_unit_kernel(self):
        grid = FrequencyGrid(1.0, 16)
        sys = assemble_discrete_system(trivial_spec(), grid)
        # quadrature weight folded into the operator matrix
        for stack in kernel_stacks(sys):
            assert np.allclose(stack[0, 0], grid.axis_weight, rtol=1e-14)

    def test_boundary_symbol_cancels_plus_factor(self):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        sym = PeriodicSymbol(lambda x1, x2: fac.plus_factor(x1, x2), 0.0, h)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=(sym,), left_ops=(sym,))
        grid = FrequencyGrid(h, 16)
        sys = assemble_discrete_system(spec, grid)
        assert np.allclose(kernel_stacks(sys)[0][0, 0], grid.axis_weight, rtol=1e-12)

    def test_factorization_mesh_must_match_grid(self):
        with pytest.raises(MeshMismatchError,
                           match="factorization mesh 0.5 does not match grid mesh 1.0"):
            assemble_discrete_system(trivial_spec(h=0.5), FrequencyGrid(1.0, 8))

    def test_boundary_symbol_mesh_must_match_grid(self):
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=1.0)
        bottom, left = identity_boundary_operators(1, 0.5)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        with pytest.raises(MeshMismatchError,
                           match="boundary symbol mesh 0.5 does not match grid mesh 1.0"):
            assemble_discrete_system(spec, FrequencyGrid(1.0, 8))

    @pytest.mark.parametrize("edge", ["bottom", "left"])
    def test_data_on_another_mesh_rejected(self, edge):
        # same node count, so only the mesh tells the data apart
        ok = SpectralFunction(FrequencyGrid(1.0, 16, ndim=1), np.ones(16))
        other = SpectralFunction(FrequencyGrid(0.5, 16, ndim=1), np.ones(16))
        data = {"bottom": (ok,), "left": (ok,), edge: (other,)}
        system = assemble_discrete_system(trivial_spec(), FrequencyGrid(1.0, 16))
        with pytest.raises(MeshMismatchError,
                           match=f"{edge} data component 0 mesh 0.5 does not match "
                                 "grid mesh 1.0"):
            solve_block_system(system, TraceVector(**data))

    def test_data_of_wrong_length_rejected(self):
        ok = SpectralFunction(FrequencyGrid(1.0, 16, ndim=1), np.ones(16))
        short = SpectralFunction(FrequencyGrid(1.0, 8, ndim=1), np.ones(8))
        system = assemble_discrete_system(trivial_spec(), FrequencyGrid(1.0, 16))
        with pytest.raises(MeshMismatchError,
                           match="left data component 0 has 8 nodes, the grid 16"):
            solve_block_system(system, TraceVector(bottom=(ok,), left=(short,)))

    def test_vanishing_plus_factor_names_the_node(self):
        h = 1.0
        grid = FrequencyGrid(h, 8)
        bad_node = grid.axis_nodes[3]

        def plus(x1, x2):
            return zeta(x1, h) - zeta(bad_node, h)

        fac = WaveFactorization(plus, ones_symbol, index=0.0, h=h)
        bottom, left = identity_boundary_operators(1, h)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        with pytest.raises(AssemblyError, match=f"xi1={bad_node:.6g}"):
            assemble_discrete_system(spec, grid)

    def test_non_finite_symbol_rejected(self):
        h = 1.0
        inf_symbol = PeriodicSymbol(
            lambda x1, x2: np.where(np.asarray(x1) > 0, np.inf, 1.0), 0.0, h)
        fac = WaveFactorization(ones_symbol, ones_symbol, index=0.0, h=h)
        left = identity_boundary_operators(1, h)[1]
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=(inf_symbol,), left_ops=left)
        with np.errstate(invalid="ignore"):
            with pytest.raises(AssemblyError, match="non-finite"):
                assemble_discrete_system(spec, FrequencyGrid(h, 8))



def counted_evaluators(problem, calls):
    """The problem with each evaluator counting its calls by name."""
    def wrap(name, ev):
        def counted(x1, x2):
            calls[name] = calls.get(name, 0) + 1
            return ev(x1, x2)
        return counted

    return replace(problem, plus_factor=wrap("plus", problem.plus_factor),
                   bottom_symbols=tuple(wrap(f"bottom {j}", ev)
                                        for j, ev in enumerate(problem.bottom_symbols)),
                   left_symbols=tuple(wrap(f"left {j}", ev)
                                      for j, ev in enumerate(problem.left_symbols)))


class TestRowTiles:
    """Meshes are assembled in row tiles: the tile size changes no bit, and a
    mesh of one tile evaluates each factor and symbol once per mesh."""

    @staticmethod
    def radial_strip():
        problem = radial_power_problem(s=2.25, n=2, delta=-0.25, bottom_orders=[0.0, -1.0],
                                       left_orders=[0.5, 0.0])
        grid = aligned_line_grid([0.5, 0.25], 8)
        args = dict(n=2, nodes=grid.axis_nodes, weight=grid.axis_weight, h=None,
                    plus_factor=problem.plus_factor, bottom_symbols=problem.bottom_symbols,
                    left_symbols=problem.left_symbols)
        return args, np.arange(grid.nodes_count) % 3 > 0  # 42 of 64 nodes

    @staticmethod
    def lattice_spec():
        # a full lattice assembly, complex cores
        args = factorization_assembly(N=26)
        return args, None

    @pytest.mark.parametrize("kind", ["lattice", "radial strip"])
    def test_tile_size_changes_no_assembled_bit(self, monkeypatch, kind):
        args, rows = {"lattice": self.lattice_spec, "radial strip": self.radial_strip}[kind]()
        N = len(args["nodes"])
        R = N if rows is None else int(rows.sum())
        assert len(system._row_tiles(R, N)) == 1
        whole = _assemble(**args, rows=rows)
        # tiles of 8 rows and a last one of 2: the rows do not split evenly
        monkeypatch.setattr(system, "_TILE", 8 * N)
        tiles = system._row_tiles(R, N)
        assert [t.stop - t.start for t in tiles] == [8] * (R // 8) + [2]
        tiled = _assemble(**args, rows=rows)
        dtype = np.float64 if rows is not None else np.complex128
        assert whole.bottom_core.dtype == whole.left_core.dtype == dtype
        for field in BLOCKS:
            assert np.array_equal(getattr(tiled, field), getattr(whole, field)), field

    @pytest.mark.parametrize("make", [
        lambda: radial_power_problem(s=2.25, n=1, delta=-0.25, bottom_orders=[0.0],
                                     left_orders=[0.0]),
        skewed_problem,
    ], ids=["radial n1", "skewed"])
    def test_tile_size_changes_no_strip_bit(self, monkeypatch, make):
        problem = make()
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = np.arange(len(nodes)) % 3 > 0
        whole = pair_strips(problem, nodes, rows)
        monkeypatch.setattr(system, "_TILE", 8 * len(nodes))
        tiles = system._row_tiles(int(rows.sum()), len(nodes))
        assert [t.stop - t.start for t in tiles] == [8] * 5 + [2]
        for got, want in zip(pair_strips(problem, nodes, rows), whole):
            assert got.dtype == want.dtype == (np.float64 if problem.n == 1 else np.complex128)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile_rows", [None, 8])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multipliers_are_within_rounding_of_correctly_rounded_sums(self, monkeypatch, n,
                                                                       dtype, tile_rows):
        # each multiplier of a full assembly, within N eps sum|terms| of the
        # correctly rounded sum of its N terms, and each of a strip, its sum
        # outside its rows, of the sum of those terms alone, in tiles of 8
        # rows and a last one of 2 too
        orders = [0.0, -1.0, -0.5][:n]
        problem = with_continuous_evaluators(
            lambda ev: lambda x1, x2: np.asarray(ev(x1, x2), dtype=dtype),
            radial_power_problem(s=3.25, n=n, delta=-0.25, bottom_orders=orders,
                                 left_orders=orders[::-1]))
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes, N = grid.axis_nodes, grid.nodes_count
        rows = np.arange(N) % 3 > 0  # 42 of 64 nodes
        if tile_rows:
            monkeypatch.setattr(system, "_TILE", tile_rows * N)
            assert system._row_tiles(int(rows.sum()), N)[-1] == slice(40, 42)
        # the strip takes the full system's weight, so the full cores are
        # the terms of both
        full = assemble_continuous_system(problem, grid)
        part = strip(problem, nodes, rows, weight=grid.axis_weight)
        assert full.bottom_core.dtype == full.left_core.dtype == dtype
        powers = _power_base(nodes, None)
        for field, cores in (("bottom_mult", full.bottom_core), ("left_mult", full.left_core)):
            for got, cut, inputs in ((getattr(full, field), slice(None), slice(None)),
                                     (getattr(part, field), rows, ~rows)):
                oracle, bound = fsum_multipliers(cores[:, cut][..., inputs], powers[inputs])
                assert np.all(np.abs(got.real - oracle.real) <= bound), field
                assert np.all(np.abs(got.imag - oracle.imag) <= bound), field

    def test_one_tile_evaluates_each_evaluator_once_per_mesh(self):
        calls = {}
        problem = counted_evaluators(skewed_problem(), calls)
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        symbols = {f"{edge} {j}": 1 for edge in ("bottom", "left") for j in range(2)}
        # a full system reuses the bottom mesh's inverse factor for the left
        # family; a strip and the pair strips evaluate it on both meshes
        for step, plus in ((lambda: assemble_continuous_system(problem, grid), 1),
                           (lambda: strip(problem, nodes, rows), 2)):
            calls.clear()
            step()
            assert calls == {"plus": plus, **symbols}
        calls.clear()
        pair_strips(problem, nodes, rows)
        assert calls == {"plus": 2, **{name: 2 for name in symbols}}


class TestSolve:
    def test_all_unit_system_has_symmetric_solution(self):
        # both equations read 2 pi (c + d) = 2 pi; the gauge-orthogonal
        # representative is c = d = 1/2
        sys = assemble_discrete_system(trivial_spec(), FrequencyGrid(1.0, 16))
        data = [np.full(16, 2 * math.pi, dtype=complex)]
        traces, rep = solve_block_system(sys, trace_data(sys, data, data))
        assert np.allclose(traces.bottom[0].values, 0.5, atol=1e-12)
        assert np.allclose(traces.left[0].values, 0.5, atol=1e-12)
        assert rep.residual <= 1e-10

    def test_zero_data_gives_zero_solution(self):
        grid = FrequencyGrid(1.0, 16)
        sys = assemble_discrete_system(trivial_spec(), grid)
        traces, rep = solve_block_system(sys, zero_data(sys))
        assert np.allclose(traces.bottom[0].values, 0.0, atol=1e-14)
        assert np.allclose(traces.left[0].values, 0.0, atol=1e-14)
        assert rep.residual == 0.0

    def test_duplicated_boundary_rows_are_near_singular(self):
        # identical order-zero operators in both rows leave the system rank
        # deficient beyond its structural gauge space
        sys = assemble_discrete_system(trivial_spec(n=2), FrequencyGrid(1.0, 16))
        with pytest.raises(NearSingularError) as err:
            solve_block_system(sys, zero_data(sys))
        assert err.value.condition > 1e12

    @pytest.mark.parametrize("n", [1, 3])
    def test_data_with_another_component_count_rejected(self, n):
        system = assemble_discrete_system(trivial_spec(n=2, boundary="zeta"),
                                          FrequencyGrid(1.0, 8))
        ones = [np.ones(8)] * n
        with pytest.raises(ValueError, match=f"data must have n = 2 components per "
                                             f"edge, got {n}"):
            solve_block_system(system, trace_data(system, ones, ones))

    def test_corner_incompatible_data_leave_a_gauge_residual(self, rng):
        # two-edge data drawn independently disagree at the corner, so they
        # are not in the range of A: the bordered solve leaves b - A x in
        # the span of the gauge basis, and the residual reports its size
        sys, data = corner_incompatible_system(rng)
        traces, rep = solve_block_system(sys, data)
        assert rep.residual >= 1e-3
        r = stacked_values(data) - full_matrix(sys) @ stacked_values(traces)
        q, _ = np.linalg.qr(structural_null_basis(sys))
        assert np.linalg.norm(r - q @ (q.conj().T @ r)) <= 1e-12 * np.linalg.norm(r)

    def test_residual_small_at_moderate_condition(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = zeta_boundary_operators(1, h)
        grid = FrequencyGrid(h, 32)
        grid1 = FrequencyGrid(h, 32, ndim=1)
        planted = random_trace_vector(rng, grid1, 1)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.condition <= 1e8
        assert rep.residual <= 1e-10


def svd_min_norm_solve(system, b):
    """Oracle: least-squares minimum-norm solve of ``A x = b`` by the full
    SVD, inverting every singular value outside the structural gauge space,
    with one refinement step; returns the solution and the deflated
    condition."""
    a = full_matrix(system)
    u, sig, vh = np.linalg.svd(a)
    rank = system.size - system.n ** 2

    def pinv(v):
        return vh[:rank].conj().T @ ((u[:, :rank].conj().T @ v) / sig[:rank])

    x = pinv(b)
    x = x + pinv(b - a @ x)
    return x, float(sig[0] / sig[rank - 1])


def stacked_values(traces):
    return np.concatenate([f.values for f in traces.bottom + traces.left])


def compatible_problem(fac, operators, n, N, h, seed):
    """A problem spec, seeded planted traces, the assembled system, and the
    corner-compatible data synthesized from the traces."""
    bottom, left = operators(n, h)
    spec = ProblemSpec(s=fac.index - (n + 0.25), factorization=fac, n=n,
                       delta=0.25, bottom_ops=bottom, left_ops=left)
    grid = FrequencyGrid(h, N)
    planted = random_trace_vector(np.random.default_rng(seed),
                                  FrequencyGrid(h, N, ndim=1), n)
    u_hat = reconstruct_solution(planted, fac, grid)
    data = TraceVector(
        bottom=tuple(boundary_trace_spectrum(op, u_hat, "bottom") for op in bottom),
        left=tuple(boundary_trace_spectrum(op, u_hat, "left") for op in left))
    return spec, planted, assemble_discrete_system(spec, grid), data


families = st.one_of(
    st.builds(lambda a, p, q: ("geometric", dict(a=a, p=p, q=q)),
              st.floats(-0.9, 0.9), st.integers(0, 2), st.integers(0, 2)),
    st.builds(lambda shift, kappa: ("shifted_zeta", dict(c=shift, kappa=kappa)),
              st.floats(0.25, 8.0), st.floats(0.5, 3.0)))


@settings(max_examples=12, deadline=None)
@given(family=families, n=st.integers(1, 3), zeta_ops=st.booleans(),
       h=st.sampled_from([1.0, 0.5]), N=st.sampled_from([32, 64]),
       seed=st.integers(0, 2**31))
def test_solver_properties(family, n, zeta_ops, h, N, seed):
    # every drawn problem is either reported as not uniquely solvable or
    # solved to the SVD oracle's minimum-norm solution
    kind, params = family
    if kind == "shifted_zeta":
        params = dict(params, c=4.0 / h + params["c"])  # c > 4/h
    fac = builtin_factor_family(kind, h, **params)
    operators = zeta_boundary_operators if zeta_ops and n == 1 \
        else row_trace_boundary_operators
    spec, planted, system, data = compatible_problem(fac, operators, n, N, h, seed)
    grid = FrequencyGrid(h, N)
    try:
        traces, rep = solve_block_system(system, data)
    except NearSingularError:
        return
    assert manufactured_roundtrip(spec, planted, grid).rel_error <= 1e-6
    if rep.condition <= 1e8:
        assert rep.residual <= 1e-10

    a = full_matrix(system)
    q, _ = np.linalg.qr(structural_null_basis(system))
    assert np.linalg.norm(a @ q, 2) <= 1e-12 * np.linalg.norm(a, 2)

    want, condition = svd_min_norm_solve(system, stacked_values(data))
    got = stacked_values(traces)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert rep.condition == pytest.approx(condition, rel=0.05)


def dense_operators(system):
    """Dense ``A`` and ``P``, the leading ``2nN x 2nN`` block of the inverse
    of the bordered matrix ``B = [[A, Q], [Q^H, 0]]``, formed and inverted
    at full size."""
    a = full_matrix(system)
    size = system.size
    q, _ = np.linalg.qr(structural_null_basis(system))
    bordered = np.zeros((size + q.shape[1],) * 2, dtype=complex)
    bordered[:size, :size] = a
    bordered[:size, size:] = q
    bordered[size:, :size] = q.conj().T
    return a, np.linalg.inv(bordered)[:size, :size]


def dense_bordered_solve(system, b):
    """Oracle: the dense bordered-inverse algorithm (:func:`dense_operators`),
    ``x = P b`` with one refinement step and the condition ``sigma_max(A)
    sigma_max(P)`` from the same seeded estimator on the dense matrices."""
    a, p = dense_operators(system)
    size = system.size
    x = p @ b
    x = x + p @ (b - a @ x)

    def sigma(m):
        return _sigma_max_estimate(lambda v: m @ v, lambda v: m.conj().T @ v, size)

    return x, sigma(a) * sigma(p)


def corner_incompatible_system(rng):
    h, N = 1.0, 32
    fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
    bottom, left = row_trace_boundary_operators(1, h)
    grid1 = FrequencyGrid(h, N, ndim=1)
    data_bottom, data_left = (
        SpectralFunction(grid1, random_bumps(rng, math.pi)(grid1.axis_nodes))
        for _ in range(2))
    spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                       bottom_ops=bottom, left_ops=left)
    return (assemble_discrete_system(spec, FrequencyGrid(h, N)),
            TraceVector(bottom=(data_bottom,), left=(data_left,)))


ELIMINATION_CASES = {
    "row_trace_n1": lambda rng: compatible_problem(
        builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1),
        row_trace_boundary_operators, 1, 48, 1.0, 1)[2:],
    "row_trace_n2": lambda rng: compatible_problem(
        builtin_factor_family("geometric", 0.5, a=-0.4, p=2, q=1),
        row_trace_boundary_operators, 2, 32, 0.5, 2)[2:],
    "row_trace_n3": lambda rng: compatible_problem(
        builtin_factor_family("geometric", 1.0, a=0.3, p=1, q=2),
        row_trace_boundary_operators, 3, 32, 1.0, 3)[2:],
    "zeta_n1": lambda rng: compatible_problem(
        builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1),
        zeta_boundary_operators, 1, 64, 1.0, 4)[2:],
    "shifted_zeta": lambda rng: compatible_problem(
        builtin_factor_family("shifted_zeta", 1.0, c=5.0, kappa=1.0),
        row_trace_boundary_operators, 2, 32, 1.0, 5)[2:],
    "corner_incompatible": corner_incompatible_system,
    # n = 3 shifted_zeta draws of the property-test domain whose kernels
    # compress to ranks 54 and 55 of 96, far from both one and full rank
    "shifted_zeta_n3_low_kappa": lambda rng: compatible_problem(
        builtin_factor_family("shifted_zeta", 0.5, c=8.3644832943618087,
                              kappa=0.5793647777649842),
        row_trace_boundary_operators, 3, 32, 0.5, 1888378549)[2:],
    "shifted_zeta_n3_high_kappa": lambda rng: compatible_problem(
        builtin_factor_family("shifted_zeta", 0.5, c=8.267239217489608,
                              kappa=2.1651038796480253),
        row_trace_boundary_operators, 3, 32, 0.5, 273045675)[2:],
}


class TestEliminatedSolve:
    @pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
    def test_matches_the_dense_bordered_inverse(self, rng, case):
        system, data = ELIMINATION_CASES[case](rng)
        traces, rep = solve_block_system(system, data)
        want, condition = dense_bordered_solve(system, stacked_values(data))
        got = stacked_values(traces)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert rep.condition == pytest.approx(condition, rel=1e-12)

    @pytest.mark.parametrize("case", ["row_trace_n2", "shifted_zeta"])
    def test_inverts_nothing_larger_than_the_capacitance_matrix(self, monkeypatch, case):
        # the per-node multipliers in one batch, then densely only the
        # Woodbury capacitance matrix of size r_b + r_l + n^2
        system, data = ELIMINATION_CASES[case](None)
        n = system.n
        shapes = []
        inv = np.linalg.inv

        def recording_inv(m):
            shapes.append(np.shape(m))
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        _, rep = solve_block_system(system, data)
        r_b, r_l = rep.kernel_rank
        assert shapes == [(2, len(system.nodes), n, n), (r_b + r_l + n ** 2,) * 2]
        assert r_b + r_l < 2 * n * len(system.nodes)

    @pytest.mark.parametrize("case", ["row_trace_n2", "row_trace_n3", "shifted_zeta"])
    def test_multiplier_condition_is_the_worst_node(self, case):
        system, data = ELIMINATION_CASES[case](None)
        _, rep = solve_block_system(system, data)
        per_node = [np.linalg.cond(mult[:, :, i])
                    for mult in (system.bottom_mult, system.left_mult)
                    for i in range(len(system.nodes))]
        assert rep.multiplier_condition == pytest.approx(max(per_node), rel=1e-12)

    def test_vanishing_multiplier_names_the_node(self):
        system, data = ELIMINATION_CASES["row_trace_n2"](None)
        bottom_mult = system.bottom_mult.copy()
        bottom_mult[:, :, 5] = 0.0
        bad = replace(system, bottom_mult=bottom_mult)
        with pytest.raises(NearSingularError,
                           match=f"bottom multiplier.*xi1={system.nodes[5]:.6g}") as err:
            solve_block_system(bad, data)
        assert err.value.condition == math.inf

    def test_vanishing_left_multiplier_names_the_node(self):
        system, data = ELIMINATION_CASES["row_trace_n2"](None)
        left_mult = system.left_mult.copy()
        left_mult[:, :, 5] = 0.0
        bad = replace(system, left_mult=left_mult)
        with pytest.raises(NearSingularError,
                           match=f"left multiplier.*xi2={system.nodes[5]:.6g}") as err:
            solve_block_system(bad, data)
        assert err.value.condition == math.inf

    @pytest.mark.parametrize("case", ["row_trace_n3", "shifted_zeta_n3_high_kappa"])
    def test_compressed_kernels_reproduce_the_kernels(self, case):
        # U orthonormal and U V^H = U U^H K within the range finder's floor,
        # 1e-13 of the Frobenius norm, for K formed from the cores
        system, _ = ELIMINATION_CASES[case](None)
        m = system.n * len(system.nodes)
        powers = _power_base(system.nodes, system.h)
        for core, stack in zip((system.bottom_core, system.left_core),
                               kernel_stacks(system)):
            k = stack.transpose(0, 2, 1, 3).reshape(m, m)
            u, v = _compress(core, powers)
            assert u.shape == v.shape and 1 <= u.shape[1] < m
            assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]), 2) <= 1e-14
            assert np.linalg.norm(k - u @ v.conj().T, 2) <= 1e-12 * np.linalg.norm(k)

    @pytest.mark.parametrize("family, params", [
        ("geometric", dict(a=0.5, p=1, q=1)),
        ("shifted_zeta", dict(c=5.0, kappa=2.5))])
    def test_kernel_rank_does_not_grow_with_the_mesh(self, family, params):
        # analytic kernels: the numerical rank the solver compresses to is
        # set by the symbols, not by N
        ranks = []
        for N in (128, 256):
            system, data = compatible_problem(builtin_factor_family(family, 1.0, **params),
                                              row_trace_boundary_operators, 2, N, 1.0, 7)[2:]
            _, rep = solve_block_system(system, data)
            assert rep.residual <= 1e-10
            ranks.append(rep.kernel_rank)
        for r_small, r_large in zip(*ranks):
            assert 1 <= r_small < 2 * 128
            assert abs(r_large - r_small) <= 2


def krylov_qr_estimate(apply, adjoint, dim):
    """Oracle: the condition estimate as one QR of the whole Krylov matrix.
    The same seeded blocks span the same Krylov space as
    :func:`_sigma_max_estimate`'s, but are only rescaled between power
    steps; the ``dim x 40`` matrix of all blocks is orthonormalized at once,
    and the Rayleigh-Ritz value is taken on that basis."""
    rng = np.random.default_rng(_ESTIMATE_SEED)
    shape = (dim, _ESTIMATE_BLOCK)
    block = apply(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    blocks = [block / np.linalg.norm(block)]
    for _ in range(_ESTIMATE_POWER_STEPS):
        block = apply(adjoint(blocks[-1]))
        blocks.append(block / np.linalg.norm(block))
    basis, _ = np.linalg.qr(np.hstack(blocks))
    projected = adjoint(basis)
    return math.sqrt(np.linalg.eigvalsh(projected.conj().T @ projected)[-1])


def estimated_operators(system):
    """The solver's compressed ``A`` and Woodbury ``P``, each as the pair of
    products ``(M v, M^H v)`` its condition estimate takes."""
    ops = _CompressedSystem(system, system.gauge_basis, _invert_multipliers(system)[0])
    return {"A": (ops.a_low, ops.a_low_h), "P": (ops.p, ops.p_h)}


def recorded_qr_widths(monkeypatch):
    """Record the column count of every ``np.linalg.qr`` call."""
    widths = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return widths


class TestConditionEstimate:
    @pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
    def test_matches_one_qr_of_the_krylov_matrix(self, rng, case):
        # block by block, the basis spans the same Krylov space as one QR
        # of all its blocks, so the Rayleigh-Ritz values agree to rounding
        system, _ = ELIMINATION_CASES[case](rng)
        for apply, adjoint in estimated_operators(system).values():
            want = krylov_qr_estimate(apply, adjoint, system.size)
            assert _sigma_max_estimate(apply, adjoint, system.size) == \
                pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("case", ["row_trace_n2", "shifted_zeta"])
    def test_factors_no_block_wider_than_the_estimate_block(self, monkeypatch, case):
        # each estimate orthonormalizes its 5 Krylov blocks one by one, and
        # no QR of the whole 2nN x 40 Krylov matrix is made; the only other
        # QR is the n^2 = 4 column gauge basis
        system, data = ELIMINATION_CASES[case](None)
        widths = recorded_qr_widths(monkeypatch)
        solve_block_system(system, data)
        assert max(widths) == _ESTIMATE_BLOCK
        assert widths.count(_ESTIMATE_BLOCK) == 2 * (_ESTIMATE_POWER_STEPS + 1)

    def test_block_inside_the_basis_keeps_a_lower_bound(self, monkeypatch):
        # geometric a = 0, p = q = 0: a projected Krylov block falls
        # numerically inside the basis built so far, and its QR returns
        # directions that are not orthogonal to that basis; the basis is
        # orthonormalized again as a whole, so the estimate stays a lower
        # bound and meets the dense SVD
        system, _ = compatible_problem(
            builtin_factor_family("geometric", 1.0, a=0.0, p=0, q=0),
            row_trace_boundary_operators, 1, 32, 1.0, 0)[2:]
        widths = recorded_qr_widths(monkeypatch)
        estimated = estimated_operators(system)
        for name, dense in zip("AP", dense_operators(system)):
            apply, adjoint = estimated[name]
            sigma = np.linalg.svd(dense, compute_uv=False)[0]
            got = _sigma_max_estimate(apply, adjoint, system.size)
            assert got <= sigma * (1 + 1e-12), name
            assert got == pytest.approx(sigma, rel=1e-12), name
        # the whole basis was orthonormalized again in each estimate
        assert widths.count(_ESTIMATE_BLOCK * (_ESTIMATE_POWER_STEPS + 1)) == 2

    def test_operator_smaller_than_one_block(self, rng):
        # 2nN = 4 (n = 1, N = 2, which a config may ask for) is below the
        # block's 8 columns: the first block spans the whole space
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = _sigma_max_estimate(lambda v: m @ v, lambda v: m.conj().T @ v, 4)
        assert got == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


def stored_kernel_family(symbols, inv_plus, x1, x2, powers, transpose=False, inputs=None):
    """Reference: one kernel family as assembly stored it before it kept
    cores, all n^2 blocks ``core_j * p^k`` written in place, with ``p`` the
    power base at the output nodes and ``inv_plus`` the inverse factor
    with the quadrature weight in it."""
    n = len(symbols)
    cores = [np.asarray(sym(x1, x2), dtype=complex) * inv_plus for sym in symbols]
    out, inp = inv_plus.T.shape if transpose else inv_plus.shape
    if inputs is not None:
        inp = int(np.count_nonzero(inputs))
    kernels = np.empty((n, out, n, inp), dtype=complex).transpose(0, 2, 1, 3)
    for j, core in enumerate(cores):
        core = core.T if transpose else core
        if inputs is not None:
            core = core[:, inputs]
        for k in range(n):
            pk = powers ** k
            block = kernels[j, k]
            np.multiply(core, pk[:, None], out=block)
    return cores, kernels


def stored_assembly(n, nodes, weight, h, plus_factor, bottom_symbols, left_symbols,
                    rows=None):
    """Reference: ``(bottom_kernel, left_kernel)`` as ``_assemble`` stored
    them when it kept kernel stacks, and the uncut bottom and left cores in
    ``(out, in)`` order, whose rows the multipliers integrate, a strip's
    outside its rows.  The weight
    is folded as assembly folds it: the reciprocal of the factor, times the
    weight, times the symbol."""
    def weighted_inverse(x1, x2):
        inv = 1.0 / _plus_values(plus_factor, x1, x2)
        inv *= weight
        return inv

    out = nodes if rows is None else nodes[rows]
    xb1, xb2 = _open_mesh(out, nodes)
    xl1, xl2 = (xb1, xb2) if rows is None else _open_mesh(nodes, out)
    inv_plus_b = weighted_inverse(xb1, xb2)
    inv_plus_l = inv_plus_b if rows is None else weighted_inverse(xl1, xl2)
    powers_out = _power_base(out, h)
    bottom_cores, bottom_kernel = stored_kernel_family(bottom_symbols, inv_plus_b, xb1, xb2,
                                                       powers_out, inputs=rows)
    left_cores, left_kernel = stored_kernel_family(left_symbols, inv_plus_l, xl1, xl2,
                                                   powers_out, transpose=True, inputs=rows)
    return bottom_kernel, left_kernel, bottom_cores, [core.T for core in left_cores]


def skewed_assembly(h, lattice_window):
    """``_assemble``'s arguments for the skewed problem: on the whole line
    (``h`` None), or on a torus window with difference powers."""
    problem = skewed_problem()
    grid = aligned_line_grid([0.5, 0.25], 8)
    nodes = grid.axis_nodes[window_mask(grid, lattice_window)] if h else grid.axis_nodes
    return dict(n=problem.n, nodes=nodes, weight=grid.axis_weight, h=h,
                plus_factor=problem.plus_factor, bottom_symbols=problem.bottom_symbols,
                left_symbols=problem.left_symbols)


def factorization_assembly(h=0.5, N=24):
    """``_assemble``'s arguments for an n = 2 lattice problem of a factor
    family with row-trace operators."""
    fac = builtin_factor_family("geometric", h, a=-0.4, p=2, q=1)
    bottom, left = row_trace_boundary_operators(2, h)
    grid = FrequencyGrid(h, N)
    return dict(n=2, nodes=grid.axis_nodes, weight=grid.axis_weight, h=h,
                plus_factor=fac.plus_factor, bottom_symbols=bottom, left_symbols=left)


ASSEMBLIES = {
    "continuous": lambda: skewed_assembly(None, None),
    "lattice": lambda: skewed_assembly(0.5, 0.5),
    "factorization": factorization_assembly,
}


LAYOUT_SYSTEMS = {
    "lattice": lambda: ELIMINATION_CASES["row_trace_n2"](None)[0],
    "continuous": lambda: assemble_continuous_system(
        skewed_problem(), aligned_line_grid([0.5, 0.25], 8)),
    "window": lambda: _assemble(**ASSEMBLIES["lattice"]()),
    "shifted_zeta_n3": lambda: ELIMINATION_CASES["shifted_zeta_n3_low_kappa"](None)[0],
}


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestOperatorLayout:
    """A block system stores each kernel family as its n cores: the kernel
    stacks it stood for are formed bit for bit from them, and the solver
    applies the kernels from the cores, to the same bits in any layout."""

    @pytest.mark.parametrize("strip", [False, True], ids=["full", "rows"])
    @pytest.mark.parametrize("kind", sorted(ASSEMBLIES))
    def test_kernel_blocks_equal_the_stored_stacks(self, rng, kind, strip):
        # the kernel stacks bit for bit; the multipliers, whose summing
        # order is the assembly's choice, to the rounding of a sum, a
        # strip's over the nodes outside its rows
        args = ASSEMBLIES[kind]()
        N = len(args["nodes"])
        rows = rng.random(N) < 0.4 if strip else None
        system = _assemble(**args, rows=rows)
        R = N if rows is None else int(rows.sum())
        assert system.n == 2 and 0 < R <= N
        for core in (system.bottom_core, system.left_core):
            assert core.shape == (2, R, R) and core.flags.c_contiguous
        *stacks, bottom_cores, left_cores = stored_assembly(**args, rows=rows)
        for field, g, want in zip(("bottom_kernel", "left_kernel"),
                                  kernel_stacks(system, rows), stacks):
            assert g.shape == want.shape, field
            assert np.array_equal(g, want), field
        inputs = slice(None) if rows is None else ~rows
        powers = _power_base(args["nodes"], args["h"])[inputs]
        for field, cores in (("bottom_mult", bottom_cores), ("left_mult", left_cores)):
            g = getattr(system, field)
            want, bound = fsum_multipliers([core[:, inputs] for core in cores], powers)
            assert g.shape == want.shape == (2, 2, R), field
            assert np.all(np.abs(g.real - want.real) <= bound), field
            assert np.all(np.abs(g.imag - want.imag) <= bound), field

    @pytest.mark.parametrize("kind", sorted(LAYOUT_SYSTEMS))
    def test_core_products_match_the_dense_matrix(self, rng, kind):
        # K v, K^H u and the Frobenius norm of both kernels as the solver
        # takes them from the cores, against the dense oracle: a transposed
        # core or a power at the input nodes fails this
        system = LAYOUT_SYSTEMS[kind]()
        m = system.n * len(system.nodes)
        a = full_matrix(system)
        dense = (a[:m, m:], a[m:, :m])
        identity = np.broadcast_to(np.eye(system.n)[None, :, :, None],
                                   (2, system.n, system.n, len(system.nodes)))
        ops = _CompressedSystem(system, system.gauge_basis, identity)
        v = rng.standard_normal((2 * m, 3)) + 1j * rng.standard_normal((2 * m, 3))
        assert relative_gap(ops.a(v), a @ v) <= 1e-13
        u = v[:m]
        for core, k in zip(ops.cores, dense):
            assert relative_gap(_kernel_apply(core, ops.powers, u), k @ u) <= 1e-13
            assert relative_gap(_kernel_adjoint(core, ops.powers, u),
                                k.conj().T @ u) <= 1e-13
            assert _kernel_norm(core, ops.powers) == pytest.approx(np.linalg.norm(k), rel=1e-13)

    @pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
    def test_contiguous_stacks_solve_to_the_same_bits(self, rng, case):
        # the solver takes the cores in C order: cores in another layout,
        # here Fortran order, solve to the bits of the assembled C-ordered
        # ones, at n = 1 too, where the stacked core is the core itself
        system, data = ELIMINATION_CASES[case](rng)
        traces, rep = solve_block_system(system, data)
        fortran = replace(system, bottom_core=np.asfortranarray(system.bottom_core),
                          left_core=np.asfortranarray(system.left_core))
        assert not fortran.bottom_core.flags.c_contiguous
        traces_f, rep_f = solve_block_system(fortran, data)
        assert np.array_equal(stacked_values(traces), stacked_values(traces_f))
        assert rep == rep_f

    @pytest.mark.parametrize("field", ["bottom_core", "left_core"])
    @pytest.mark.parametrize("layout", ["fortran", "swapped"])
    def test_finiteness_check_takes_any_layout(self, field, layout):
        # a non-finite core raises, naming its field, in any memory layout
        system = LAYOUT_SYSTEMS["lattice"]()
        arrange = {"fortran": np.asfortranarray,
                   "swapped": lambda a: np.ascontiguousarray(a).swapaxes(-1, -2)}[layout]
        core = arrange(getattr(system, field))
        assert not core.flags.c_contiguous
        replace(system, **{field: core})  # finite: constructs
        bad = core.copy(order="K")
        assert not bad.flags.c_contiguous
        bad[0, 0, 1] = np.nan
        with pytest.raises(AssemblyError, match=f"non-finite entries in block {field}"):
            replace(system, **{field: bad})

    def test_assembly_retains_only_the_cores(self):
        # n cores per edge, 2 n N^2 complex values in all, and no stack of
        # the n^2 blocks at any time: at (n, N) = (2, 384) the cores take
        # 9 MiB and one kernel stack alone would take 9 MiB more; a
        # mesh-sized temporary per multiplier sum peaked at 13.8 MiB, the
        # multipliers as matrix-vector products at 11.9 MiB
        n, N = 2, 384
        fac = builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1)
        bottom, left = row_trace_boundary_operators(n, 1.0)
        spec = ProblemSpec(s=fac.index - (n + 0.25), factorization=fac, n=n,
                           delta=0.25, bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(1.0, N)
        grid.axis_nodes  # cached before tracing
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            system = assemble_discrete_system(spec, grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cores = 2 * n * N * N * 16
        assert system.bottom_core.nbytes + system.left_core.nbytes == cores
        # the cores plus the (n, n, N) multipliers of both edges
        assert retained - start <= cores + 2 * n * n * N * 16 + 2 ** 16
        assert peak - start < 13 * 2 ** 20

    def test_solve_allocates_less_than_one_kernel_stack(self):
        # the kernels are applied from the cores in place, and neither a
        # kernel stack nor the dense (2nN)^2 matrix is formed: at (n, N) =
        # (2, 384) one stack would take 9 MiB, the dense matrix 36 MiB
        system, data = compatible_problem(
            builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1),
            row_trace_boundary_operators, 2, 384, 1.0, 1)[2:]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_block_system(system, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 9 * 2 ** 20


class TestStructuralGauge:
    def test_null_basis_annihilates_the_matrix(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.4, p=1, q=1)
        bottom, left = row_trace_boundary_operators(2, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        sys = assemble_discrete_system(spec, FrequencyGrid(h, 16))
        a = full_matrix(sys)
        z = structural_null_basis(sys)
        assert z.shape[1] == 4
        scale = np.max(np.abs(a)) * np.max(np.abs(z))
        assert np.max(np.abs(a @ z)) <= 1e-12 * scale

    def test_gauge_projection_preserves_the_spectrum(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        grid = FrequencyGrid(h, 16)
        grid1 = FrequencyGrid(h, 16, ndim=1)
        planted = random_trace_vector(rng, grid1, 2)
        sys = assemble_discrete_system(
            ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                        bottom_ops=row_trace_boundary_operators(2, h)[0],
                        left_ops=row_trace_boundary_operators(2, h)[1]), grid)
        stacked = np.concatenate([f.values for f in planted.bottom + planted.left])
        gauged = project_out_gauge(sys, stacked).reshape(4, 16)
        projected = TraceVector(
            bottom=tuple(SpectralFunction(grid1, gauged[k]) for k in range(2)),
            left=tuple(SpectralFunction(grid1, gauged[2 + k]) for k in range(2)))
        u1 = reconstruct_solution(planted, fac, grid)
        u2 = reconstruct_solution(projected, fac, grid)
        assert np.max(np.abs(u1.values - u2.values)) <= 1e-12 * np.max(np.abs(u1.values))


    def test_round_trip_factors_the_gauge_basis_once(self, rng, monkeypatch):
        # the solve and the projection of the planted traces share the
        # system's gauge basis
        h, n, N = 1.0, 2, 16
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = row_trace_boundary_operators(n, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=n, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        planted = random_trace_vector(rng, FrequencyGrid(h, N, ndim=1), n)
        shapes = []
        qr = np.linalg.qr

        def recording_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        manufactured_roundtrip(spec, planted, FrequencyGrid(h, N))
        assert shapes.count((2 * n * N, n ** 2)) == 1


class TestReconstruction:
    def test_constant_bottom_trace_with_unit_factor(self, trivial_factorization):
        grid = FrequencyGrid(1.0, 8)
        grid1 = FrequencyGrid(1.0, 8, ndim=1)
        traces = TraceVector(
            bottom=(SpectralFunction(grid1, np.ones(8)),),
            left=(SpectralFunction(grid1, np.zeros(8)),))
        u = reconstruct_solution(traces, trivial_factorization, grid)
        assert np.allclose(u.values, 1.0)

    def test_single_surviving_power_term(self, trivial_factorization):
        grid = FrequencyGrid(1.0, 8)
        grid1 = FrequencyGrid(1.0, 8, ndim=1)
        zero = SpectralFunction(grid1, np.zeros(8))
        one = SpectralFunction(grid1, np.ones(8))
        traces = TraceVector(bottom=(zero, zero), left=(zero, one))
        u = reconstruct_solution(traces, trivial_factorization, grid)
        x1, _ = grid.nodes_2d()
        assert np.allclose(u.values, zeta(x1, 1.0), atol=1e-14)

    def test_traces_on_another_mesh_rejected(self, rng):
        # same node count, so only the mesh tells the traces apart
        fac = builtin_factor_family("geometric", 1.0, a=0.5, p=1, q=1)
        bottom, left = row_trace_boundary_operators(1, 1.0)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        planted = random_trace_vector(rng, FrequencyGrid(0.5, 32, ndim=1), 1)
        with pytest.raises(MeshMismatchError,
                           match="bottom trace component 0 mesh 0.5 does not match "
                                 "grid mesh 1.0"):
            manufactured_roundtrip(spec, planted, FrequencyGrid(1.0, 32))

    def test_traces_with_another_node_count_rejected(self, trivial_factorization):
        one = SpectralFunction(FrequencyGrid(1.0, 32, ndim=1), np.ones(32))
        short = SpectralFunction(FrequencyGrid(1.0, 16, ndim=1), np.ones(16))
        traces = TraceVector(bottom=(one, one), left=(one, short))
        with pytest.raises(MeshMismatchError,
                           match="left trace component 1 has 16 nodes, the grid 32"):
            reconstruct_solution(traces, trivial_factorization, FrequencyGrid(1.0, 32))

    def test_factorization_on_another_mesh_rejected(self, rng):
        fac = builtin_factor_family("geometric", 0.5, a=0.5, p=1, q=1)
        traces = random_trace_vector(rng, FrequencyGrid(1.0, 32, ndim=1), 1)
        with pytest.raises(MeshMismatchError,
                           match="factorization mesh 0.5 does not match grid mesh 1.0"):
            reconstruct_solution(traces, fac, FrequencyGrid(1.0, 32))


class TestHomogeneousResidual:
    @pytest.mark.parametrize("n,s", [(1, -1.25), (2, -2.25)])
    def test_interior_residual_is_negligible(self, rng, n, s):
        # the reconstructed spectrum solves the homogeneous equation at
        # lattice points beyond the first n boundary layers
        h, N = 1.0, 64
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        grid = FrequencyGrid(h, N)
        grid1 = FrequencyGrid(h, N, ndim=1)
        traces = random_trace_vector(rng, grid1, n)
        u_hat = reconstruct_solution(traces, fac, grid)
        full = PeriodicSymbol(lambda a, b: fac.full_symbol(a, b), 0.0, h)
        points = [(i, j) for i in range(n, n + 5) for j in range(n, n + 5)]
        res = apply_symbol_to_spectrum(full, u_hat, points)
        budget = 1e-6 * sobolev_norm_2d(u_hat, s)
        assert np.max(np.abs(res.values)) <= budget


class TestManufacturedRoundtrip:
    def test_unit_symbols_recover_planted_traces(self, rng):
        grid = FrequencyGrid(1.0, 64)
        grid1 = FrequencyGrid(1.0, 64, ndim=1)
        planted = random_trace_vector(rng, grid1, 1)
        rep = manufactured_roundtrip(trivial_spec(), planted, grid)
        assert rep.rel_error <= 1e-8

    def test_zero_traces_recover_zero(self):
        grid = FrequencyGrid(1.0, 16)
        grid1 = FrequencyGrid(1.0, 16, ndim=1)
        zero = SpectralFunction(grid1, np.zeros(16))
        planted = TraceVector(bottom=(zero,), left=(zero,))
        rep = manufactured_roundtrip(trivial_spec(), planted, grid)
        for f in rep.recovered.bottom + rep.recovered.left:
            assert np.allclose(f.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("family,params,index", [
        ("geometric", dict(a=0.5, p=1, q=1), 0.0),
        ("shifted_zeta", dict(c=5.0, kappa=1.0), 1.0),
    ])
    def test_builtin_families_roundtrip(self, rng, family, params, index):
        h = 1.0
        fac = builtin_factor_family(family, h, **params)
        bottom, left = zeta_boundary_operators(1, h)
        spec = ProblemSpec(s=index - 1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 64)
        grid1 = FrequencyGrid(h, 64, ndim=1)
        planted = random_trace_vector(rng, grid1, 1)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.rel_error <= 1e-8

    def test_error_does_not_grow_under_refinement(self, rng):
        # planted and recovered traces agree through the shared quadrature,
        # so the error sits at solver precision for every N (well below any
        # second-order-in-N budget)
        h = 1.0
        for N in (32, 64, 128):
            fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
            bottom, left = zeta_boundary_operators(1, h)
            spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                               bottom_ops=bottom, left_ops=left)
            planted = random_trace_vector(rng, FrequencyGrid(h, N, ndim=1), 1)
            rep = manufactured_roundtrip(spec, planted, FrequencyGrid(h, N))
            assert rep.rel_error <= 1e-8

    def test_two_condition_problem_roundtrip(self, rng):
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = row_trace_boundary_operators(2, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 48)
        planted = random_trace_vector(rng, FrequencyGrid(h, 48, ndim=1), 2)
        rep = manufactured_roundtrip(spec, planted, grid)
        assert rep.rel_error <= 1e-8

    def test_difference_power_conditions_degenerate_for_two_rows(self, rng):
        # with a one-sided factor family the difference-power conditions
        # couple through a rank-one multiplier block at n = 2: the problem
        # is detected as not uniquely solvable
        h = 1.0
        fac = builtin_factor_family("geometric", h, a=0.5, p=1, q=1)
        bottom, left = zeta_boundary_operators(2, h)
        spec = ProblemSpec(s=-2.25, factorization=fac, n=2, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, 32)
        planted = random_trace_vector(rng, FrequencyGrid(h, 32, ndim=1), 2)
        with pytest.raises(NearSingularError):
            manufactured_roundtrip(spec, planted, grid)


def test_solution_norm_to_trace_norm_ratio_is_mesh_stable(rng):
    # the constant bounding the solution norm by the summed trace norms
    # should not drift with the mesh
    bumps_bottom = random_bumps(rng, math.pi)
    bumps_left = random_bumps(rng, math.pi)
    ratios = []
    for h in (1.0, 0.5, 0.25):
        N = int(32 / h)
        fac = builtin_factor_family("geometric", h, a=0.25, p=1, q=1)
        grid = FrequencyGrid(h, N)
        grid1 = FrequencyGrid(h, N, ndim=1)
        traces = TraceVector(
            bottom=(SpectralFunction(grid1, bumps_bottom(grid1.axis_nodes)),),
            left=(SpectralFunction(grid1, bumps_left(grid1.axis_nodes)),))
        u = reconstruct_solution(traces, fac, grid)
        s = -1.25
        s0 = trace_exponents(s, fac.index, 1)[0]
        denom = sobolev_norm_1d(traces.bottom[0], s0) + sobolev_norm_1d(traces.left[0], s0)
        ratios.append(sobolev_norm_2d(u, s) / denom)
    assert max(ratios) / min(ratios) <= 2.0


class TestContinuousAssembly:
    def test_multiplier_matches_arctan_closed_form(self):
        # unit boundary symbol over the squared-radius factor: the exact
        # multiplier is (2 / a) atan(half_width / a) with a^2 = 1 + xi1^2
        problem = radial_power_problem(s=0.75, n=1, delta=0.25,
                                       bottom_orders=[0.0], left_orders=[0.0])
        assert problem.index == pytest.approx(2.0)
        grid = aligned_line_grid([0.5], 256, lambda_factor=4.0)
        sys = assemble_continuous_system(problem, grid)
        nodes = grid.axis_nodes
        a = np.sqrt(1.0 + nodes ** 2)
        exact = 2.0 / a * np.arctan(grid.half_width / a)
        assert np.max(np.abs(sys.bottom_mult[0, 0] - exact)) <= 1e-5

    def test_odd_power_multiplier_vanishes_by_symmetry(self):
        # for an even kernel the first-power row integrand is odd and the
        # symmetric node set cancels it exactly
        problem = radial_power_problem(s=2.25, n=2, delta=-0.25,
                                       bottom_orders=[0.0, 0.0],
                                       left_orders=[0.0, 0.0])
        grid = aligned_line_grid([1.0], 64, lambda_factor=4.0)
        sys = assemble_continuous_system(problem, grid)
        scale = np.max(np.abs(sys.bottom_mult[0, 0]))
        assert np.max(np.abs(sys.bottom_mult[0, 1])) <= 1e-12 * scale

    def test_multipliers_map_trace_zero_onto_data_of_exponent_s_minus_order_minus_3_2(self):
        # the section gap problem: |mult[j, 0]| grows like <xi>^(order_j -
        # index + 1), so <xi>^(s - order_j - e) |mult[j, 0]| <xi>^(-te_0),
        # the multiplier block between the trace space of exponent te_0 and
        # data of exponent s - order_j - e, is flat over 10 < |xi| < 200 at
        # e = 3/2 and grows like <xi> at e = 1/2; the multipliers at those
        # nodes are a strip's sums outside them plus its cores' row sums
        problem = radial_power_problem(s=3.25, n=2, delta=-0.25, bottom_orders=[0.0, -1.0],
                                       left_orders=[0.0, -1.0])
        grid = lattice.LineGrid(1000.0, 2000)
        rows = (np.abs(grid.axis_nodes) > 10.0) & (np.abs(grid.axis_nodes) < 200.0)
        part = strip(problem, grid.axis_nodes, rows, weight=grid.axis_weight)
        log_bracket = 0.5 * np.log1p(grid.axis_nodes[rows] ** 2)
        te_0 = problem.trace_exponents[0]
        for orders, mult, core in ((problem.bottom_orders, part.bottom_mult, part.bottom_core),
                                   (problem.left_orders, part.left_mult, part.left_core)):
            for j, order in enumerate(orders):
                log_mult = np.log(np.abs(mult[j, 0] + core[j].sum(axis=1)))
                for e, slope in ((1.5, 0.0), (0.5, 1.0)):
                    fitted = np.polyfit(log_bracket, (problem.s - order - e - te_0) * log_bracket
                                        + log_mult, 1)[0]
                    assert abs(fitted - slope) <= 0.05, (order, e, fitted)

    def test_continuous_solve_runs_and_reports(self, rng):
        problem = radial_power_problem(
            s=0.75, n=1, delta=0.25, bottom_orders=[0.0], left_orders=[0.0])
        grid = aligned_line_grid([1.0], 32, lambda_factor=2.0)
        bump = random_bumps(rng, math.pi)(grid.axis_nodes)
        sys = assemble_continuous_system(problem, grid)
        traces, rep = solve_block_system(sys, trace_data(sys, [bump], [bump]))
        assert rep.residual <= 1e-10
        assert traces.bottom[0].grid.ndim == 1

    def test_continuous_data_with_another_node_count_rejected(self):
        # a line has no mesh to compare, only its node count
        problem = radial_power_problem(
            s=0.75, n=1, delta=0.25, bottom_orders=[0.0], left_orders=[0.0])
        sys = assemble_continuous_system(problem, aligned_line_grid([1.0], 32, 2.0))
        ok = SpectralFunction(sys.trace_grid(), np.ones(len(sys.nodes)))
        short = SpectralFunction(FrequencyGrid(1.0, 16, ndim=1), np.ones(16))
        with pytest.raises(MeshMismatchError, match="bottom data component 0 has 16 "
                                                    f"nodes, the grid {len(sys.nodes)}"):
            solve_block_system(sys, TraceVector(bottom=(short,), left=(ok,)))


def dense(ev):
    """The evaluator on the dense mesh its open-mesh arguments broadcast to."""
    return lambda x1, x2: ev(*np.broadcast_arrays(x1, x2))


def with_evaluators(wrap, fac, ops):
    """The factorization and boundary operators with every evaluator wrapped."""
    def wrapped(symbol):
        return replace(symbol, evaluate=wrap(symbol.evaluate))

    fac = replace(fac, plus_factor=wrap(fac.plus_factor),
                  minus_factor=wrap(fac.minus_factor))
    return fac, tuple(tuple(map(wrapped, edge)) for edge in ops)


def strip(problem, nodes, rows, h=None, weight=0.1):
    return _assemble(n=problem.n, nodes=nodes, weight=weight, h=h,
                     plus_factor=problem.plus_factor,
                     bottom_symbols=problem.bottom_symbols,
                     left_symbols=problem.left_symbols, rows=rows)


def pair_strips(problem, nodes, rows):
    """``_kernel_strips`` between the masked nodes and all of them, with
    unit scales: the kernel stacks' entries."""
    window = nodes[rows]
    return _kernel_strips(problem, window, nodes, 0.1, unit_scales(problem, window, nodes))


BLOCKS = ("bottom_mult", "bottom_core", "left_core", "left_mult")


class TestOpenMesh:
    """Evaluators receive open meshes, (R, 1) and (1, N) node arrays, and
    every block is the one the dense mesh gives, bit for bit."""

    def test_no_evaluator_sees_more_than_one_axis_of_nodes(self, rng, monkeypatch):
        h, N, n = 1.0, 16, 2
        sizes = []

        def record(ev):
            def recorded(*xi):
                sizes.append(max(np.size(x) for x in xi))
                return ev(*xi)
            return recorded

        fac, (bottom, left) = with_evaluators(
            record, builtin_factor_family("geometric", h, a=0.5, p=1, q=1),
            row_trace_boundary_operators(n, h))
        spec = ProblemSpec(s=-2.25, factorization=fac, n=n, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        grid = FrequencyGrid(h, N)
        planted = random_trace_vector(rng, FrequencyGrid(h, N, ndim=1), n)
        problem = with_continuous_evaluators(
            record, radial_power_problem(s=2.25, n=1, delta=-0.25,
                                         bottom_orders=[0.0], left_orders=[0.0]))
        nodes = grid.axis_nodes
        rows = np.abs(nodes) < 1.0
        u_hat = reconstruct_solution(planted, fac, grid)
        monkeypatch.setattr(lattice, "zeta_squared_2d", record(lattice.zeta_squared_2d))
        full = PeriodicSymbol(record(fac.full_symbol), 0.0, h)
        steps = {
            "reconstruct_solution": lambda: reconstruct_solution(planted, fac, grid),
            "boundary_trace_spectrum": lambda: [
                boundary_trace_spectrum(op, u_hat, side)
                for ops, side in ((bottom, "bottom"), (left, "left")) for op in ops],
            "assemble_discrete_system": lambda: assemble_discrete_system(spec, grid),
            "rows strip": lambda: strip(problem, nodes, rows),
            "_kernel_strips": lambda: pair_strips(problem, nodes, rows),
            "apply_symbol_to_spectrum": lambda: apply_symbol_to_spectrum(
                full, u_hat, [(2, 2), (3, 4)]),
            "sobolev_norm_2d": lambda: sobolev_norm_2d(u_hat, -2.25),
        }
        for name, step in steps.items():
            sizes.clear()
            step()
            assert sizes, name
            assert max(sizes) <= N, (name, max(sizes))

    def test_evaluators_see_open_meshes_in_both_orientations(self):
        # each kernel family is evaluated on a mesh in its (out, in) order:
        # an evaluator gets one (a, 1) and one (1, b) array, either way round
        shapes = []

        def record(ev):
            def recorded(x1, x2):
                shapes.append((np.shape(x1), np.shape(x2)))
                return ev(x1, x2)
            return recorded

        problem = with_continuous_evaluators(record, skewed_problem())
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        steps = {
            "full": lambda: strip(problem, nodes, None),
            "rows": lambda: strip(problem, nodes, rows),
            "_kernel_strips": lambda: pair_strips(problem, nodes, rows),
        }
        for name, step in steps.items():
            shapes.clear()
            step()
            for s1, s2 in shapes:
                assert len(s1) == len(s2) == 2, (name, s1, s2)
                column, row = (s1, s2) if s1[1] == 1 else (s2, s1)
                assert column[1] == row[0] == 1 < min(column[0], row[1]), (name, s1, s2)
            assert {s1[1] == 1 for s1, _ in shapes} == {True, False}, name

    @pytest.mark.parametrize("family,params", [
        ("geometric", dict(a=0.5, p=2, q=0)),
        ("geometric", dict(a=-0.3, p=1, q=1)),
        ("shifted_zeta", dict(c=9.5, kappa=1.5)),
    ])
    @pytest.mark.parametrize("operators", [row_trace_boundary_operators,
                                           zeta_boundary_operators])
    def test_lattice_blocks_equal_the_dense_mesh_blocks(self, family, params, operators):
        h, n = 0.5, 2
        fac = builtin_factor_family(family, h, **params)
        grid = FrequencyGrid(h, 24)
        blocks = []
        for wrap in (lambda ev: ev, dense):
            wfac, (bottom, left) = with_evaluators(wrap, fac, operators(n, h))
            spec = ProblemSpec(s=fac.index - (n + 0.25), factorization=wfac, n=n,
                               delta=0.25, bottom_ops=bottom, left_ops=left)
            blocks.append(assemble_discrete_system(spec, grid))
        for field in BLOCKS:
            assert np.array_equal(getattr(blocks[0], field), getattr(blocks[1], field)), field

    @pytest.mark.parametrize("orders", [[0.0], [0.0, -1.0]], ids=["n1", "n2"])
    def test_order_zero_radial_symbols_are_a_one_that_broadcasts(self, orders):
        # pow(r2, 0) is exactly 1: the order-0 evaluators return a (1, 1)
        # one, and strips and pair strips equal those of evaluators that
        # return the mesh of ones, bit for bit
        problem = radial_power_problem(s=2.25, n=len(orders), delta=-0.25,
                                       bottom_orders=orders, left_orders=orders)
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        mesh = _open_mesh(nodes[rows], nodes)
        for ev, order in zip(problem.bottom_symbols + problem.left_symbols, orders * 2):
            values = ev(*mesh)
            assert values.shape == ((1, 1) if order == 0.0 else (rows.sum(), len(nodes)))
            assert order != 0.0 or values[0, 0] == 1.0
        ones = tuple(ones_symbol if order == 0.0 else ev
                     for ev, order in zip(problem.bottom_symbols, orders))
        meshed = replace(problem, bottom_symbols=ones, left_symbols=ones)
        got, want = strip(problem, nodes, rows), strip(meshed, nodes, rows)
        for field in BLOCKS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for got, want in zip(pair_strips(problem, nodes, rows), pair_strips(meshed, nodes, rows)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("make", [
        lambda: radial_power_problem(s=2.25, n=2, delta=-0.25, bottom_orders=[0.0, -1.0],
                                     left_orders=[0.5, 0.0]),
        skewed_problem,
    ], ids=["radial", "skewed"])
    def test_continuous_blocks_equal_the_dense_mesh_blocks(self, make):
        problem = make()
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        open_, dense_ = problem, with_continuous_evaluators(dense, problem)
        pairs = [(assemble_continuous_system(open_, grid),
                  assemble_continuous_system(dense_, grid)),
                 (strip(open_, nodes, rows), strip(dense_, nodes, rows))]
        for got, want in pairs:
            for field in BLOCKS:
                assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_real_evaluators_give_the_cores_of_their_complex_casts(self):
        # a real plus factor and real symbols give real cores, equal in
        # value to those of the complex casts (a real product rounds as the
        # real part of the complex one), and n = 2 strips equal to the
        # casts' bit for bit; the multipliers are summed in real arithmetic,
        # within the rounding of a sum of the oracle's, the strip's over the
        # nodes outside its rows
        problem = radial_power_problem(s=2.25, n=2, delta=-0.25, bottom_orders=[0.0, -1.0],
                                       left_orders=[0.5, 0.0])
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        assert not np.iscomplexobj(problem.plus_factor(*_open_mesh(nodes, nodes)))
        cast = with_continuous_evaluators(
            lambda ev: lambda x1, x2: np.asarray(ev(x1, x2), dtype=complex), problem)
        full = assemble_continuous_system(problem, grid)
        powers = _power_base(nodes, None)
        # the rows a system holds and the nodes its multipliers sum over;
        # strips take the full system's weight, so its cores are the terms
        weight = grid.axis_weight
        cases = [(full, assemble_continuous_system(cast, grid), slice(None), slice(None)),
                 (strip(problem, nodes, rows, weight=weight),
                  strip(cast, nodes, rows, weight=weight), rows, ~rows)]
        for got, want, cut, inputs in cases:
            for field in ("bottom_core", "left_core"):
                assert getattr(got, field).dtype == np.float64, field
                assert getattr(want, field).dtype == np.complex128, field
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            for field, cores in (("bottom_mult", full.bottom_core),
                                 ("left_mult", full.left_core)):
                oracle, bound = fsum_multipliers(cores[:, cut][..., inputs], powers[inputs])
                for mult in (getattr(got, field), getattr(want, field)):
                    assert np.all(np.abs(mult.real - oracle.real) <= bound), field
                    assert np.all(np.abs(mult.imag - oracle.imag) <= bound), field
        for got, want in zip(pair_strips(problem, nodes, rows),
                             pair_strips(cast, nodes, rows)):
            assert got.dtype == want.dtype == np.complex128
            assert np.array_equal(got, want)

    def test_vanishing_plus_factor_names_both_coordinates(self, rng):
        # the factor vanishes at exactly one node, (3, 11); each mesh that
        # contains it names the node's two coordinates
        h, N = 1.0, 16
        grid = FrequencyGrid(h, N)
        nodes = grid.axis_nodes
        a, b = nodes[3], nodes[11]

        def plus(x1, x2):
            return (x1 - a) + 1j * (x2 - b)

        where = re.escape(f"plus factor vanishes at node (xi1={a:.6g}, xi2={b:.6g})")
        fac = WaveFactorization(plus, ones_symbol, index=0.0, h=h)
        bottom, left = row_trace_boundary_operators(1, h)
        spec = ProblemSpec(s=-1.25, factorization=fac, n=1, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        problem = ContinuousProblem(
            s=-1.25, n=1, delta=0.25, plus_factor=plus, index=0.0,
            bottom_symbols=(ones_symbol,), left_symbols=(ones_symbol,),
            bottom_orders=(0.0,), left_orders=(0.0,))
        with pytest.raises(AssemblyError, match=where):
            assemble_discrete_system(spec, grid)
        # as an equation row of the bottom strip, then of the left one
        for node in (3, 11):
            rows = np.zeros(N, dtype=bool)
            rows[[node, 7]] = True
            with pytest.raises(AssemblyError, match=where):
                strip(problem, nodes, rows, h=h)
        traces = random_trace_vector(rng, FrequencyGrid(h, N, ndim=1), 1)
        with pytest.raises(AssemblyError, match=where):
            reconstruct_solution(traces, fac, grid)


class TestRealKernels:
    """The kernel dtype follows the evaluated values: real symbols over a
    real plus factor give float64 cores, a kernel stack is real only where
    every block is (n = 1), and the solver takes any core as complex."""

    def test_radial_n1_cores_and_strips_are_real(self):
        problem = radial_power_problem(s=2.25, n=1, delta=-0.25, bottom_orders=[0.0],
                                       left_orders=[0.0])
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        for system, cut in ((assemble_continuous_system(problem, grid), None),
                            (strip(problem, nodes, rows), rows)):
            assert system.bottom_core.dtype == system.left_core.dtype == np.float64
            assert system.bottom_mult.dtype == system.left_mult.dtype == np.complex128
            assert all(stack.dtype == np.float64 for stack in kernel_stacks(system, cut))
        for pair in pair_strips(problem, nodes, rows):
            assert pair.dtype == np.float64

    def test_radial_n2_kernel_stacks_are_complex_and_those_of_the_cast(self):
        # blocks k >= 1 of a real core take numpy's real x complex product,
        # which casts the core: the blocks of the complex cast core
        problem = radial_power_problem(s=2.25, n=2, delta=-0.25, bottom_orders=[0.0, -1.0],
                                       left_orders=[0.5, 0.0])
        system = assemble_continuous_system(problem, aligned_line_grid([0.5, 0.25], 8))
        powers = _power_base(system.nodes, None)
        for core, stack in zip((system.bottom_core, system.left_core), kernel_stacks(system)):
            assert core.dtype == np.float64 and stack.dtype == np.complex128
            assert np.array_equal(stack, kernel_stack(core.astype(complex), powers))

    def test_a_complex_symbol_after_a_real_one_makes_the_cores_complex(self):
        problem = radial_power_problem(s=2.25, n=2, delta=-0.25, bottom_orders=[0.0, -1.0],
                                       left_orders=[0.5, 0.0])
        second = problem.bottom_symbols[1]
        mixed = replace(problem, bottom_symbols=(
            problem.bottom_symbols[0], lambda x1, x2: second(x1, x2) * (1.0 + 0.5j)))
        cast = with_continuous_evaluators(
            lambda ev: lambda x1, x2: np.asarray(ev(x1, x2), dtype=complex), mixed)
        grid = aligned_line_grid([0.5, 0.25], 8)
        nodes = grid.axis_nodes
        rows = window_mask(grid, 0.25)
        for got, want in ((assemble_continuous_system(mixed, grid),
                           assemble_continuous_system(cast, grid)),
                          (strip(mixed, nodes, rows), strip(cast, nodes, rows))):
            assert got.bottom_core.dtype == np.complex128
            assert got.left_core.dtype == np.float64
            for field in ("bottom_core", "left_core"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("family,params", [
        ("geometric", dict(a=0.5, p=1, q=1)),
        ("shifted_zeta", dict(c=9.5, kappa=1.5)),
    ])
    @pytest.mark.parametrize("operators", [row_trace_boundary_operators,
                                           zeta_boundary_operators,
                                           identity_boundary_operators])
    def test_lattice_systems_keep_complex_cores(self, family, params, operators):
        h, n = 1.0, 1
        fac = builtin_factor_family(family, h, **params)
        bottom, left = operators(n, h)
        spec = ProblemSpec(s=fac.index - (n + 0.25), factorization=fac, n=n, delta=0.25,
                           bottom_ops=bottom, left_ops=left)
        system = assemble_discrete_system(spec, FrequencyGrid(h, 16))
        assert system.bottom_core.dtype == system.left_core.dtype == np.complex128

    @pytest.mark.parametrize("kind", ["unit lattice", "radial line"])
    def test_a_real_system_solves_as_its_complex_cast(self, rng, kind):
        # the solver casts real cores to complex: the same bits as cores
        # stored complex
        if kind == "unit lattice":
            system = assemble_discrete_system(trivial_spec(), FrequencyGrid(1.0, 16))
        else:
            system = assemble_continuous_system(
                radial_power_problem(s=0.75, n=1, delta=0.25, bottom_orders=[0.0],
                                     left_orders=[0.0]),
                aligned_line_grid([1.0], 32, lambda_factor=2.0))
        assert system.bottom_core.dtype == np.float64
        bump = random_bumps(rng, math.pi)(system.nodes)
        data = trace_data(system, [bump], [bump])
        cast = replace(system, bottom_core=system.bottom_core.astype(complex),
                       left_core=system.left_core.astype(complex))
        traces, rep = solve_block_system(system, data)
        traces_c, rep_c = solve_block_system(cast, data)
        assert np.array_equal(stacked_values(traces), stacked_values(traces_c))
        assert rep == rep_c and rep.residual <= 1e-10
