"""Discrete boundary value problems in a plane quadrant.

Solves a model lattice equation with wave-factorized symbols by reduction
to a block system of one-dimensional integral equations, and measures how
the lattice reduction converges to its continuous counterpart as the mesh
shrinks.
"""

from .errors import (AssemblyError, ConfigError, InvalidConfigurationError,
                     MeshMismatchError, NearSingularError, NormEstimateError)
from .lattice import (FrequencyGrid, LatticeFunction, LineGrid,
                      SpectralFunction, inverse_discrete_fourier,
                      sobolev_norm_1d, sobolev_norm_2d, zeta, zeta_squared_2d)
from .symbols import PeriodicSymbol, WaveFactorization, builtin_factor_family
from .operators import apply_symbol_to_spectrum, boundary_trace_spectrum
from .system import (BlockSystem, ContinuousProblem, GaussianBumps,
                     ProblemSpec, RoundtripReport, SolveReport, TraceVector,
                     assemble_continuous_system, assemble_discrete_system,
                     identity_boundary_operators, manufactured_roundtrip,
                     project_out_gauge, radial_power_problem, random_bumps,
                     random_trace_vector, reconstruct_solution,
                     row_trace_boundary_operators, solve_block_system,
                     structural_null_basis, trace_exponents,
                     zeta_boundary_operators)
from .comparison import (PowerGap, RateReport, WeightedOperatorFrame,
                         aligned_line_grid, commutator_rate_sweep,
                         estimate_operator_norm, fit_rate, kernel_gap_ratios,
                         section_gap_rate_sweep, window_mask, zeta_power_gap)

__version__ = "0.1.0"
