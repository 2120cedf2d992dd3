"""Frozen copy of the irpdg solver, the benchmark's speed yardstick.

perfbench times every solve of the library in ``src/`` next to a solve of
this copy on the same workload, in the same process, and reports the ratio,
which cancels the drift of a shared host's speed.  The copy must not change:
a later speed-up of ``src/`` shows as a ratio below 1.  It is ``src/irpdg``
as it was when the benchmark was defined, without the command-line module.
"""

from .euler_core import ConservedState, InvariantRegion, PrimitiveState, \
    entropy_floor_from_initial, in_region, in_region_interior, \
    max_signal_speed, physical_flux, pressure, q_functional, \
    specific_entropy, to_conserved, to_primitive
from .dg_space import DGField, Mesh1D, QuadratureRule, cell_average, \
    evaluate, gauss_legendre_rule, gauss_lobatto_rule, l2_project, \
    lax_friedrichs_flux, spatial_operator, test_set_size
from .irp_limiter import CellLimiterReport, FieldLimiterReport, \
    LIMITER_IRP, LIMITER_NONE, LIMITER_POSITIVITY, RegionViolationError, \
    apply_limiter, compute_theta, limit_field, test_set_extrema
from .riemann_exact import RiemannProblem, RiemannSolverError, StarState, \
    VacuumError, reference_on_mesh, sample, solve_star
from .time_integration import EvolveOptions, EvolveResult, \
    MultistepHistory, TimeController, compute_dt, evolve, ssp_ms3_step, \
    ssp_rk3_step
from .harness import ConvergenceRow, RunConfig, convergence_study, \
    error_norms, preset, run

__version__ = "0.1.0"
