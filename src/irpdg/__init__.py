"""1D DG solver for compressible Euler with an invariant-region-preserving limiter."""

from .euler_core import ConservedState, InvariantRegion, PrimitiveState, \
    entropy_floor_from_initial, in_region, in_region_interior, \
    max_signal_speed, physical_flux, pressure, q_functional, \
    specific_entropy, to_conserved, to_primitive
from .dg_space import DGField, Mesh1D, QuadratureRule, cell_average, \
    evaluate, gauss_legendre_rule, gauss_lobatto_rule, l2_project, \
    lax_friedrichs_flux, spatial_operator, test_set_size
from .irp_limiter import FieldLimiterReport, LIMITER_IRP, LIMITER_NONE, \
    LIMITER_POSITIVITY, RegionViolationError, limit_field
from .riemann_exact import RiemannProblem, RiemannSolverError, StarState, \
    VacuumError, reference_on_mesh, sample, solve_star
from .time_integration import EvolveOptions, EvolveResult, evolve, \
    ssp_ms3_step, ssp_rk3_step
from .harness import ConvergenceRow, RunConfig, convergence_study, \
    error_norms, preset, run

__version__ = "0.1.0"
