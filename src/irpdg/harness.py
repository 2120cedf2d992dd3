"""Benchmark harness: problem presets, error norms, convergence tables, CSV output.

The presets mirror the standard test battery for this solver family: a
smooth advected density wave with a known exact solution, the Lax and
custom shock tubes referenced against the exact Riemann solver, and the
Shu-Osher problem referenced against a fine-grid self-run.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable

import numpy as np

from .dg_space import DGField, INFLOW_OUTFLOW, Mesh1D, OUTFLOW, PERIODIC, \
    default_rule, evaluate_at_nodes, evaluate_at_x, gauss_legendre_rule, \
    l2_project
from .euler_core import ConservedState, InvariantRegion, PrimitiveState, \
    entropy_floor_from_initial, gas_state, to_conserved, to_primitive
from .irp_limiter import LIMITER_IRP, LIMITER_KINDS
from .riemann_exact import RiemannProblem, sample_primitives, star_of
from .time_integration import EvolveOptions, EvolveResult, MS3, PER_STAGE, \
    PER_STEP, RK3, StepDiagnostics, evolve

SMOOTH_ADVECTION = "smooth_advection"
LAX = "lax"
SHU_OSHER = "shu_osher"
CUSTOM_RIEMANN = "custom-riemann"
PROBLEMS = (SMOOTH_ADVECTION, LAX, SHU_OSHER, CUSTOM_RIEMANN)

OUTPUT_DIR_ENV = "IRPDG_OUTPUT_DIR"

# Fine-grid self-reference policy for Shu-Osher runs.
SHU_OSHER_REFERENCE_CELLS = 2560
SHU_OSHER_REFERENCE_DEGREE = 2


class ConfigError(ValueError):
    """Invalid run configuration (maps to CLI exit code 2)."""


@dataclass
class RunConfig:
    problem: str
    degree: int = 2
    n_cells: int = 100
    limiter: str = LIMITER_IRP
    integrator: str = RK3
    cfl_fraction: float | None = None
    t_final: float | None = None  # None picks the preset default
    gamma: float = 1.4
    epsilon: float = 1e-13
    output_path: str | None = None
    limiter_placement: str = PER_STAGE
    left: PrimitiveState | None = None  # custom-riemann data
    right: PrimitiveState | None = None
    x0: float = 0.0
    domain: tuple[float, float] | None = None

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.degree not in (1, 2, 3):
            raise ConfigError(f"degree must be 1, 2 or 3, got {self.degree}")
        if self.n_cells < 1:
            raise ConfigError("n_cells must be at least 1")
        if self.limiter not in LIMITER_KINDS:
            raise ConfigError(f"unknown limiter {self.limiter!r}")
        if self.integrator not in (RK3, MS3):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.limiter_placement not in (PER_STAGE, PER_STEP):
            raise ConfigError(f"unknown placement {self.limiter_placement!r}")
        for name in ("gamma", "epsilon", "cfl_fraction", "t_final", "x0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.cfl_fraction is not None and self.cfl_fraction <= 0.0:
            raise ConfigError("cfl_fraction must be positive")
        if self.t_final is not None and self.t_final < 0.0:
            raise ConfigError("t_final must be nonnegative")
        if self.gamma <= 1.0:
            raise ConfigError("gamma must exceed 1")
        if self.epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")
        if self.domain is not None:
            a, b = self.domain
            if not (math.isfinite(b - a) and b > a):
                raise ConfigError(f"domain must be finite a,b with b > a "
                                  f"and a finite width, got {a},{b}")
        if self.problem == CUSTOM_RIEMANN:
            if self.left is None or self.right is None:
                raise ConfigError("custom-riemann needs left and right states")
            for side, (rho, u, p) in (("left", self.left),
                                      ("right", self.right)):
                if not all(math.isfinite(v) for v in (rho, u, p)):
                    raise ConfigError(
                        f"{side} state must be finite, got {rho},{u},{p}")
                if rho <= 0.0 or p <= 0.0:
                    raise ConfigError(f"{side} state needs positive density "
                                      f"and pressure, got {rho},{u},{p}")
                w = to_conserved(PrimitiveState(rho, u, p), self.gamma)
                if not all(math.isfinite(v) for v in w):
                    raise ConfigError(f"{side} state's momentum or energy "
                                      f"overflows, got {rho},{u},{p}")


@dataclass
class Preset:
    """Initial data and exact density of one benchmark problem.

    ``rho0``, ``u0`` and ``p0`` are the initial primitive profiles, and
    ``w0`` the conserved state built from them.  ``exact(x, t)`` is the
    exact density; it is None for Shu-Osher, whose reference is a
    fine-grid run.  ``inflow`` is the upstream conserved state of an
    inflow_outflow boundary.
    """

    name: str
    domain: tuple[float, float]
    boundary: str
    default_t_final: float
    gamma: float
    rho0: Callable[[np.ndarray], np.ndarray]
    u0: Callable[[np.ndarray], np.ndarray]
    p0: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[np.ndarray, float], np.ndarray] | None
    inflow: ConservedState | None = None

    def w0(self, x) -> np.ndarray:
        """Stacked conserved initial state at x; shape (3,) + x's shape."""
        return np.stack(to_conserved(
            PrimitiveState(self.rho0(x), self.u0(x), self.p0(x)), self.gamma))


def _step(x0: float, left: float, right: float):
    """The profile x -> left where x < x0, else right."""
    return lambda x: np.where(np.asarray(x, dtype=float) < x0, left, right)


def _riemann_preset(name, left, right, gamma, x0, domain, t_final) -> Preset:
    problem = RiemannProblem(left, right, gamma, x0)
    rho0 = _step(x0, left.rho, right.rho)

    def exact(x, t):
        if t == 0.0:  # the exact solution at t = 0 is the initial data
            return rho0(x)
        if t < 0.0:
            raise ValueError(f"the exact solution needs t >= 0, got {t}")
        xi = (np.asarray(x, dtype=float) - x0) / t
        return sample_primitives(problem, star_of(problem), xi)[0]

    return Preset(
        name=name, domain=domain, boundary=OUTFLOW, default_t_final=t_final,
        gamma=gamma, rho0=rho0, u0=_step(x0, left.u, right.u),
        p0=_step(x0, left.p, right.p), exact=exact)


def preset(problem: str, gamma: float = 1.4,
           left: PrimitiveState | None = None,
           right: PrimitiveState | None = None,
           x0: float = 0.0) -> Preset:
    """Initial data, domain, boundary kind and exact density by name."""
    if problem == SMOOTH_ADVECTION:
        def exact(x, t):
            return 1.0 + 0.5 * np.sin(2.0 * np.pi
                                      * (np.asarray(x, dtype=float) - t))

        return Preset(name=problem, domain=(0.0, 1.0), boundary=PERIODIC,
                      default_t_final=1.0, gamma=gamma,
                      rho0=lambda x: exact(x, 0.0), u0=np.ones_like,
                      p0=np.ones_like, exact=exact)
    if problem == LAX:
        pl = to_primitive(ConservedState(0.445, 0.311, 8.928), gamma)
        pr = to_primitive(ConservedState(0.5, 0.0, 1.4275), gamma)
        return _riemann_preset(problem, pl, pr, gamma, 0.0, (-2.0, 2.0), 0.5)
    if problem == SHU_OSHER:
        pl = PrimitiveState(3.857143, 2.629369, 10.3333)

        def rho0(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < -4.0, pl.rho, 1.0 + 0.2 * np.sin(5.0 * x))

        # The left state is a supersonic inflow, so the left ghost carries
        # the upstream data; plain extrapolation there drifts unstably.
        return Preset(name=problem, domain=(-5.0, 5.0), boundary=INFLOW_OUTFLOW,
                      default_t_final=1.8, gamma=gamma, rho0=rho0,
                      u0=_step(-4.0, pl.u, 0.0), p0=_step(-4.0, pl.p, 1.0),
                      exact=None, inflow=to_conserved(pl, gamma))
    if problem == CUSTOM_RIEMANN:
        if left is None or right is None:
            raise ConfigError("custom-riemann needs left and right states")
        return _riemann_preset(problem, left, right, gamma, x0,
                               (-1.0, 1.0), 0.2)
    raise ConfigError(f"unknown problem {problem!r}")


def initial_sample_points(mesh: Mesh1D, per_cell: int = 32) -> np.ndarray:
    """Sample set for the entropy floor: Gauss-Legendre nodes plus cell endpoints."""
    rule = gauss_legendre_rule(per_cell)
    interior = mesh.physical_points(rule.nodes).ravel()
    return np.concatenate([interior, mesh.edges()])


def build_region(pre: Preset, mesh: Mesh1D, gamma: float,
                 eps: float) -> InvariantRegion:
    xs = initial_sample_points(mesh)
    s0 = entropy_floor_from_initial(pre.rho0, pre.p0, xs, gamma)
    return InvariantRegion(gamma=gamma, s0=s0, eps=eps)


@dataclass
class RunOutput:
    config: RunConfig
    preset: Preset
    mesh: Mesh1D
    region: InvariantRegion
    result: EvolveResult


def run(config: RunConfig) -> RunOutput:
    """Project, evolve and collect diagnostics for one configuration."""
    config.validate()
    pre = preset(config.problem, config.gamma, config.left, config.right,
                 config.x0)
    a, b = config.domain or pre.domain
    mesh = Mesh1D(a, b, config.n_cells, pre.boundary, pre.inflow)
    region = build_region(pre, mesh, config.gamma, config.epsilon)
    fld = l2_project(pre.w0, mesh, config.degree)
    t_final = pre.default_t_final if config.t_final is None else config.t_final
    opts = EvolveOptions(t_final=t_final, integrator=config.integrator,
                         cfl_fraction=config.cfl_fraction,
                         limiter_kind=config.limiter,
                         placement=config.limiter_placement)
    result = evolve(fld, mesh, region, opts)
    return RunOutput(config=config, preset=pre, mesh=mesh, region=region,
                     result=result)


def density_reference(out: RunOutput, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise exact density profile at t for presets that have one."""
    exact = out.preset.exact
    if exact is None:
        raise ConfigError(f"preset {out.preset.name!r} has no exact reference")
    return lambda x: exact(x, t)


def shu_osher_reference_config(base: RunConfig) -> RunConfig:
    """Fine-grid self-reference policy: N=2560 cells, P2, RK3, irp limiter."""
    return replace(base, problem=SHU_OSHER,
                   n_cells=SHU_OSHER_REFERENCE_CELLS,
                   degree=SHU_OSHER_REFERENCE_DEGREE,
                   integrator=RK3, limiter=LIMITER_IRP)


def fine_grid_reference(fine: RunOutput, coarse_mesh: Mesh1D):
    """Density evaluator backed by a fine-grid DG field; domains must match."""
    fm = fine.mesh
    if (fm.a, fm.b) != (coarse_mesh.a, coarse_mesh.b):
        raise ValueError("fine-grid reference covers a different domain; "
                         "cannot resample")
    fld = fine.result.final
    return lambda x: evaluate_at_x(fld, fm, x)[0]


def error_norms(fld: DGField, mesh: Mesh1D, reference) -> tuple[float, float]:
    """(Linf, L1) error of the density component at Gauss-Legendre nodes.

    ``reference`` maps x values to reference densities: an exact profile
    (``density_reference``) or a fine-grid field (``fine_grid_reference``).
    """
    rule = gauss_legendre_rule(fld.degree + 1)
    xs = mesh.physical_points(rule.nodes)
    num = evaluate_at_nodes(fld, rule.nodes)[:, 0, :]
    diff = np.abs(num - np.asarray(reference(xs.ravel())).reshape(xs.shape))
    linf = float(diff.max())
    l1 = float(mesh.h * np.einsum("cq,q->", diff, rule.weights))
    return linf, l1


@dataclass
class ConvergenceRow:
    n_cells: int
    error_linf: float
    order_linf: float | None
    error_l1: float
    order_l1: float | None
    note: str = ""


def convergence_study(config: RunConfig,
                      cell_counts: list[int]) -> list[ConvergenceRow]:
    """Run a refinement sequence and tabulate errors and observed orders.

    Both integrators are third order in time, so for degree 3 the step is
    shrunk faster than h (cfl scaled by (N0/N)^(1/3), i.e. dt ~ h^(4/3));
    otherwise the temporal error would cap the observed order at 3.  Bad
    cell counts, and a preset with no exact reference, raise ConfigError
    before any row is solved.
    """
    if len(cell_counts) < 2:
        raise ConfigError("convergence study needs at least two cell counts")
    if min(cell_counts) < 1:
        raise ConfigError("cell counts must be at least 1")
    for prev, cur in zip(cell_counts, cell_counts[1:]):
        if cur != 2 * prev:
            raise ConfigError("cell counts must double between rows")
    if preset(config.problem, config.gamma, config.left, config.right,
              config.x0).exact is None:
        raise ConfigError(f"preset {config.problem!r} has no exact reference")
    base_cfl = EvolveOptions(t_final=0.0, integrator=config.integrator,
                             cfl_fraction=config.cfl_fraction).resolved_cfl()
    cfl_exponent = max(0.0, (config.degree - 2) / 3.0)
    rows: list[ConvergenceRow] = []
    prev_errors: tuple[float, float] | None = None
    for n in cell_counts:
        cfg = replace(config, n_cells=n,
                      cfl_fraction=base_cfl * (cell_counts[0] / n) ** cfl_exponent)
        try:
            out = run(cfg)
        except (RuntimeError, ValueError, ZeroDivisionError) as err:
            rows.append(ConvergenceRow(n, float("nan"), None, float("nan"),
                                       None, note=f"failed: {err}"))
            prev_errors = None
            continue
        t = cfg.t_final if cfg.t_final is not None else out.preset.default_t_final
        ref = density_reference(out, t)
        linf, l1 = error_norms(out.result.final, out.mesh, ref)
        if prev_errors is None or linf == 0.0 or l1 == 0.0:
            rows.append(ConvergenceRow(n, linf, None, l1, None))
        else:
            rows.append(ConvergenceRow(
                n, linf, float(np.log2(prev_errors[0] / linf)),
                l1, float(np.log2(prev_errors[1] / l1))))
        prev_errors = (linf, l1) if linf > 0.0 and l1 > 0.0 else None
    return rows


def total_variation_of_density(fld: DGField) -> float:
    """Total variation of the cell-average density profile."""
    rho = fld.averages()[:, 0]
    return float(np.abs(np.diff(rho)).sum())


def shock_position(fld: DGField, mesh: Mesh1D) -> float:
    """Interface location of the steepest density drop (main shock)."""
    rho = fld.averages()[:, 0]
    jumps = np.diff(rho)
    return float(mesh.edges()[int(np.argmin(jumps)) + 1])


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path: str, header, rows) -> str:
    """Write the header and a line per row, each value through ``_fmt``.

    A relative path goes under ``$IRPDG_OUTPUT_DIR`` when that is set;
    returns the path written."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def emit_solution_csv(out: RunOutput, path: str) -> str:
    """Write columns x,rho,u,p,E,s,q,theta_last at the run's Gauss-Lobatto
    test nodes."""
    fld = out.result.final
    nodes = default_rule(fld.degree).nodes
    xs = out.mesh.physical_points(nodes)  # (n_cells, n)
    vals = evaluate_at_nodes(fld, nodes)  # (n_cells, 3, n)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = m / rho
        p, s, q = gas_state(rho, m, E, out.region)
    cone = (rho > 0.0) & (p > 0.0)
    s, q = np.where(cone, s, np.nan), np.where(cone, q, np.nan)
    theta = np.broadcast_to(out.result.theta_last[:, None], xs.shape)
    cols = np.stack([xs, rho, u, p, E, s, q, theta], axis=-1)
    return write_csv(path, ("x", "rho", "u", "p", "E", "s", "q", "theta_last"),
                     cols.reshape(-1, 8).tolist())


def emit_table_csv(rows: list[ConvergenceRow], path: str) -> str:
    return write_csv(path, [f.name for f in fields(ConvergenceRow)],
                     map(astuple, rows))


def emit_diagnostics_csv(out: RunOutput, path: str) -> str:
    return write_csv(path, [f.name for f in fields(StepDiagnostics)],
                     map(astuple, out.result.diagnostics))
