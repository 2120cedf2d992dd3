"""Benchmark harness: problem presets, error norms, convergence tables, CSV output.

The presets mirror the standard test battery for this solver family: a
smooth advected density wave with a known exact solution, the Lax and
custom shock tubes referenced against the exact Riemann solver, and the
Shu-Osher problem referenced against a fine-grid self-run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dg_space import DGField, INFLOW_OUTFLOW, Mesh1D, OUTFLOW, PERIODIC, \
    evaluate_at_nodes, evaluate_at_x, gauss_legendre_rule, \
    gauss_lobatto_rule, l2_project, test_set_size
from .euler_core import ConservedState, InvariantRegion, PrimitiveState, \
    entropy_floor_from_initial, gas_state, to_conserved, to_primitive
from .irp_limiter import LIMITER_IRP, LIMITER_KINDS
from .riemann_exact import RiemannProblem, sample_conserved_at, star_of
from .time_integration import EvolveOptions, EvolveResult, MS3, PER_STAGE, \
    PER_STEP, RK3, evolve

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
            check_domain(self.domain)
        if self.problem == CUSTOM_RIEMANN:
            if self.left is None or self.right is None:
                raise ConfigError("custom-riemann needs left and right states")
            check_state("left", self.left)
            check_state("right", self.right)


def check_state(side: str, state: PrimitiveState) -> None:
    """Raise ConfigError unless rho, u, p are finite with rho > 0 and p > 0."""
    rho, u, p = state
    if not all(math.isfinite(v) for v in (rho, u, p)):
        raise ConfigError(f"{side} state must be finite, got {rho},{u},{p}")
    if rho <= 0.0 or p <= 0.0:
        raise ConfigError(f"{side} state needs positive density and "
                          f"pressure, got {rho},{u},{p}")


def check_domain(domain: tuple[float, float]) -> None:
    """Raise ConfigError unless the domain is finite a, b with b > a."""
    a, b = domain
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ConfigError(f"domain must be finite a,b with b > a, got {a},{b}")


@dataclass
class Preset:
    """Initial data and reference policy for one benchmark problem."""

    name: str
    domain: tuple[float, float]
    boundary: str
    default_t_final: float
    rho0: Callable[[np.ndarray], np.ndarray]
    p0: Callable[[np.ndarray], np.ndarray]
    w0: Callable[[np.ndarray], np.ndarray]  # x -> stacked conserved (3, n)
    reference: str  # "exact_smooth" | "riemann" | "self"
    riemann: RiemannProblem | None = None
    ghost_left: ConservedState | None = None  # inflow_outflow boundaries


def _const(v: float):
    return lambda x: np.full_like(np.asarray(x, dtype=float), v)


def _riemann_preset(name, left, right, gamma, x0, domain, t_final) -> Preset:
    problem = RiemannProblem(left, right, gamma, x0)
    wl = to_conserved(left, gamma)
    wr = to_conserved(right, gamma)

    def pick(x, a, b):
        x = np.asarray(x, dtype=float)
        return np.where(x < x0, a, b)

    return Preset(
        name=name, domain=domain, boundary=OUTFLOW, default_t_final=t_final,
        rho0=lambda x: pick(x, left.rho, right.rho),
        p0=lambda x: pick(x, left.p, right.p),
        w0=lambda x: np.stack([pick(x, wl.rho, wr.rho),
                               pick(x, wl.m, wr.m),
                               pick(x, wl.E, wr.E)]),
        reference="riemann", riemann=problem)


def preset(problem: str, gamma: float = 1.4,
           left: PrimitiveState | None = None,
           right: PrimitiveState | None = None,
           x0: float = 0.0,
           domain: tuple[float, float] | None = None) -> Preset:
    """Initial data, domain, boundary kind and reference policy by name."""
    if problem == SMOOTH_ADVECTION:
        def rho0(x):
            return 1.0 + 0.5 * np.sin(2.0 * np.pi * np.asarray(x, dtype=float))

        def w0(x):
            return np.stack(to_conserved(PrimitiveState(rho0(x), 1.0, 1.0),
                                         gamma))

        return Preset(name=problem, domain=(0.0, 1.0), boundary=PERIODIC,
                      default_t_final=1.0, rho0=rho0, p0=_const(1.0), w0=w0,
                      reference="exact_smooth")
    if problem == LAX:
        pl = to_primitive(ConservedState(0.445, 0.311, 8.928), gamma)
        pr = to_primitive(ConservedState(0.5, 0.0, 1.4275), gamma)
        return _riemann_preset(problem, pl, pr, gamma, 0.0, (-2.0, 2.0), 0.5)
    if problem == SHU_OSHER:
        pl = PrimitiveState(3.857143, 2.629369, 10.3333)

        def rho0(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < -4.0, pl.rho, 1.0 + 0.2 * np.sin(5.0 * x))

        def p0(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < -4.0, pl.p, 1.0)

        def u0(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < -4.0, pl.u, 0.0)

        def w0(x):
            return np.stack(to_conserved(PrimitiveState(rho0(x), u0(x), p0(x)),
                                         gamma))

        # The left state is a supersonic inflow, so the left ghost carries
        # the upstream data; plain extrapolation there drifts unstably.
        return Preset(name=problem, domain=(-5.0, 5.0), boundary=INFLOW_OUTFLOW,
                      default_t_final=1.8, rho0=rho0, p0=p0, w0=w0,
                      reference="self", ghost_left=to_conserved(pl, gamma))
    if problem == CUSTOM_RIEMANN:
        if left is None or right is None:
            raise ConfigError("custom-riemann needs left and right states")
        return _riemann_preset(problem, left, right, gamma, x0,
                               domain or (-1.0, 1.0), 0.2)
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
                 config.x0, config.domain)
    domain = config.domain or pre.domain
    mesh = Mesh1D(domain[0], domain[1], config.n_cells, pre.boundary)
    region = build_region(pre, mesh, config.gamma, config.epsilon)
    fld = l2_project(pre.w0, mesh, config.degree)
    t_final = pre.default_t_final if config.t_final is None else config.t_final
    opts = EvolveOptions(t_final=t_final, integrator=config.integrator,
                         cfl_fraction=config.cfl_fraction,
                         limiter_kind=config.limiter,
                         placement=config.limiter_placement)
    result = evolve(fld, mesh, region, opts, inflow_left=pre.ghost_left)
    return RunOutput(config=config, preset=pre, mesh=mesh, region=region,
                     result=result)


def density_reference(out: RunOutput, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise exact density profile for presets that have one."""
    if out.preset.reference == "exact_smooth":
        return lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi
                                            * (np.asarray(x, dtype=float) - t))
    if out.preset.reference == "riemann":
        problem = out.preset.riemann
        star = star_of(problem)
        return lambda x: sample_conserved_at(problem, star, x, t)[0]
    raise ConfigError(f"preset {out.preset.name!r} has no exact reference")


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
    otherwise the temporal error would cap the observed order at 3.
    """
    if len(cell_counts) < 2:
        raise ConfigError("convergence study needs at least two cell counts")
    for prev, cur in zip(cell_counts, cell_counts[1:]):
        if cur != 2 * prev:
            raise ConfigError("cell counts must double between rows")
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


def resolve_output_path(path: str) -> str:
    """Apply the output-directory override env var to relative paths."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_solution_csv(out: RunOutput, path: str,
                      points_per_cell: int | None = None) -> str:
    """Write sampled solution columns x,rho,u,p,E,s,q,theta_last.

    Default sample points are the run's Gauss-Lobatto test nodes; an integer
    ``points_per_cell`` switches to that many equispaced points per cell.
    """
    fld = out.result.final
    if points_per_cell is None:
        nodes = gauss_lobatto_rule(test_set_size(fld.degree)).nodes
    else:
        if points_per_cell < 1:
            raise ConfigError("points_per_cell must be positive")
        nodes = np.linspace(-0.5, 0.5, points_per_cell)
    xs = out.mesh.physical_points(nodes)  # (n_cells, n)
    vals = evaluate_at_nodes(fld, nodes)  # (n_cells, 3, n)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = m / rho
        p, s, q = gas_state(rho, m, E, out.region)
    cone = (rho > 0.0) & (p > 0.0)
    s, q = np.where(cone, s, np.nan), np.where(cone, q, np.nan)
    theta = out.result.theta_last
    path = resolve_output_path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,rho,u,p,E,s,q,theta_last\n")
        for c in range(fld.n_cells):
            for j in range(xs.shape[1]):
                cols = (xs[c, j], rho[c, j], u[c, j], p[c, j], E[c, j],
                        s[c, j], q[c, j], float(theta[c]))
                fh.write(",".join(_fmt(float(v)) for v in cols) + "\n")
    return path


def emit_table_csv(rows: list[ConvergenceRow], path: str) -> str:
    path = resolve_output_path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n_cells,error_linf,order_linf,error_l1,order_l1,note\n")
        for r in rows:
            fh.write(",".join([_fmt(r.n_cells), _fmt(r.error_linf),
                               _fmt(r.order_linf), _fmt(r.error_l1),
                               _fmt(r.order_l1), r.note]) + "\n")
    return path


def emit_diagnostics_csv(out: RunOutput, path: str) -> str:
    path = resolve_output_path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,t,dt,min_theta,n_activated,n_rho_active,n_p_active,"
                 "n_q_active,n_fallback,total_rho,total_m,total_E,"
                 "min_avg_entropy\n")
        for d in out.result.diagnostics:
            cols = (d.step, d.t, d.dt, d.min_theta, d.n_activated,
                    d.n_rho_active, d.n_p_active, d.n_q_active, d.n_fallback,
                    d.total_rho, d.total_m, d.total_E, d.min_avg_entropy)
            fh.write(",".join(_fmt(v) for v in cols) + "\n")
    return path
