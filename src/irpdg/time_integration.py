"""SSP time integration of the semi-discrete DG system with limiting.

Two third-order integrators: the three-stage SSP Runge-Kutta scheme with an
adaptive step, and the two-term SSP multistep scheme, which requires a
constant step and is bootstrapped by three RK3 steps.  The time step obeys
dt/h * max(|u| + c) <= w1/2 where w1 is the first Gauss-Lobatto weight of
the active test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dg_space import DGField, Mesh1D, gauss_lobatto_rule, \
    global_max_signal_speed, spatial_operator, test_set_size
from .euler_core import InvariantRegion
from .irp_limiter import LIMITER_IRP, LIMITER_NONE, RegionViolationError, \
    limit_field

RK3 = "rk3"
MS3 = "ms3"
PER_STAGE = "per_stage"
PER_STEP = "per_step"

_END_TOL = 1e-12


@dataclass
class TimeController:
    """Step-size bookkeeping for one run."""

    cfl_fraction: float
    w_hat_1: float
    t: float = 0.0
    dt: float = 0.0
    step_index: int = 0


@dataclass
class EvolveOptions:
    t_final: float
    integrator: str = RK3
    # The multistep update embeds a forward-Euler substep of 3*dt, so its
    # SSP coefficient is 1/3; the default keeps a 0.9 safety factor on top
    # of that, while RK3 (SSP coefficient 1) runs at the full bound.
    cfl_fraction: float | None = None  # default 1.0 for rk3, 0.3 for ms3
    limiter_kind: str = LIMITER_IRP
    placement: str = PER_STAGE

    def resolved_cfl(self) -> float:
        if self.cfl_fraction is not None:
            return self.cfl_fraction
        return 0.3 if self.integrator == MS3 else 1.0


@dataclass
class StepDiagnostics:
    step: int
    t: float
    dt: float
    min_theta: float
    n_activated: int
    n_rho_active: int
    n_p_active: int
    n_q_active: int
    n_fallback: int
    total_rho: float
    total_m: float
    total_E: float
    min_avg_entropy: float


@dataclass
class EvolveResult:
    final: DGField
    diagnostics: list[StepDiagnostics]
    theta_last: np.ndarray
    min_avg_entropy: float


@dataclass
class MultistepHistory:
    """Ring buffer of the most recent fields and their residuals."""

    fields: list[DGField] = dataclass_field(default_factory=list)
    residuals: list[np.ndarray] = dataclass_field(default_factory=list)
    dts: list[float] = dataclass_field(default_factory=list)
    depth: int = 4

    def push(self, fld: DGField, residual: np.ndarray, dt: float) -> None:
        self.fields.append(fld)
        self.residuals.append(residual)
        self.dts.append(dt)
        if len(self.fields) > self.depth:
            del self.fields[0], self.residuals[0], self.dts[0]

    @property
    def full(self) -> bool:
        return len(self.fields) == self.depth


def compute_dt(fld: DGField, mesh: Mesh1D, controller: TimeController,
               gamma: float, t_final: float | None = None) -> float:
    """CFL-limited step dt = cfl * (w1/2) * h / max_speed, clipped at t_final."""
    rule = gauss_lobatto_rule(test_set_size(fld.degree))
    speed = global_max_signal_speed(fld, gamma, rule)
    return _dt_for_speed(speed, mesh, controller, t_final)


def _dt_for_speed(speed: float, mesh: Mesh1D, controller: TimeController,
                  t_final: float | None) -> float:
    """``compute_dt`` for an already evaluated maximum signal speed."""
    if speed <= 0.0:
        raise ValueError("nonpositive maximum signal speed; degenerate state")
    dt = controller.cfl_fraction * 0.5 * controller.w_hat_1 * mesh.h / speed
    if t_final is not None and controller.t + dt > t_final:
        dt = t_final - controller.t
    lam = dt / mesh.h
    if not lam * speed <= 0.5 * controller.w_hat_1 * controller.cfl_fraction \
            * (1.0 + 1e-12):
        raise ValueError("CFL invariant violated")
    return dt


def ssp_rk3_step(fld: DGField, dt: float, rhs, limit=None,
                 per_stage: bool = True, rhs0: np.ndarray | None = None):
    """One SSP RK3 step; returns (new field, stage limiter reports).

    ``rhs`` maps a field to its residual coefficients; ``limit`` maps a field
    to (limited field, report) and may be None.  The final stage is always
    limited when a limiter is supplied; intermediate stages only when
    ``per_stage``.  ``rhs0`` optionally reuses a precomputed rhs(fld).
    """
    reports = []

    def _limit(f: DGField) -> DGField:
        if limit is None:
            return f
        limited, rep = limit(f)
        reports.append(rep)
        return limited

    w = fld.coeffs
    r0 = rhs(fld) if rhs0 is None else rhs0
    s1 = DGField(fld.degree, w + dt * r0)
    if per_stage:
        s1 = _limit(s1)
    s2 = DGField(fld.degree, 0.75 * w + 0.25 * (s1.coeffs + dt * rhs(s1)))
    if per_stage:
        s2 = _limit(s2)
    s3 = DGField(fld.degree, (w + 2.0 * (s2.coeffs + dt * rhs(s2))) / 3.0)
    s3 = _limit(s3)
    return s3, reports


def ssp_ms3_step(history: MultistepHistory, dt: float) -> DGField:
    """Two-term third-order SSP multistep update from a full history.

    Combines the newest entry (current solution) and the entry three steps
    back; both must have been recorded at the same constant dt.
    """
    if not history.full:
        raise ValueError("multistep history not yet populated")
    if any(abs(d - dt) > 1e-14 * max(dt, 1.0) for d in history.dts):
        raise ValueError("multistep scheme requires a constant dt across history")
    w_now = history.fields[-1].coeffs
    r_now = history.residuals[-1]
    w_old = history.fields[0].coeffs
    r_old = history.residuals[0]
    coeffs = (16.0 / 27.0) * (w_now + 3.0 * dt * r_now) \
        + (11.0 / 27.0) * (w_old + (12.0 / 11.0) * dt * r_old)
    return DGField(history.fields[-1].degree, coeffs)


def _entropy_of_averages(fld: DGField, region: InvariantRegion) -> float:
    avg = fld.averages()
    rho, m, E = avg[:, 0], avg[:, 1], avg[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    ok = (rho > 0.0) & (p > 0.0)
    if not ok.any():
        return float("nan")
    return float(np.min(np.log(p[ok]) - region.gamma * np.log(rho[ok])))


def _diagnostics(step: int, t: float, dt: float, fld: DGField,
                 mesh: Mesh1D, region: InvariantRegion,
                 reports) -> StepDiagnostics:
    if reports:
        min_theta = min(rep.min_theta for rep in reports)
        activated = np.zeros(fld.n_cells, dtype=bool)
        for rep in reports:
            activated |= rep.activated
        n_act = int(np.count_nonzero(activated))
        n_rho = sum(rep.n_rho_active for rep in reports)
        n_p = sum(rep.n_p_active for rep in reports)
        n_q = sum(rep.n_q_active for rep in reports)
        n_fb = sum(rep.fallback_count for rep in reports)
    else:
        min_theta, n_act, n_rho, n_p, n_q, n_fb = 1.0, 0, 0, 0, 0, 0
    totals = mesh.h * fld.averages().sum(axis=0)
    return StepDiagnostics(
        step=step, t=t, dt=dt, min_theta=min_theta, n_activated=n_act,
        n_rho_active=n_rho, n_p_active=n_p, n_q_active=n_q, n_fallback=n_fb,
        total_rho=float(totals[0]), total_m=float(totals[1]),
        total_E=float(totals[2]),
        min_avg_entropy=_entropy_of_averages(fld, region))


def evolve(fld: DGField, mesh: Mesh1D, region: InvariantRegion,
           opts: EvolveOptions,
           inflow_left=None) -> EvolveResult:
    """March the DG solution to t_final with limiting; collects diagnostics.

    The incoming field (normally a fresh L2 projection) is limited once
    before stepping.  A RegionViolationError raised by the limiter aborts
    the run with the failing step index attached (0 for that first limit).
    """
    if opts.t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    cfl = opts.resolved_cfl()
    rule = gauss_lobatto_rule(test_set_size(fld.degree))
    controller = TimeController(cfl_fraction=cfl, w_hat_1=float(rule.weights[0]))

    def limit(f: DGField):
        return limit_field(f, mesh, region, opts.limiter_kind)

    limiting = opts.limiter_kind != LIMITER_NONE

    try:
        fld, rep0 = limit(fld)
        theta_last = rep0.theta
        diagnostics = [_diagnostics(0, 0.0, 0.0, fld, mesh, region,
                                    [rep0] if limiting else [])]
        if opts.integrator == RK3:
            fld, theta_last = _evolve_rk3(
                fld, mesh, region, opts, controller, limit if limiting else None,
                diagnostics, theta_last, inflow_left)
        elif opts.integrator == MS3:
            fld, theta_last = _evolve_ms3(
                fld, mesh, region, opts, controller, limit if limiting else None,
                diagnostics, theta_last, inflow_left)
        else:
            raise ValueError(f"unknown integrator {opts.integrator!r}")
    except RegionViolationError as err:
        err.step = controller.step_index
        raise
    min_entropy = float(np.min([d.min_avg_entropy for d in diagnostics]))
    return EvolveResult(final=fld, diagnostics=diagnostics,
                        theta_last=theta_last, min_avg_entropy=min_entropy)


def _evolve_rk3(fld, mesh, region, opts, controller, limit, diagnostics,
                theta_last, inflow_left=None):
    gamma = region.gamma
    per_stage = opts.placement == PER_STAGE
    rule = gauss_lobatto_rule(test_set_size(fld.degree))
    while opts.t_final - controller.t > _END_TOL * max(1.0, opts.t_final):
        # one wave-speed evaluation gives both the flux's alpha and the step
        alpha = global_max_signal_speed(fld, gamma, rule)
        dt = _dt_for_speed(alpha, mesh, controller, opts.t_final)

        def rhs(f: DGField) -> np.ndarray:
            return spatial_operator(f, mesh, gamma, alpha, inflow_left)

        fld, reports = ssp_rk3_step(fld, dt, rhs, limit, per_stage)
        controller.t += dt
        controller.dt = dt
        controller.step_index += 1
        if reports:
            theta_last = reports[-1].theta
        diagnostics.append(_diagnostics(controller.step_index, controller.t,
                                        dt, fld, mesh, region, reports))
    return fld, theta_last


def _evolve_ms3(fld, mesh, region, opts, controller, limit, diagnostics,
                theta_last, inflow_left=None):
    gamma = region.gamma
    rule = gauss_lobatto_rule(test_set_size(fld.degree))
    if opts.t_final == 0.0:
        return fld, theta_last
    # Constant dt for the whole run, frozen from the initial signal speed
    # and chosen to land exactly on t_final.
    speed0 = global_max_signal_speed(fld, gamma, rule)
    dt_raw = controller.cfl_fraction * 0.5 * controller.w_hat_1 * mesh.h / speed0
    n_steps = max(1, int(np.ceil(opts.t_final / dt_raw - 1e-12)))
    dt = opts.t_final / n_steps
    controller.dt = dt

    history = MultistepHistory()
    per_stage = opts.placement == PER_STAGE
    for step in range(n_steps):
        alpha = global_max_signal_speed(fld, gamma, rule)
        # Frozen dt must keep satisfying the theoretical CFL bound even as
        # the wave speed evolves; cfl_fraction < 1 provides the headroom.
        if (dt / mesh.h) * alpha > 0.5 * controller.w_hat_1 * (1.0 + 1e-12):
            raise RegionViolationError(
                f"frozen multistep dt violates the CFL bound at step {step}"
                f" (speed {alpha:.6g})")
        residual = spatial_operator(fld, mesh, gamma, alpha, inflow_left)
        history.push(fld, residual, dt)
        if history.full:
            new = ssp_ms3_step(history, dt)
            reports = []
            if limit is not None:
                new, rep = limit(new)
                reports.append(rep)
        else:
            def rhs(f: DGField) -> np.ndarray:
                return spatial_operator(f, mesh, gamma, alpha, inflow_left)

            new, reports = ssp_rk3_step(fld, dt, rhs, limit, per_stage,
                                        rhs0=residual)
        fld = new
        controller.t = (step + 1) * dt
        controller.step_index += 1
        if reports:
            theta_last = reports[-1].theta
        diagnostics.append(_diagnostics(controller.step_index, controller.t,
                                        dt, fld, mesh, region, reports))
    return fld, theta_last
