"""SSP time integration of the semi-discrete DG system with limiting.

Two third-order integrators share one step loop: the three-stage SSP
Runge-Kutta scheme with an adaptive step, and the two-term SSP multistep
scheme, which requires a constant step and is bootstrapped by three RK3
steps.  The time step obeys dt/h * max(|u| + c) <= w1/2 where w1 is the
first Gauss-Lobatto weight of the active test set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dg_space import DGField, Mesh1D, gauss_lobatto_rule, \
    global_max_signal_speed, spatial_operator, test_set_size
from .euler_core import InvariantRegion, gas_entropy, gas_pressure
from .irp_limiter import LIMITER_IRP, LIMITER_NONE, RegionViolationError, \
    limit_field

RK3 = "rk3"
MS3 = "ms3"
PER_STAGE = "per_stage"
PER_STEP = "per_step"

_END_TOL = 1e-12


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


def _dt_for_speed(speed: float, h: float, cfl: float, w_hat_1: float,
                  t: float = 0.0, t_final: float | None = None) -> float:
    """CFL-limited step dt = cfl * (w1/2) * h / speed, clipped at t_final."""
    if speed <= 0.0:
        raise ValueError("nonpositive maximum signal speed; degenerate state")
    dt = cfl * 0.5 * w_hat_1 * h / speed
    if t_final is not None and t + dt > t_final:
        dt = t_final - t
    if not (dt / h) * speed <= 0.5 * w_hat_1 * cfl * (1.0 + 1e-12):
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


def ssp_ms3_step(w_now: np.ndarray, r_now: np.ndarray, w_old: np.ndarray,
                 r_old: np.ndarray, dt: float) -> np.ndarray:
    """Two-term third-order SSP multistep update of coefficient arrays.

    Combines the current solution and the one three steps back, each with
    its residual; all four steps must have been taken at the same dt.
    """
    return (16.0 / 27.0) * (w_now + 3.0 * dt * r_now) \
        + (11.0 / 27.0) * (w_old + (12.0 / 11.0) * dt * r_old)


def _entropy_of_averages(fld: DGField, region: InvariantRegion) -> float:
    avg = fld.averages()
    rho, m, E = avg[:, 0], avg[:, 1], avg[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = gas_pressure(rho, m, E, region.gamma)
    ok = (rho > 0.0) & (p > 0.0)
    if not ok.any():
        return float("nan")
    return float(np.min(gas_entropy(rho[ok], p[ok], region.gamma)))


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
    before stepping.  RK3 takes each dt from the wave speed that also gives
    the step's flux alpha.  MS3 freezes one dt that lands on t_final, from
    the wave speed that is also its first step's alpha, keeps the
    (coefficients, residual) pairs of its last four steps and takes RK3
    steps until it has four.  A RegionViolationError raised by the limiter
    aborts the run with the failing step index attached (0 for that first
    limit).
    """
    if opts.t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    if opts.integrator not in (RK3, MS3):
        raise ValueError(f"unknown integrator {opts.integrator!r}")
    gamma = region.gamma
    rule = gauss_lobatto_rule(test_set_size(fld.degree))
    w_hat_1 = float(rule.weights[0])
    cfl = opts.resolved_cfl()
    per_stage = opts.placement == PER_STAGE
    multistep = opts.integrator == MS3

    def limit(f: DGField):
        return limit_field(f, mesh, region, opts.limiter_kind)

    stage_limit = None if opts.limiter_kind == LIMITER_NONE else limit
    step, t, n_steps = 0, 0.0, 0
    t_tol = _END_TOL * max(1.0, opts.t_final)
    history = deque(maxlen=4)
    try:
        fld, rep0 = limit(fld)
        theta_last = rep0.theta
        diagnostics = [_diagnostics(0, 0.0, 0.0, fld, mesh, region,
                                    [rep0] if stage_limit else [])]
        speed = None  # the wave speed of fld, where already evaluated
        if multistep and opts.t_final > 0.0:
            # Constant dt for the whole run, frozen from the initial signal
            # speed and chosen to land exactly on t_final.
            speed = global_max_signal_speed(fld, gamma, rule)
            dt_raw = _dt_for_speed(speed, mesh.h, cfl, w_hat_1)
            n_steps = max(1, int(np.ceil(opts.t_final / dt_raw - 1e-12)))
            dt = opts.t_final / n_steps
        while step < n_steps if multistep else opts.t_final - t > t_tol:
            # one wave-speed evaluation gives the flux's alpha and RK3's step
            alpha = global_max_signal_speed(fld, gamma, rule) \
                if speed is None else speed
            speed = None
            if not multistep:
                dt = _dt_for_speed(alpha, mesh.h, cfl, w_hat_1, t, opts.t_final)
            elif (dt / mesh.h) * alpha > 0.5 * w_hat_1 * (1.0 + 1e-12):
                # The frozen dt must keep satisfying the theoretical CFL
                # bound as the wave speed evolves; cfl_fraction < 1 provides
                # the headroom.
                raise RegionViolationError(
                    f"frozen multistep dt violates the CFL bound at step {step}"
                    f" (speed {alpha:.6g})")

            def rhs(f: DGField) -> np.ndarray:
                return spatial_operator(f, mesh, gamma, alpha, inflow_left)

            residual = None
            if multistep:
                residual = rhs(fld)
                history.append((fld.coeffs, residual))
            if len(history) == 4:
                fld = DGField(fld.degree,
                              ssp_ms3_step(*history[-1], *history[0], dt))
                reports = []
                if stage_limit is not None:
                    fld, rep = stage_limit(fld)
                    reports.append(rep)
            else:
                fld, reports = ssp_rk3_step(fld, dt, rhs, stage_limit,
                                            per_stage, rhs0=residual)
            step += 1
            t = step * dt if multistep else t + dt
            if reports:
                theta_last = reports[-1].theta
            diagnostics.append(_diagnostics(step, t, dt, fld, mesh, region,
                                            reports))
    except RegionViolationError as err:
        err.step = step
        raise
    min_entropy = float(np.min([d.min_avg_entropy for d in diagnostics]))
    return EvolveResult(final=fld, diagnostics=diagnostics,
                        theta_last=theta_last, min_avg_entropy=min_entropy)
