"""SSP time integration of the semi-discrete DG system with limiting.

Two third-order integrators share one step loop: the three-stage SSP
Runge-Kutta scheme with an adaptive step, and the two-term SSP multistep
scheme, which requires a constant step and is bootstrapped by three RK3
steps.  The time step obeys dt/h * max(|u| + c) <= w1/2 where w1 is the
first Gauss-Lobatto weight of the active test set, the set the limiter
checks: a positivity or irp limit's report computes that wave speed from
the node values of the field it returned when read (where the limit finds
no cell in play, that field is its input itself); a step reads it from the
one report whose field the next step starts from.  Each step leaves one
record (``StepDiagnostics``): its limiter counts are taken as the step
ends, its conserved totals and minimum average entropy a block of steps at
a time, vectorized over the block, with the same bits as one step at a
time.  A stage is computed in place in the residual the step's operator
call just returned, which is the caller's to overwrite: the three RK3
steps that start an MS3 run each compute their first residual afresh,
beside the one the run keeps in its history.  The stage
arithmetic on mode-major coefficients (``DGField``) and residuals gives
mode-major arrays, so no step copies a field into another layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dg_space import DGField, Mesh1D, default_rule, \
    global_max_signal_speed, spatial_operator
from .euler_core import InvariantRegion, gas_entropy, gas_pressure
from .irp_limiter import LIMITER_IRP, RegionViolationError, limit_field

RK3 = "rk3"
MS3 = "ms3"
PER_STAGE = "per_stage"
PER_STEP = "per_step"

_END_TOL = 1e-12
# Bytes of cell averages a record block buffers (see ``_RecordBlock``).
_RECORD_BLOCK_BYTES = 65536


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


def _check_reaches_t_final(dt: float, t_tol: float, step: int) -> None:
    """A CFL step not above the end tolerance cannot bring t to t_final."""
    if not dt > t_tol:
        raise ValueError(
            f"time step {dt:.6g} at step {step} is not above the end "
            f"tolerance {t_tol:.6g}; t_final cannot be reached")


def ssp_rk3_step(fld: DGField, dt: float, rhs, limit,
                 per_stage: bool = True):
    """One SSP RK3 step; returns (new field, stage limiter reports).

    ``rhs`` maps a field to its residual coefficients, a fresh array that
    the step then owns: it computes each stage in place in the residual
    it was built from (IEEE + and * commute, so with the bits of the
    textbook formulas).  ``limit`` maps a field to (limited field, report);
    the final stage is always limited, intermediate stages only when
    ``per_stage``.  The step only reads ``fld``.
    """
    reports = []

    def _limit(f: DGField) -> DGField:
        limited, rep = limit(f)
        reports.append(rep)
        return limited

    w = fld.coeffs
    s = rhs(fld)  # w + dt * rhs(w)
    s *= dt
    s += w
    s1 = DGField(fld.degree, s)
    if per_stage:
        s1 = _limit(s1)
    s = rhs(s1)  # 0.75 * w + 0.25 * (s1 + dt * rhs(s1))
    s *= dt
    s += s1.coeffs
    s *= 0.25
    s += 0.75 * w
    s2 = DGField(fld.degree, s)
    if per_stage:
        s2 = _limit(s2)
    s = rhs(s2)  # (w + 2 * (s2 + dt * rhs(s2))) / 3
    s *= dt
    s += s2.coeffs
    s *= 2.0
    s += w
    s /= 3.0
    return _limit(DGField(fld.degree, s)), reports


def ssp_ms3_step(w_now: np.ndarray, r_now: np.ndarray, w_old: np.ndarray,
                 r_old: np.ndarray, dt: float) -> np.ndarray:
    """Two-term third-order SSP multistep update of coefficient arrays.

    Combines the current solution and the one three steps back, each with
    its residual; all four steps must have been taken at the same dt.
    """
    return (16.0 / 27.0) * (w_now + 3.0 * dt * r_now) \
        + (11.0 / 27.0) * (w_old + (12.0 / 11.0) * dt * r_old)


def _record_block_rows(n_cells: int) -> int:
    """Steps per record block: its averages take at most 64 KiB."""
    return max(1, _RECORD_BLOCK_BYTES // (24 * n_cells))


class _RecordBlock:
    """Step records, built a block of steps at a time.

    Each step leaves its limiter counts and a copy of its cell averages in
    a (rows, 3, n_cells) buffer: the field's mode-0 row ``coeffs.T[0]``,
    one contiguous row of cells per variable.  ``flush`` computes the
    buffered steps' totals and minimum average entropy in one vectorized
    pass and appends their StepDiagnostics to ``records``.  It takes each
    total as the last entry of a cumulative sum along the cells, which adds
    left to right as each step's ``averages().sum(axis=0)`` does over the
    (cell, variable) layout, so the two are equal bit for bit.  (A sum over
    a contiguous row would add pairwise, in another order.)
    """

    def __init__(self, n_cells: int, h: float, gamma: float):
        self.buf = np.empty((_record_block_rows(n_cells), 3, n_cells))
        self.h, self.gamma = h, gamma
        self.rows: list[tuple] = []  # (step, t, dt, *counts) per buffer row
        self.records: list[StepDiagnostics] = []

    def add(self, row: tuple, averages: np.ndarray) -> None:
        self.buf[len(self.rows)] = averages
        self.rows.append(row)
        if len(self.rows) == len(self.buf):
            self.flush()

    def flush(self) -> None:
        avg = self.buf[:len(self.rows)]
        # + 0.0 stands for a sum's start: a row of -0 terms totals +0
        totals = (self.h * (np.cumsum(avg, axis=2)[..., -1] + 0.0)).tolist()
        rho, m, E = avg[:, 0], avg[:, 1], avg[:, 2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = gas_pressure(rho, m, E, self.gamma)
            s = gas_entropy(rho, p, self.gamma)
        # the minimum over the averages in the positive cone, nan for none
        ok = (rho > 0.0) & (p > 0.0)
        s_min = np.where(ok, s, np.inf).min(axis=1)
        s_min[~ok.any(axis=1)] = np.nan
        for row, total, s_row in zip(self.rows, totals, s_min.tolist()):
            self.records.append(StepDiagnostics(*row, *total, s_row))
        self.rows.clear()


def _diagnostics(step: int, t: float, dt: float, fld: DGField,
                 block: _RecordBlock, reports) -> None:
    """Record one step into ``block``: the limiter counts of its reports
    and its cell averages."""
    if all(rep.quiet for rep in reports):
        # every limit returned its field: none kind, or no cell in play
        counts = (1.0, 0, 0, 0, 0, 0)
    else:
        # each cell's smallest theta: its minimum is the step's, and a cell
        # some limit activated has one below 1
        theta = reports[0].theta
        for rep in reports[1:]:
            theta = np.minimum(theta, rep.theta)
        counts = (float(theta.min()), int(np.count_nonzero(theta < 1.0)),
                  sum(rep.n_rho_active for rep in reports),
                  sum(rep.n_p_active for rep in reports),
                  sum(rep.n_q_active for rep in reports),
                  sum(rep.fallback_count for rep in reports))
    # the block copies the averages once, from their contiguous mode-0 row
    block.add((step, t, dt, *counts), fld.coeffs.T[0])


def evolve(fld: DGField, mesh: Mesh1D, region: InvariantRegion,
           opts: EvolveOptions) -> EvolveResult:
    """March the DG solution to t_final with limiting; collects diagnostics.

    The incoming field (normally a fresh L2 projection) is limited once
    before stepping.  RK3 takes each dt from the wave speed that also gives
    the step's flux alpha.  MS3 freezes one dt that lands on t_final, from
    the wave speed that is also its first step's alpha.  MS3 keeps the
    (coefficients, residual) pairs of its last four steps and takes RK3
    steps until it has four; no step writes into them, as an RK3 step
    computes its own first residual.  A step takes the
    wave speed of its field from the limiter report that returned the
    field (the initial limit's, or the last of the step before), which
    computes it when read, so an RK3 step's first two stage reports never
    compute theirs; each limit call drops the node values of the report
    before it, whose speed is read by then or never will be.
    ``global_max_signal_speed`` evaluates the speed only where that report
    has none: after a none-kind limit, which each step calls where it would
    call any other kind.
    ``_diagnostics`` records each step, the initial limit as step 0, into a
    block of at most 64 KiB of cell averages, which it turns into
    StepDiagnostics whenever it fills; ``evolve`` turns the part left after
    the last step.  A RegionViolationError raised by the limiter aborts
    the run with the failing step index attached (0 for that first limit)
    and, where an RK3 step with per_step placement failed, a note that
    this placement is outside the IRP theory.  A CFL step (before
    any clip to t_final) not above the end tolerance raises ValueError,
    since t could never reach t_final.
    """
    if opts.t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    if opts.integrator not in (RK3, MS3):
        raise ValueError(f"unknown integrator {opts.integrator!r}")
    gamma = region.gamma
    w_hat_1 = float(default_rule(fld.degree).weights[0])
    cfl = opts.resolved_cfl()
    per_stage = opts.placement == PER_STAGE
    multistep = opts.integrator == MS3

    last = None  # the report of the last limit call

    def limit(f: DGField):
        # the last report's speed is read by now or never will be
        nonlocal last
        if last is not None:
            last.drop_nodes()
        limited, last = limit_field(f, region, opts.limiter_kind)
        return limited, last

    step, t, n_steps = 0, 0.0, 0
    t_tol = _END_TOL * max(1.0, opts.t_final)
    history = deque(maxlen=4)
    block = _RecordBlock(fld.n_cells, mesh.h, gamma)
    try:
        fld, rep0 = limit(fld)
        theta_last = rep0.theta
        _diagnostics(0, 0.0, 0.0, fld, block, [rep0])
        speed = rep0.max_speed  # the wave speed of fld, where already known
        if multistep and opts.t_final > 0.0:
            # Constant dt for the whole run, frozen from the initial signal
            # speed and chosen to land exactly on t_final.
            if speed is None:
                speed = global_max_signal_speed(fld, gamma)
            dt_raw = _dt_for_speed(speed, mesh.h, cfl, w_hat_1)
            _check_reaches_t_final(dt_raw, t_tol, step)
            n_steps = max(1, int(np.ceil(opts.t_final / dt_raw - 1e-12)))
            dt = opts.t_final / n_steps
        while step < n_steps if multistep else opts.t_final - t > t_tol:
            # one wave-speed evaluation gives the flux's alpha and RK3's step
            alpha = global_max_signal_speed(fld, gamma) \
                if speed is None else speed
            if not multistep:
                dt = _dt_for_speed(alpha, mesh.h, cfl, w_hat_1, t, opts.t_final)
                # a step clipped to t_final is above t_tol by the loop test
                _check_reaches_t_final(dt, t_tol, step)
            elif (dt / mesh.h) * alpha > 0.5 * w_hat_1 * (1.0 + 1e-12):
                # The frozen dt must keep satisfying the theoretical CFL
                # bound as the wave speed evolves; cfl_fraction < 1 provides
                # the headroom.
                raise RegionViolationError(
                    f"frozen multistep dt violates the CFL bound at step {step}"
                    f" (speed {alpha:.6g})")

            def rhs(f: DGField) -> np.ndarray:
                return spatial_operator(f, mesh, gamma, alpha)

            if multistep:
                history.append((fld.coeffs, rhs(fld)))
            if len(history) == 4:
                fld = DGField(fld.degree,
                              ssp_ms3_step(*history[-1], *history[0], dt))
                fld, rep = limit(fld)
                reports = [rep]
            else:
                try:
                    fld, reports = ssp_rk3_step(fld, dt, rhs, limit,
                                                per_stage)
                except RegionViolationError as err:
                    if not per_stage:
                        err.note = ("RK3 with per_step placement is outside "
                                    "the IRP theory: use per_stage placement, "
                                    "which limits every stage")
                    raise
            step += 1
            t = step * dt if multistep else t + dt
            theta_last = reports[-1].theta
            speed = reports[-1].max_speed
            _diagnostics(step, t, dt, fld, block, reports)
    except RegionViolationError as err:
        err.step = step
        raise
    block.flush()
    diagnostics = block.records
    min_entropy = float(np.min([d.min_avg_entropy for d in diagnostics]))
    return EvolveResult(final=fld, diagnostics=diagnostics,
                        theta_last=theta_last, min_avg_entropy=min_entropy)
