"""SSP time integration of the semi-discrete DG system with limiting.

Two third-order integrators share one step loop: the three-stage SSP
Runge-Kutta scheme (RK3), and the two-term SSP multistep scheme (MS3),
which needs a constant step and starts with three RK3 steps.  The head of
the loop gives every step its wave speed and its dt, with dt/h *
max(|u| + c) <= w1/2, where w1 is the first Gauss-Lobatto weight of the
test set the limiter checks.  Each step leaves one record
(``StepDiagnostics``), built a block of steps at a time with the bits of
one step at a time.  A stage is computed in place in the residual its
operator call returned, and the stage arithmetic on mode-major
coefficients (``DGField``) gives mode-major arrays, so no step copies a
field into another layout.
"""

from __future__ import annotations

import math
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
        raise ValueError(
            f"CFL invariant violated (speed {speed:.6g}, dt {dt:.6g})")
    return dt


def ssp_rk3_step(fld: DGField, dt: float, rhs, limit,
                 per_stage: bool = True):
    """One SSP RK3 step; returns (new field, stage limiter reports).

    ``rhs`` maps a field to its residual coefficients, a fresh array that
    the step then owns: it computes each stage in place in the residual
    it was built from (IEEE + and * commute, so with the bits of the
    textbook formulas).  ``limit`` maps a field and whether to compute its
    wave speed to (limited field, report); the final stage is always
    limited, with its speed, intermediate stages only when ``per_stage``,
    without.  The step only reads ``fld``.
    """
    reports = []

    def _limit(f: DGField, speed: bool) -> DGField:
        limited, rep = limit(f, speed)
        reports.append(rep)
        return limited

    w = fld.coeffs
    s = rhs(fld)  # w + dt * rhs(w)
    s *= dt
    s += w
    s1 = DGField(fld.degree, s)
    if per_stage:
        s1 = _limit(s1, False)
    s = rhs(s1)  # 0.75 * w + 0.25 * (s1 + dt * rhs(s1))
    s *= dt
    s += s1.coeffs
    s *= 0.25
    s += 0.75 * w
    s2 = DGField(fld.degree, s)
    if per_stage:
        s2 = _limit(s2, False)
    s = rhs(s2)  # (w + 2 * (s2 + dt * rhs(s2))) / 3
    s *= dt
    s += s2.coeffs
    s *= 2.0
    s += w
    s /= 3.0
    return _limit(DGField(fld.degree, s), True), reports


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
    before stepping.  A step's wave speed is the one the limit that
    returned its field reported; after a none-kind limit, which reports
    none, ``global_max_signal_speed`` evaluates it.  That speed is the
    flux's alpha and sets the CFL dt.  RK3 takes a dt every step; MS3 takes
    one at step 0, shortened to land on t_final, and checks every step
    against it.  MS3 keeps the (coefficients, residual) pairs of its last
    four steps and takes RK3 steps until it has four; no step writes into
    them, as an RK3 step computes its own first residual.  ``_diagnostics``
    records each step, the initial limit as step 0.  A RegionViolationError
    aborts the run with the failing step attached (0 for the initial
    limit) and, where an RK3 step with per_step placement failed, a note
    that this placement is outside the IRP theory.  A CFL dt not above the
    end tolerance raises ValueError, since t could never reach t_final.
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

    def limit(f: DGField, speed: bool = True):
        return limit_field(f, region, opts.limiter_kind, speed)

    step, t = 0, 0.0
    t_tol = _END_TOL * max(1.0, opts.t_final)
    history = deque(maxlen=4)
    block = _RecordBlock(fld.n_cells, mesh.h, gamma)
    try:
        fld, rep = limit(fld)
        reports = [rep]
        _diagnostics(0, 0.0, 0.0, fld, block, reports)
        while opts.t_final - t > t_tol:
            # fld's wave speed: the step's flux alpha, and the speed of its dt
            alpha = reports[-1].max_speed
            if alpha is None:  # a none-kind limit reports no speed
                alpha = global_max_signal_speed(fld, gamma)
            if step == 0 or not multistep:
                dt = _dt_for_speed(alpha, mesh.h, cfl, w_hat_1, t, opts.t_final)
                # a step clipped to t_final is above t_tol by the loop test
                if not dt > t_tol:
                    raise ValueError(
                        f"time step {dt:.6g} at step {step} is not above the "
                        f"end tolerance {t_tol:.6g}; t_final cannot be reached")
                if multistep:
                    # MS3 keeps its first dt, shortened to land on t_final
                    dt = opts.t_final / math.ceil(opts.t_final / dt - 1e-12)
            if multistep and (dt / mesh.h) * alpha > 0.5 * w_hat_1 * (1.0 + 1e-12):
                # The frozen dt must stay within the forward-Euler bound
                # w1/2 as the wave speed evolves; cfl_fraction < 1 provides
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
            _diagnostics(step, t, dt, fld, block, reports)
    except RegionViolationError as err:
        err.step = step
        raise
    block.flush()
    diagnostics = block.records
    min_entropy = float(np.min([d.min_avg_entropy for d in diagnostics]))
    return EvolveResult(fld, diagnostics, reports[-1].theta, min_entropy)
