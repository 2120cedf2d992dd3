"""Explicit invariant-region-preserving limiter for modal DG fields.

Each cell polynomial is rescaled about its (preserved) average,
``w <- theta * w + (1 - theta) * mean``, with one theta per cell shared by
all three conserved variables.  theta is the minimum of per-constraint
ratios computed from cell averages and extrema over the Gauss-Lobatto test
nodes.  The positivity-only variant drops the entropy constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dg_space import DGField, Mesh1D, QuadratureRule, basis_table, \
    gauss_lobatto_rule, test_set_size
from .euler_core import ConservedState, InvariantRegion, gas_state

LIMITER_NONE = "none"
LIMITER_POSITIVITY = "positivity"
LIMITER_IRP = "irp"
LIMITER_KINDS = (LIMITER_NONE, LIMITER_POSITIVITY, LIMITER_IRP)

# Slack on the entropy constraint at test nodes: q <= Q_SLACK counts as
# satisfied.  Pure round-off can leave q at a few ulp above zero after an
# exact-arithmetic-tight rescaling; without the slack the limiter would
# re-activate forever on such cells and idempotence would fail.
Q_SLACK = 1e-12
_DENOM_GUARD = 1e-14
_MAX_FALLBACK = 5


class RegionViolationError(RuntimeError):
    """A cell average left the strict interior of the admissible set."""

    def __init__(self, message: str, cell: int | None = None,
                 step: int | None = None):
        super().__init__(message)
        self.cell = cell
        self.step = step


@dataclass
class FieldLimiterReport:
    """Vectorized limiter diagnostics for a whole field."""

    theta: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray
    rho_min: np.ndarray
    p_min: np.ndarray
    q_max: np.ndarray
    activated: np.ndarray
    fallback_count: int = 0

    @property
    def n_activated(self) -> int:
        return int(np.count_nonzero(self.activated))

    @property
    def min_theta(self) -> float:
        return float(self.theta.min()) if self.theta.size else 1.0

    @property
    def n_rho_active(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.theta1)))

    @property
    def n_p_active(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.theta2)))

    @property
    def n_q_active(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.theta3)))


def _node_states(coeffs: np.ndarray, region: InvariantRegion,
                 V: np.ndarray):
    """(rho, p, q) at the test nodes of each cell, each (n_cells, n_nodes).

    p comes straight from the formula and may be nan or inf.  q is the
    entropy functional, meaningful only where rho > 0 and p > 0; each
    caller masks the other nodes as its use requires.  The einsum result is
    laid out cell by cell; the contiguous copy lets the elementwise passes
    run over whole blocks.
    """
    rho, m, E = np.ascontiguousarray(np.einsum("cvj,nj->vcn", coeffs, V))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, _, q = gas_state(rho, m, E, region)
    return rho, p, q


def _node_min(a: np.ndarray) -> np.ndarray:
    """Per-cell minimum over the node columns of a (n_cells, n_nodes) array.

    Equals ``a.min(axis=1)`` bit for bit (nan propagates alike); a handful of
    whole-column ufunc calls beat a reduction over rows of 2-4 nodes.
    """
    return reduce(np.minimum, a.T)


def _node_max(a: np.ndarray) -> np.ndarray:
    return reduce(np.maximum, a.T)


def _admissible(rho, p, q, eps: float, use_q: bool) -> np.ndarray:
    """Per cell: every node has rho >= eps, a finite p >= eps and, with
    ``use_q``, q <= Q_SLACK (nodes passing the first two tests lie in the
    positive cone, so their q is meaningful)."""
    ok = (rho >= eps) & (p >= eps) & (p < np.inf)
    if use_q:
        ok &= q <= Q_SLACK
    return reduce(np.logical_and, ok.T)


def default_rule(degree: int) -> QuadratureRule:
    """Gauss-Lobatto test set matching the degree (2N-3 >= degree)."""
    return gauss_lobatto_rule(test_set_size(degree))


def _check_interior(avg: ConservedState, region: InvariantRegion,
                    need_q: bool, cell: int | None) -> None:
    """Membership of the average, raising on violation: rho and p strictly
    above eps, and q <= Q_SLACK as at the nodes, since the region is closed
    and round-off leaves isentropic averages at q = 0 up to a few 1e-14."""
    rho, m, E = avg
    where = "" if cell is None else f" (cell {cell})"
    if not rho > region.eps:
        raise RegionViolationError(
            f"average density {rho} not above eps{where}", cell=cell)
    with np.errstate(divide="ignore", invalid="ignore"):
        p, _, q = gas_state(rho, m, E, region)
    if not p > region.eps:
        raise RegionViolationError(
            f"average pressure {p} not above eps{where}", cell=cell)
    if need_q and not q <= Q_SLACK:
        raise RegionViolationError(
            f"average entropy functional q={q} not negative{where}",
            cell=cell)


def _ratio(num, den):
    # A denominator below the guard means the cell is essentially constant
    # while still violating, i.e. pressed against the region boundary;
    # flatten it completely rather than dividing by noise.
    return np.where(den < _DENOM_GUARD, 0.0,
                    num / np.maximum(den, _DENOM_GUARD))


def limit_field(fld: DGField, mesh: Mesh1D, region: InvariantRegion,
                kind: str = LIMITER_IRP):
    """Limit every cell of a field; returns (limited field, report).

    The input field is not modified.  After limiting, every Gauss-Lobatto
    test node satisfies rho >= eps, p >= eps and (for the irp kind)
    q <= Q_SLACK; cell averages are bitwise unchanged.

    The combined rescaling theta = min(1, theta_i over violated constraints)
    lies in [0, 1] and is exact when all node states lie in the positive
    cone; an average on the entropy boundary (0 <= q <= Q_SLACK) gets
    theta3 = 0, which flattens the cell to its mean.  Nodes outside
    it (negative density or pressure) make the downstream quantities
    meaningless, so those constraints are deferred: up to three formula
    rounds walk the definedness chain rho -> p -> q, each applying the exact
    ratio for whatever is violated *and* evaluable.  Vacuum-adjacent cells
    need the extra rounds; cells with valid nodes finish in one, identical
    to the single-pass formula.

    Each round evaluates the node states once, and only for the cells in
    play.  One pass over every cell gives the report and round 0; when no
    cell violates a constraint, the field is returned right after it.  The
    thermodynamics of the cell averages are computed once, for the cells
    in play.  Round 1 re-evaluates the cells that round 0 rescaled (and any
    whose node entropy overflowed, which only round 0 skips); round 2 those
    that round 1 rescaled.  Each of these passes also takes the fallback's
    admissibility test for the cells it saw, so the fallback reads it from
    there and evaluates afresh only the cells that round 2 rescaled after
    their last pass.
    """
    if kind not in LIMITER_KINDS:
        raise ValueError(f"unknown limiter kind {kind!r}")
    n = fld.n_cells
    V = basis_table(fld.degree, default_rule(fld.degree).nodes)
    rho_n, p_n, q_n = _node_states(fld.coeffs, region, V)
    # the report counts a non-finite p as -inf, and q outside the positive
    # cone (rho > 0 and p finite and > 0) as +inf
    p_n = np.where(np.isfinite(p_n), p_n, -np.inf)
    q_n = np.where((rho_n > 0.0) & (p_n > 0.0), q_n, np.inf)
    rho_min, p_min, q_max = _node_min(rho_n), _node_min(p_n), _node_max(q_n)

    theta = np.ones(n)
    theta1 = np.full(n, np.inf)
    theta2 = np.full(n, np.inf)
    theta3 = np.full(n, np.inf)
    out = fld.copy()
    report = FieldLimiterReport(theta, theta1, theta2, theta3,
                                rho_min=rho_min, p_min=p_min, q_max=q_max,
                                activated=np.zeros(n, dtype=bool))
    if kind == LIMITER_NONE:
        return out, report

    # Cells in play: those round 0 finds in violation, plus any that round 1
    # could flag although unchanged, since it keeps a q that overflowed to
    # +inf where round 0 drops it.  The report's extrema bound both.
    use_q = kind == LIMITER_IRP
    eps = region.eps
    in_play = (rho_min < eps) | (p_min < eps)
    if use_q:
        in_play |= q_max > Q_SLACK
    live = np.flatnonzero(in_play)
    if not live.size:
        return out, report

    # Round 0 reuses the report's nodes: p over the nodes with rho > 0 and
    # the finite values of q.
    rho_n, p_n, q_n = rho_n[live], p_n[live], q_n[live]
    ext = (rho_min[live], _node_min(np.where(rho_n > 0.0, p_n, np.inf)),
           _node_max(np.where(np.isfinite(q_n), q_n, -np.inf)))

    coeffs = out.coeffs
    rho_avg, m_avg, E_avg = np.ascontiguousarray(coeffs[live, :, 0].T)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_avg, _, q_avg = gas_state(rho_avg, m_avg, E_avg, region)
    inside = (rho_avg > eps) & (p_avg > eps)  # ``_check_interior`` passes
    if use_q:
        inside &= q_avg <= Q_SLACK
    touched = np.zeros(live.size, dtype=bool)
    admissible = np.zeros(live.size, dtype=bool)  # as of the last pass
    sel = np.arange(live.size)  # positions in ``live`` of this round's cells
    for round_idx in range(3):
        if round_idx:
            # extrema over the nodes where each quantity is meaningful (see
            # the docstring)
            rho_n, p_n, q_n = _node_states(coeffs[live[sel]], region, V)
            admissible[sel] = _admissible(rho_n, p_n, q_n, eps, use_q)
            rho_pos = rho_n > 0.0
            ext = (_node_min(rho_n), _node_min(np.where(rho_pos, p_n, np.inf)),
                   _node_max(np.where(rho_pos & (p_n > 0.0), q_n, -np.inf)))
        a1 = ext[0] < eps
        a2 = ext[1] < eps
        a3 = (ext[2] > Q_SLACK) if use_q else np.zeros(sel.size, dtype=bool)
        active = a1 | a2 | a3
        if not active.any():
            break
        # Averages never change, so a cell that passed once passes again;
        # the scalar check raises on the first failing cell with its message.
        act = sel[active]
        for i in act[~inside[act]]:
            c = int(live[i])
            _check_interior(ConservedState(*coeffs[c, :, 0]), region, use_q, c)
        t1 = np.full(sel.size, np.inf)
        t2 = np.full(sel.size, np.inf)
        t3 = np.full(sel.size, np.inf)
        if a1.any():
            i = sel[a1]
            t1[a1] = _ratio(rho_avg[i] - eps, rho_avg[i] - ext[0][a1])
        if a2.any():
            i = sel[a2]
            t2[a2] = _ratio(p_avg[i] - eps, p_avg[i] - ext[1][a2])
        if a3.any():
            q = q_avg[sel[a3]]  # theta3 = 0 where the average has q >= 0
            t3[a3] = np.where(q < 0.0, _ratio(-q, ext[2][a3] - q), 0.0)
        step = np.minimum(1.0, np.minimum(t1, np.minimum(t2, t3)))[active]
        c = live[act]
        coeffs[c, :, 1:] *= step[:, None, None]
        theta[c] *= step
        touched[act] = True
        for th, t, a in ((theta1, t1, a1), (theta2, t2, a2), (theta3, t3, a3)):
            if a.any():
                c = live[sel[a]]
                old = th[c]
                th[c] = np.multiply(old, t[a], out=t[a],
                                    where=np.isfinite(old))
        if round_idx:  # round 1 passes over every live cell, as round 0 did
            sel = act
    else:
        # round 2 rescaled these cells after their last pass
        admissible[sel] = _admissible(
            *_node_states(coeffs[live[sel]], region, V), eps, use_q)
    report.activated = theta < 1.0

    # Safety net: round-off can leave a node a few ulp outside after the
    # exact-arithmetic-tight rescalings; halve theta until the test set is
    # clean (rarely more than once, counted in diagnostics).
    pending = live[touched & ~admissible]
    rounds = 0
    while pending.size:
        if rounds == _MAX_FALLBACK:
            raise RegionViolationError(
                "limiter fallback exhausted without reaching the admissible set",
                cell=int(pending[0]))
        coeffs[pending, :, 1:] *= 0.5
        theta[pending] *= 0.5
        report.activated[pending] = True
        report.fallback_count += int(pending.size)
        rounds += 1
        pending = pending[~_admissible(
            *_node_states(coeffs[pending], region, V), eps, use_q)]
    return out, report
