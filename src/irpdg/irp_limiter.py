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
from .euler_core import ConservedState, InvariantRegion

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


@dataclass(frozen=True)
class CellLimiterReport:
    """Per-cell limiter diagnostics; inactive constraints carry +inf thetas."""

    theta: float
    theta1: float
    theta2: float
    theta3: float
    rho_min: float
    p_min: float
    q_max: float
    activated: bool


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

    def cell(self, i: int) -> CellLimiterReport:
        return CellLimiterReport(
            theta=float(self.theta[i]), theta1=float(self.theta1[i]),
            theta2=float(self.theta2[i]), theta3=float(self.theta3[i]),
            rho_min=float(self.rho_min[i]), p_min=float(self.p_min[i]),
            q_max=float(self.q_max[i]), activated=bool(self.activated[i]))


def _node_states(coeffs: np.ndarray, region: InvariantRegion,
                 V: np.ndarray):
    """(rho, p) at the test nodes of each cell, each (n_cells, n_nodes).

    p comes straight from the formula and may be nan or inf.  The einsum
    result is laid out cell by cell; the contiguous copy lets the
    elementwise passes below run over whole blocks.
    """
    rho, m, E = np.ascontiguousarray(np.einsum("cvj,nj->vcn", coeffs, V))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    return rho, p


def _node_quantities(coeffs: np.ndarray, region: InvariantRegion,
                     V: np.ndarray):
    """(rho, p, q) at the test nodes of each cell; q is +inf where undefined."""
    rho, p = _node_states(coeffs, region, V)
    p = np.where(np.isfinite(p), p, -np.inf)
    q = np.full(rho.shape, np.inf)
    pos = (rho > 0.0) & (p > 0.0)
    if pos.any():
        s = np.log(p[pos]) - region.gamma * np.log(rho[pos])
        q[pos] = (region.s0 - s) * rho[pos]
    return rho, p, q


def _node_min(a: np.ndarray) -> np.ndarray:
    """Per-cell minimum over the node columns of a (n_cells, n_nodes) array.

    Equals ``a.min(axis=1)`` bit for bit (nan propagates alike); a handful of
    whole-column ufunc calls beat a reduction over rows of 2-4 nodes.
    """
    return reduce(np.minimum, a.T)


def _node_max(a: np.ndarray) -> np.ndarray:
    return reduce(np.maximum, a.T)


def _valid_extrema(coeffs: np.ndarray, region: InvariantRegion,
                   V: np.ndarray):
    """Per-cell extrema restricted to nodes where each quantity is meaningful.

    The pressure formula only represents a pressure where rho > 0, and q
    needs rho > 0 and p > 0; extrema over other nodes would compare garbage.
    Nodes excluded here become visible on the next rescaling round, once the
    preceding constraint has pulled them into the valid cone.
    """
    rho, p = _node_states(coeffs, region, V)
    rho_ok = rho > 0.0
    p_masked = np.where(rho_ok, p, np.inf)
    p_min = _node_min(p_masked)  # +inf when no node is rho-valid
    q_masked = np.full(rho.shape, -np.inf)
    pos = rho_ok & (p > 0.0)
    if pos.any():
        s = np.log(p[pos]) - region.gamma * np.log(rho[pos])
        q_masked[pos] = (region.s0 - s) * rho[pos]
    q_max = _node_max(q_masked)  # -inf when no node is fully valid
    return _node_min(rho), p_min, q_max


def default_rule(degree: int) -> QuadratureRule:
    """Gauss-Lobatto test set matching the degree (2N-3 >= degree)."""
    return gauss_lobatto_rule(test_set_size(degree))


def test_set_extrema(fld: DGField, cell: int, region: InvariantRegion,
                     rule: QuadratureRule):
    """(rho_min, p_min, q_max) over one cell's Gauss-Lobatto nodes."""
    V = basis_table(fld.degree, rule.nodes)
    rho, p, q = _node_quantities(fld.coeffs[cell:cell + 1], region, V)
    return float(rho.min()), float(p.min()), float(q.max())


def _check_interior(avg: ConservedState, region: InvariantRegion,
                    need_q: bool, cell: int | None):
    """Strict interior membership of the average, raising on violation."""
    rho, m, E = avg
    where = "" if cell is None else f" (cell {cell})"
    if not rho > region.eps:
        raise RegionViolationError(
            f"average density {rho} not above eps{where}", cell=cell)
    p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    if not p > region.eps:
        raise RegionViolationError(
            f"average pressure {p} not above eps{where}", cell=cell)
    if not need_q:
        return rho, p, None
    q = (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho
    if not q < 0.0:
        raise RegionViolationError(
            f"average entropy functional q={q} not negative{where}", cell=cell)
    return rho, p, float(q)


def _guarded_ratio(num: float, den: float) -> float:
    # A denominator below the guard means the cell is essentially constant
    # while still violating, i.e. pressed against the region boundary;
    # flatten it completely rather than dividing by noise.
    return 0.0 if den < _DENOM_GUARD else num / den


def compute_theta(avg: ConservedState, extrema, region: InvariantRegion,
                  kind: str = LIMITER_IRP,
                  cell: int | None = None) -> CellLimiterReport:
    """Rescaling factor for one cell from its average and test-set extrema.

    Inactive constraints are excluded from the minimum (reported as +inf).
    The average must lie strictly inside the admissible set whenever any
    constraint is active; violation raises RegionViolationError because it
    signals a CFL or scheme failure upstream of the limiter.
    """
    if kind not in (LIMITER_POSITIVITY, LIMITER_IRP):
        raise ValueError(f"compute_theta expects an active limiter kind, got {kind!r}")
    rho_min, p_min, q_max = extrema
    use_q = kind == LIMITER_IRP
    a1 = rho_min < region.eps
    a2 = p_min < region.eps
    a3 = use_q and q_max > Q_SLACK
    if not (a1 or a2 or a3):
        return CellLimiterReport(1.0, np.inf, np.inf, np.inf,
                                 rho_min, p_min, q_max, False)

    rho_avg, p_avg, q_avg = _check_interior(avg, region, use_q, cell)
    theta1 = _guarded_ratio(rho_avg - region.eps, rho_avg - rho_min) \
        if a1 else np.inf
    theta2 = _guarded_ratio(p_avg - region.eps, p_avg - p_min) \
        if a2 else np.inf
    theta3 = np.inf
    if a3 and np.isfinite(q_max):
        theta3 = _guarded_ratio(-q_avg, q_max - q_avg)
    theta = min(1.0, theta1, theta2, theta3)
    return CellLimiterReport(theta, theta1, theta2, theta3,
                             rho_min, p_min, q_max, theta < 1.0)


def apply_limiter(fld: DGField, cell: int, theta: float) -> None:
    """Scale all higher modes of one cell by theta, in place.

    Coefficient 0 is untouched for every variable, so the cell average is
    preserved exactly (bitwise).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    fld.coeffs[cell, :, 1:] *= theta


def _nodes_admissible(coeffs: np.ndarray, region: InvariantRegion,
                      V: np.ndarray, use_q: bool) -> np.ndarray:
    rho, p, q = _node_quantities(coeffs, region, V)
    ok = reduce(np.logical_and, ((rho >= region.eps) & (p >= region.eps)).T)
    if use_q:
        ok &= reduce(np.logical_and, (q <= Q_SLACK).T)
    return ok


def _interior_mask(rho, m, E, region: InvariantRegion,
                   need_q: bool) -> np.ndarray:
    """Vectorized ``_check_interior``: True where the average passes it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
        ok = (rho > region.eps) & (p > region.eps)
        if need_q:
            q = (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho
            ok &= q < 0.0
    return ok


def limit_field(fld: DGField, mesh: Mesh1D, region: InvariantRegion,
                kind: str = LIMITER_IRP):
    """Limit every cell of a field; returns (limited field, report).

    The input field is not modified.  After limiting, every Gauss-Lobatto
    test node satisfies rho >= eps, p >= eps and (for the irp kind)
    q <= Q_SLACK; cell averages are bitwise unchanged.

    The combined rescaling theta = min(1, theta_i over violated constraints)
    is exact when all node states lie in the positive cone.  Nodes outside
    it (negative density or pressure) make the downstream quantities
    meaningless, so those constraints are deferred: up to three formula
    rounds walk the definedness chain rho -> p -> q, each applying the exact
    ratio for whatever is violated *and* evaluable.  Vacuum-adjacent cells
    need the extra rounds; cells with valid nodes finish in one, identical
    to the single-pass formula.
    """
    if kind not in LIMITER_KINDS:
        raise ValueError(f"unknown limiter kind {kind!r}")
    n = fld.n_cells
    rule = default_rule(fld.degree)
    V = basis_table(fld.degree, rule.nodes)
    rho_n, p_n, q_n = _node_quantities(fld.coeffs, region, V)
    rho_min = _node_min(rho_n)

    theta = np.ones(n)
    theta1 = np.full(n, np.inf)
    theta2 = np.full(n, np.inf)
    theta3 = np.full(n, np.inf)
    out = fld.copy()
    report = FieldLimiterReport(theta, theta1, theta2, theta3,
                                rho_min=rho_min,
                                p_min=_node_min(p_n),
                                q_max=_node_max(q_n),
                                activated=np.zeros(n, dtype=bool))
    if kind == LIMITER_NONE:
        return out, report

    use_q = kind == LIMITER_IRP
    coeffs = out.coeffs
    rho_avg = coeffs[:, 0, 0]
    m_avg = coeffs[:, 1, 0]
    E_avg = coeffs[:, 2, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_avg = (region.gamma - 1.0) * (E_avg - 0.5 * m_avg**2 / rho_avg)
    touched = np.zeros(n, dtype=bool)

    def _ratio(num, den):
        return np.where(den < _DENOM_GUARD, 0.0,
                        num / np.maximum(den, _DENOM_GUARD))

    for round_idx in range(3):
        if round_idx == 0:
            # reuse the report evaluation, masked to the valid cone
            p_min = _node_min(np.where(rho_n > 0.0, p_n, np.inf))
            q_max = _node_max(np.where(np.isfinite(q_n), q_n, -np.inf))
        else:
            rho_min, p_min, q_max = _valid_extrema(coeffs, region, V)
        a1 = rho_min < region.eps
        a2 = p_min < region.eps
        a3 = (q_max > Q_SLACK) if use_q else np.zeros(n, dtype=bool)
        active = a1 | a2 | a3
        if not active.any():
            break
        # Averages never change, so a cell that passed once passes again;
        # the scalar check raises on the first failing cell with its message.
        cells = np.flatnonzero(active)
        for c in cells[~_interior_mask(rho_avg[cells], m_avg[cells],
                                       E_avg[cells], region, use_q)]:
            _check_interior(ConservedState(rho_avg[c], m_avg[c], E_avg[c]),
                            region, use_q, int(c))
        t1 = np.full(n, np.inf)
        t2 = np.full(n, np.inf)
        t3 = np.full(n, np.inf)
        t1[a1] = _ratio(rho_avg[a1] - region.eps, rho_avg[a1] - rho_min[a1])
        t2[a2] = _ratio(p_avg[a2] - region.eps, p_avg[a2] - p_min[a2])
        if a3.any():
            q_avg = (region.s0 - (np.log(p_avg[a3])
                                  - region.gamma * np.log(rho_avg[a3]))) \
                * rho_avg[a3]
            t3[a3] = _ratio(-q_avg, q_max[a3] - q_avg)
        step = np.minimum(1.0, np.minimum(t1, np.minimum(t2, t3)))
        coeffs[active, :, 1:] *= step[active, None, None]
        theta[active] *= step[active]
        touched |= active
        theta1[a1] = np.where(np.isfinite(theta1[a1]), theta1[a1] * t1[a1],
                              t1[a1])
        theta2[a2] = np.where(np.isfinite(theta2[a2]), theta2[a2] * t2[a2],
                              t2[a2])
        theta3[a3] = np.where(np.isfinite(theta3[a3]), theta3[a3] * t3[a3],
                              t3[a3])
    report.activated = theta < 1.0

    # Safety net: round-off can leave a node a few ulp outside after the
    # exact-arithmetic-tight rescalings; halve theta until the test set is
    # clean (rarely more than once, counted in diagnostics).
    pending = np.flatnonzero(touched)
    rounds = 0
    while pending.size:
        ok = _nodes_admissible(coeffs[pending], region, V, use_q)
        pending = pending[~ok]
        if not pending.size:
            break
        if rounds == _MAX_FALLBACK:
            raise RegionViolationError(
                "limiter fallback exhausted without reaching the admissible set",
                cell=int(pending[0]))
        coeffs[pending, :, 1:] *= 0.5
        theta[pending] *= 0.5
        report.activated[pending] = True
        report.fallback_count += int(pending.size)
        rounds += 1
    return out, report
