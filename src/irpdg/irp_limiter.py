"""Explicit invariant-region-preserving limiter for modal DG fields.

Each cell polynomial is rescaled about its (preserved) average,
``w <- theta * w + (1 - theta) * mean``, with one theta per cell shared by
all three conserved variables.  theta is the minimum of per-constraint
ratios computed from cell averages and extrema over the Gauss-Lobatto test
nodes.  The positivity-only variant drops the entropy constraint.
"""

from __future__ import annotations

import numpy as np

from .dg_space import DGField, _max_speed, _test_table, _values_at
from .euler_core import InvariantRegion, gas_state

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
    """A cell average left the strict interior of the admissible set.

    ``evolve`` sets ``step``, and ``note`` where the failing step ran outside
    the conditions of the IRP theory.
    """

    def __init__(self, message: str, cell: int | None = None):
        super().__init__(message)
        self.cell = cell
        self.step: int | None = None
        self.note: str | None = None


class FieldLimiterReport:
    """Vectorized limiter diagnostics for a whole field.

    ``theta`` is each cell's rescaling, and ``n_rho_active``,
    ``n_p_active`` and ``n_q_active`` count the cells whose density,
    pressure and entropy constraints acted.  ``quiet`` says that the call
    returned its input field itself: a none-kind call always does, a
    positivity or irp call when it finds no cell in play.  ``max_speed`` is
    the returned field's max |u| + c over the test nodes, bit for bit what
    ``global_max_signal_speed`` returns for it, or None where the call was
    not asked for it or the kind is none.
    """

    def __init__(self, theta: np.ndarray, counts=(0, 0, 0),
                 fallback_count: int = 0, max_speed: float | None = None,
                 quiet: bool = False):
        self.theta = theta
        self.n_rho_active, self.n_p_active, self.n_q_active = counts
        self.fallback_count = fallback_count
        self.max_speed = max_speed
        self.quiet = quiet

    @property
    def activated(self) -> np.ndarray:
        return self.theta < 1.0

    @property
    def n_activated(self) -> int:
        return int(np.count_nonzero(self.activated))

    @property
    def min_theta(self) -> float:
        return float(self.theta.min()) if self.theta.size else 1.0


def _node_states(modes: np.ndarray, region: InvariantRegion,
                 V: np.ndarray):
    """(rho, m, p, q) at the test nodes of each cell, each (n_nodes, n_cells).

    ``modes`` is a C-contiguous mode-major block (k, 3, n_cells).

    p comes straight from the formula and may be nan or inf.  q is the
    entropy functional, meaningful only where rho > 0 and p > 0; each
    caller masks the other nodes as its use requires.  The node values come
    from the wave speed's kernel (``_values_at``), one contiguous block per
    variable.  Unchecked, and without an ``errstate`` of its own: the
    caller sets one.
    """
    rho, m, E = _values_at(modes, V)
    p, _, q = gas_state(rho, m, E, region)
    return rho, m, p, q


def _admissible(rho, p, q, eps: float, q_max: float) -> np.ndarray:
    """Per cell: every node has rho >= eps, a finite p >= eps and q <= q_max
    (nodes passing the first two tests lie in the positive cone, so their q
    is not nan; q_max = inf drops the entropy test)."""
    ok = (rho >= eps) & (p >= eps) & (p < np.inf)
    ok &= q <= q_max
    return np.logical_and.reduce(ok, axis=0)


def limit_field(fld: DGField, region: InvariantRegion,
                kind: str = LIMITER_IRP, speed: bool = True):
    """Limit every cell of a field; returns (limited field, report).

    The input field is not modified.  After limiting, every Gauss-Lobatto
    test node satisfies rho >= eps, p >= eps and (for the irp kind)
    q <= Q_SLACK; cell averages are bitwise unchanged.  A nan node density
    counts as a violation, and a nan or infinite node extremum gives its
    constraint theta 0; a cell rescaled by 0 keeps none of its non-finite
    modes.  A cell in violation whose average lies outside (rho or p not
    above eps, p not finite, or, for the irp kind, q above Q_SLACK) raises
    RegionViolationError naming the cell.

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

    The none kind evaluates nothing and returns its input field.  The other
    kinds make one node pass over every cell, and the cells with a node
    outside the region are in play.  When none is, the call is quiet: it
    returns its input field itself.  Otherwise the cells in play are
    gathered once into one block, and one loop works on it whole, a node
    pass at a time: pass 0 is the first pass's columns, every later pass
    one node evaluation of the block after its last rescaling.  The loop
    ends at the pass every cell passes.  Before that, a pass gives a
    formula round its extrema (at most three rounds, none after a halving),
    or, where the rounds are spent or no constraint is active, halves the
    cells that acted and still fail (at most ``_MAX_FALLBACK`` times; then
    it raises RegionViolationError naming the first of them).

    A formula round sees the three constraints as rows of lower bounds, on
    rho, p and -q: one reduce over a (3, nodes, cells) stack gives the three
    extrema (masked only where a node has rho <= 0 or p <= 0), and one
    subtraction from the averages' rows their denominators, since
    (-q_avg) - min(-q) is max q - q_avg in IEEE arithmetic.  Every cell in
    play has an active constraint in round 0 and averages never change, so
    the averages are tested once, before the loop.  A cell that a
    rescaling leaves alone is multiplied by exactly 1.0, which keeps its
    bits.  The block is written into a copy of the coefficients, the new
    field.  With ``speed``, the report carries the new field's wave speed,
    from the first pass's node values with the block's last pass scattered
    into the cells in play: the node kernel gives a gathered block's
    columns the bits it gives them over the whole field.
    """
    if kind not in LIMITER_KINDS:
        raise ValueError(f"unknown limiter kind {kind!r}")
    theta = np.ones(fld.n_cells)
    if kind == LIMITER_NONE:
        return fld, FieldLimiterReport(theta, quiet=True)

    max_speed = None
    # the entropy row's bound: the positivity kind leaves q unbounded
    q_max = Q_SLACK if kind == LIMITER_IRP else np.inf
    eps = region.eps
    V = _test_table(fld.degree)
    modes = fld.coeffs.T  # mode-major: (k, 3, n), C-contiguous
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho_f, m_f, p_f, q_f = _node_states(modes, region, V)
        live = np.flatnonzero(~_admissible(rho_f, p_f, q_f, eps, q_max))
        # every node of an admissible cell has rho >= eps and a finite
        # p >= eps, and so has every node of the limited cells (see below)
        if not live.size:
            if speed:
                max_speed = _max_speed(rho_f, m_f, p_f, region.gamma)
            return fld, FieldLimiterReport(theta, max_speed=max_speed,
                                           quiet=True)

        block = np.take(modes, live, axis=2)  # the cells in play, (k, 3, L)
        rho_avg = block[0, 0]
        p_avg, _, q_avg = gas_state(rho_avg, block[0, 1], block[0, 2],
                                    region)
        # The averages' rows rho, p and -q, the constraints' lower-bounded
        # quantities, and -p for the test below.
        avg = np.array([rho_avg, p_avg, -q_avg, -p_avg])
        # The average test: rho and p strictly above eps, p finite as at the
        # nodes, and q <= Q_SLACK as at the nodes, since the region is
        # closed and round-off leaves isentropic averages at q = 0 up to a
        # few 1e-14.  A nan fails it.  Every cell in play has an active
        # constraint in round 0, so the first failing cell raises.
        rho_lo, p_lo, negq_lo, negp_lo = avg.min(axis=1).tolist()
        if not (rho_lo > eps and p_lo > eps and negp_lo > -np.inf
                and negq_lo >= -q_max):
            inside = (rho_avg > eps) & (p_avg > eps) & (p_avg < np.inf)
            inside &= q_avg <= q_max
            i = int(np.argmin(inside))
            c = int(live[i])
            if not rho_avg[i] > eps:
                what = f"density {rho_avg[i]} not above eps"
            elif not p_avg[i] > eps:
                what = f"pressure {p_avg[i]} not above eps"
            elif not p_avg[i] < np.inf:
                what = f"pressure {p_avg[i]} not finite"
            else:
                what = f"entropy functional q={q_avg[i]} not negative"
            raise RegionViolationError(f"average {what} (cell {c})", cell=c)
        avg = avg[:3]
        # The ratios' numerators rho - eps, p - eps and -q, where +0 gives
        # theta3 = 0 to an average with q >= 0 (if negq_lo says there is
        # one).
        num = avg - eps
        num[2] = avg[2]
        if negq_lo <= 0.0:
            num[2, q_avg >= 0.0] = 0.0
        bounds = np.array([[eps], [eps], [-q_max]])
        # pass 0: the first pass's columns, which no cell passes; it counts
        # a non-finite p as -inf
        stack = np.empty((3, V.shape[0], live.size))  # rho, p, -q at nodes
        for row, values in zip(stack, (rho_f, p_f, q_f)):
            np.take(values, live, axis=1, out=row, mode="clip")
        stack[1][~np.isfinite(stack[1])] = -np.inf
        np.negative(stack[2], out=stack[2])
        acted = np.zeros((3, live.size), dtype=bool)  # per constraint
        block_theta = 1.0
        rounds = halvings = fallbacks = 0
        while True:
            formula = rounds < 3 and not halvings
            if formula:
                ext = np.minimum.reduce(stack, axis=1)
                if not ext[:2].min() > 0.0:
                    # A node with rho <= 0 or p <= 0, or a nan: p counts
                    # only where rho > 0, -q only where p > 0 too, and a
                    # nan density violates, as -inf.
                    pos = stack[:2] > 0.0
                    pos[1] &= pos[0]
                    np.minimum.reduce(stack[1:], axis=1, where=pos,
                                      initial=np.inf, out=ext[1:])
                    ext[0][np.isnan(ext[0])] = -np.inf
                a = ext < bounds  # rows: the active constraints
                formula = np.count_nonzero(a) > 0
            if formula:
                # A denominator below the guard means the cell is
                # essentially constant while still violating, i.e. pressed
                # against the region boundary; flatten it completely rather
                # than dividing by noise.  A nan or infinite one (a node
                # that is nan or infinite) flattens it too.  An inactive row
                # gives 1.0, so a cell with no active constraint is rescaled
                # by exactly 1.0, which keeps its bits.
                den = avg - ext
                t = np.where(a, 0.0, 1.0)
                np.divide(num, den, out=t,
                          where=(den >= _DENOM_GUARD) & (den < np.inf) & a)
                step = np.minimum.reduce(t, axis=0)
                if np.count_nonzero(step) < step.size:
                    # inf * 0 is nan: a cell flattened to its mean drops the
                    # non-finite modes (+0); the finite ones keep their
                    # signed zeros
                    np.copyto(block[1:], 0.0,
                              where=(step == 0.0) & ~np.isfinite(block[1:]))
                acted |= a
                rounds += 1
            else:
                # Safety net: round-off can leave a node a few ulp outside
                # after the exact-arithmetic-tight rescalings; halve theta
                # until the test set is clean (rarely more than once,
                # counted in diagnostics).
                pending = acted.any(axis=0) & ~admissible
                if halvings == _MAX_FALLBACK:
                    raise RegionViolationError(
                        "limiter fallback exhausted without reaching the "
                        "admissible set", cell=int(live[np.argmax(pending)]))
                step = np.where(pending, 0.5, 1.0)  # 1.0 keeps the others
                fallbacks += int(np.count_nonzero(pending))
                halvings += 1
            block[1:] *= step
            block_theta = block_theta * step
            rho_n, m_n, p_n, q_n = _node_states(block, region, V)
            admissible = _admissible(rho_n, p_n, q_n, eps, q_max)
            if np.count_nonzero(admissible) == live.size:
                break
            stack[0], stack[1] = rho_n, p_n
            np.negative(q_n, out=stack[2])
        # The block's last node pass came after its last rescaling, and
        # every cell passed it: its nodes have rho >= eps and a finite
        # p >= eps.  The first pass's arrays are this call's own.
        if speed:
            rho_f[:, live], m_f[:, live], p_f[:, live] = rho_n, m_n, p_n
            max_speed = _max_speed(rho_f, m_f, p_f, region.gamma)
    out = modes.copy()
    out[:, :, live] = block
    theta[live] = block_theta
    return DGField(fld.degree, out.T), FieldLimiterReport(
        theta, acted.sum(axis=1).tolist(), fallbacks, max_speed)
