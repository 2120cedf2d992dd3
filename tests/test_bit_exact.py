"""Bit-exactness of the step's hot path against oracles of the plain formulas.

The oracles below spell out the operator, the limiter and the wave speed as
three-operand einsums over freshly built basis tables, row reductions with
``.min/.max/.all(axis=1)`` and a scalar interior check per active cell.  The
library computes the same arithmetic faster; every result must be equal bit
for bit (``np.array_equal`` on arrays, ``==`` on floats).
"""

import hashlib
import importlib
import pkgutil

import numpy as np
import pytest

import irpdg
import irpdg.dg_space as dg_space
import irpdg.irp_limiter as irp_limiter
import irpdg.time_integration as ti
from irpdg.dg_space import INFLOW_OUTFLOW, OUTFLOW, PERIODIC, DGField, \
    Mesh1D, basis_derivatives, basis_values, default_rule, \
    evaluate_at_nodes, gauss_legendre_rule, gauss_lobatto_rule, global_max_signal_speed, \
    spatial_operator
from irpdg.dg_space import _node_values, _operator_tables, _test_table, \
    _values_at
from irpdg.euler_core import ConservedState, InvariantRegion, \
    PrimitiveState, gas_entropy, gas_pressure, gas_state, in_region, \
    in_region_interior, to_conserved
from irpdg.harness import RunConfig, run
from irpdg.irp_limiter import LIMITER_IRP, LIMITER_KINDS, \
    LIMITER_POSITIVITY, Q_SLACK, RegionViolationError, limit_field

GAMMA = 1.4
REGION = InvariantRegion(GAMMA, s0=-1.0)
DEGREES = (1, 2, 3)
REPORT_ARRAYS = ("theta", "activated")
# each constraint's count against the oracle's product of its ratios, which
# is finite where the constraint acted
REPORT_COUNTS = (("n_rho_active", "theta1"), ("n_p_active", "theta2"),
                 ("n_q_active", "theta3"))


def oracle_flux(rho, m, E, gamma):
    u = m / rho
    p = (gamma - 1.0) * (E - 0.5 * m * m / rho)
    return np.stack([m, m * u + p, (E + p) * u])


def oracle_spatial_operator(fld, mesh, gamma, alpha):
    deg = fld.degree
    vol = gauss_legendre_rule(deg + 1)
    Vq = np.ascontiguousarray(basis_values(deg, vol.nodes))
    Dq = np.ascontiguousarray(basis_derivatives(deg, vol.nodes))
    phi_left = basis_values(deg, -0.5)
    phi_right = basis_values(deg, 0.5)
    # einsum's order depends on the layout: the C-order arithmetic the
    # operator was pinned to, whatever the field's storage
    coeffs = np.ascontiguousarray(fld.coeffs)
    vals = np.einsum("cvj,qj->vcq", coeffs, Vq)
    F = oracle_flux(*vals, gamma)
    volume = np.einsum("vcq,q,qj->cvj", F, vol.weights, Dq)
    trace_l = np.einsum("cvj,j->vc", coeffs, phi_left)
    trace_r = np.einsum("cvj,j->vc", coeffs, phi_right)
    if mesh.boundary == PERIODIC:
        wL = np.concatenate([trace_r[:, -1:], trace_r], axis=1)
        wR = np.concatenate([trace_l, trace_l[:, :1]], axis=1)
    elif mesh.boundary == INFLOW_OUTFLOW:
        ghost = np.asarray(mesh.inflow, dtype=float).reshape(3, 1)
        wL = np.concatenate([ghost, trace_r], axis=1)
        wR = np.concatenate([trace_l, trace_r[:, -1:]], axis=1)
    else:
        wL = np.concatenate([trace_l[:, :1], trace_r], axis=1)
        wR = np.concatenate([trace_l, trace_r[:, -1:]], axis=1)
    fluxes = 0.5 * (oracle_flux(*wL, gamma) + oracle_flux(*wR, gamma)) \
        - 0.5 * alpha * (wR - wL)
    resid = volume - np.einsum("vc,j->cvj", fluxes[:, 1:], phi_right)
    resid += np.einsum("vc,j->cvj", fluxes[:, :-1], phi_left)
    return resid / mesh.h


def oracle_max_signal_speed(fld, gamma, rule):
    V = basis_values(fld.degree, np.atleast_1d(rule.nodes))
    vals = np.einsum("cvj,nj->cvn", fld.coeffs, V)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    p = (gamma - 1.0) * (E - 0.5 * m * m / rho)
    return float(np.max(np.abs(m / rho) + np.sqrt(gamma * p / rho)))


def _oracle_nodes(coeffs, region, V):
    rho, m, E = np.einsum("cvj,nj->vcn", coeffs, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    return rho, p


def _oracle_q(rho, p, region, fill):
    q = np.full(rho.shape, fill)
    pos = (rho > 0.0) & (p > 0.0)
    s = np.log(p[pos]) - region.gamma * np.log(rho[pos])
    q[pos] = (region.s0 - s) * rho[pos]
    return q


def oracle_check_average(rho, m, E, region, use_q, cell):
    """Raise as the limiter does for an average outside the region: rho
    and p not above eps, or (irp) q above Q_SLACK."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
        q = (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho
    if not rho > region.eps:
        what = f"density {rho} not above eps"
    elif not p > region.eps:
        what = f"pressure {p} not above eps"
    elif use_q and not q <= Q_SLACK:
        what = f"entropy functional q={q} not negative"
    else:
        return
    raise RegionViolationError(f"average {what} (cell {cell})", cell=cell)


def oracle_limit_field(fld, region, kind):
    """The limiter's rounds and fallback, written with row reductions."""
    n = fld.n_cells
    V = basis_values(fld.degree, default_rule(fld.degree).nodes)
    rho, p = _oracle_nodes(fld.coeffs, region, V)
    p = np.where(np.isfinite(p), p, -np.inf)  # in round 0 only
    rep = {"theta": np.ones(n), "theta1": np.full(n, np.inf),
           "theta2": np.full(n, np.inf), "theta3": np.full(n, np.inf),
           "activated": np.zeros(n, dtype=bool), "fallback_count": 0}
    coeffs = fld.coeffs.copy()
    if kind == "none":
        return coeffs, rep
    use_q = kind == LIMITER_IRP
    rho_avg, m_avg, E_avg = coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_avg = (region.gamma - 1.0) * (E_avg - 0.5 * m_avg**2 / rho_avg)
    checked = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)

    def ratio(num, den):  # a nan or infinite denominator gives 0 too
        with np.errstate(invalid="ignore"):
            t = np.where(den < 1e-14, 0.0, num / np.maximum(den, 1e-14))
        return np.where(np.isfinite(den), t, 0.0)

    for round_idx in range(3):
        if round_idx:
            rho, p = _oracle_nodes(coeffs, region, V)
        rho_min = rho.min(axis=1)
        p_min = np.where(rho > 0.0, p, np.inf).min(axis=1)
        q_max = _oracle_q(rho, p, region, -np.inf).max(axis=1)
        a1 = ~(rho_min >= region.eps)  # a nan density violates
        a2 = p_min < region.eps
        a3 = (q_max > Q_SLACK) if use_q else np.zeros(n, dtype=bool)
        active = a1 | a2 | a3
        if not active.any():
            break
        for c in np.flatnonzero(active & ~checked):
            oracle_check_average(rho_avg[c], m_avg[c], E_avg[c], region,
                                 use_q, int(c))
            checked[c] = True
        t1, t2, t3 = (np.full(n, np.inf) for _ in range(3))
        t1[a1] = ratio(rho_avg[a1] - region.eps, rho_avg[a1] - rho_min[a1])
        t2[a2] = ratio(p_avg[a2] - region.eps, p_avg[a2] - p_min[a2])
        if a3.any():
            q_avg = (region.s0 - (np.log(p_avg[a3])
                                  - region.gamma * np.log(rho_avg[a3]))) \
                * rho_avg[a3]
            # an average on the entropy boundary (0 <= q <= Q_SLACK) gets 0
            t3[a3] = np.where(q_avg < 0.0,
                              ratio(-q_avg, q_max[a3] - q_avg), 0.0)
        step = np.minimum(1.0, np.minimum(t1, np.minimum(t2, t3)))
        coeffs[active, :, 1:] *= step[active, None, None]
        rep["theta"][active] *= step[active]
        touched |= active
        for name, a, t in (("theta1", a1, t1), ("theta2", a2, t2),
                           ("theta3", a3, t3)):
            old = rep[name][a]
            rep[name][a] = np.where(np.isfinite(old), old * t[a], t[a])
    rep["activated"] = rep["theta"] < 1.0
    pending = np.flatnonzero(touched)
    for _ in range(6):  # the library gives up after five halvings
        rho, p = _oracle_nodes(coeffs[pending], region, V)
        p = np.where(np.isfinite(p), p, -np.inf)
        ok = (rho >= region.eps).all(axis=1) & (p >= region.eps).all(axis=1)
        if use_q:
            ok &= (_oracle_q(rho, p, region, np.inf) <= Q_SLACK).all(axis=1)
        pending = pending[~ok]
        if not pending.size:
            break
        coeffs[pending, :, 1:] *= 0.5
        rep["theta"][pending] *= 0.5
        rep["activated"][pending] = True
        rep["fallback_count"] += int(pending.size)
    return coeffs, rep


def random_field(rng, n, degree, spread):
    """Interior averages plus normal higher modes scaled by ``spread``."""
    rho = rng.uniform(0.3, 3.0, n)
    u = rng.uniform(-1.5, 1.5, n)
    s = REGION.s0 + rng.uniform(0.05, 2.0, n)
    w = to_conserved(PrimitiveState(rho, u, np.exp(s) * rho**GAMMA), GAMMA)
    coeffs = np.zeros((n, 3, degree + 1))
    coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
    coeffs[:, :, 1:] = spread * rng.standard_normal((n, 3, degree)) \
        * np.abs(coeffs[:, :, :1])
    return DGField(degree, coeffs)


def density_dip_field(rng, n, degree):
    """Only the density has higher modes; limiting it to eps leaves nodes
    a few ulp below eps often enough to need fallback rounds."""
    coeffs = np.zeros((n, 3, degree + 1))
    coeffs[:, 0, 0] = rng.uniform(0.5, 2.0, n)
    coeffs[:, 2, 0] = 5.0
    coeffs[:, 0, 1:] = 2.0 * rng.standard_normal((n, degree))
    return DGField(degree, coeffs)


def assert_limiter_matches(fld, region, kind):
    out, rep = limit_field(fld, region, kind)
    coeffs, expected = oracle_limit_field(fld, region, kind)
    assert np.array_equal(out.coeffs, coeffs)
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(rep, name), expected[name]), name
    for name, key in REPORT_COUNTS:
        assert getattr(rep, name) == \
            np.count_nonzero(np.isfinite(expected[key])), name
    assert rep.fallback_count == expected["fallback_count"]
    return rep


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("boundary", (PERIODIC, OUTFLOW, INFLOW_OUTFLOW))
def test_spatial_operator_bit_exact(degree, boundary):
    rng = np.random.default_rng(10 * degree + len(boundary))
    fld = random_field(rng, 64, degree, 0.2)
    ghost = to_conserved(PrimitiveState(3.857143, 2.629369, 10.3333), GAMMA) \
        if boundary == INFLOW_OUTFLOW else None
    mesh = Mesh1D(-1.0, 2.0, fld.n_cells, boundary, ghost)
    got = spatial_operator(fld, mesh, GAMMA, 4.7)
    assert np.array_equal(got, oracle_spatial_operator(fld, mesh, GAMMA, 4.7))


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("kind", LIMITER_KINDS)
def test_limit_field_bit_exact_with_active_cells(degree, kind):
    rng = np.random.default_rng(degree)
    fld = random_field(rng, 400, degree, 1.0)
    rep = assert_limiter_matches(fld, REGION, kind)
    if kind != "none":
        assert rep.n_activated > 50


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("kind", (LIMITER_POSITIVITY, LIMITER_IRP))
def test_limit_field_bit_exact_through_fallback(degree, kind):
    fld = density_dip_field(np.random.default_rng(7), 300, degree)
    region = InvariantRegion(GAMMA, s0=-10.0)
    assert assert_limiter_matches(fld, region, kind).fallback_count > 0


def test_limit_field_raises_on_first_failing_cell_as_before():
    fld = random_field(np.random.default_rng(3), 40, 2, 1.0)
    for c in (31, 12):  # two active cells with a negative average pressure
        fld.coeffs[c, 2, 0] = -1.0
    with pytest.raises(RegionViolationError) as got:
        limit_field(fld, REGION)
    with pytest.raises(RegionViolationError) as expected:
        oracle_limit_field(fld, REGION, LIMITER_IRP)
    assert (str(got.value), got.value.cell) == \
        (str(expected.value), expected.value.cell)
    assert got.value.cell == 12


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("kind", (LIMITER_POSITIVITY, LIMITER_IRP))
def test_limit_field_bit_exact_with_active_cells_at_both_ends(degree, kind):
    fld = random_field(np.random.default_rng(11), 50, degree, 0.001)
    fld.coeffs[[0, -1], 0, 1:] = 2.0 * fld.coeffs[[0, -1], 0, :1]
    rep = assert_limiter_matches(fld, REGION, kind)
    assert np.flatnonzero(rep.activated).tolist() == [0, 49]


def counted_node_states(monkeypatch):
    """Patch the limiter's node evaluation; returns the cell count per call."""
    calls = []
    original = irp_limiter._node_states

    def counted(modes, *args):
        calls.append(modes.shape[2])
        return original(modes, *args)

    monkeypatch.setattr(irp_limiter, "_node_states", counted)
    return calls


def test_limit_field_bit_exact_when_a_cell_needs_three_rounds(monkeypatch):
    # round 0 lifts the density at a node, round 1 the pressure that this
    # uncovers, round 2 the entropy; the fallback must then evaluate the
    # cell afresh, as round 2 rescaled it after its last pass
    fld = random_field(np.random.default_rng(4), 30, 2, 0.01)
    fld.coeffs[17] = [[1.0, 0.16, -0.4], [0.34, -1.2, 1.77],
                      [2.5, -0.54, -1.58]]
    calls = counted_node_states(monkeypatch)
    rep = assert_limiter_matches(fld, REGION, LIMITER_IRP)
    assert calls == [30, 1, 1, 1] and rep.fallback_count == 0
    assert np.flatnonzero(rep.activated).tolist() == [17]
    assert (rep.n_rho_active, rep.n_p_active, rep.n_q_active) == (1, 1, 1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("kind", LIMITER_KINDS)
def test_limit_field_bit_exact_with_nonfinite_node_pressures(degree, kind):
    fld = random_field(np.random.default_rng(5), 8, degree, 0.01)
    fld.coeffs[1, 2, 1] = 1.5e308  # E overflows: p = +inf and -inf
    fld.coeffs[3, 2, 1] = 1.5e308  # and m*m too: p = nan (inf - inf)
    fld.coeffs[3, 1, 1] = 1e200
    fld.coeffs[5, 1, 1] = 1e200  # m*m overflows alone: p = -inf
    V = basis_values(degree, default_rule(degree).nodes)
    p = _oracle_nodes(fld.coeffs, REGION, V)[1]
    assert np.isnan(p[3]).any() and np.isposinf(p[1]).any()
    assert np.isneginf(p[5]).any()
    rep = assert_limiter_matches(fld, REGION, kind)
    if kind != "none":
        assert np.flatnonzero(rep.activated).tolist() == [1, 3, 5]


def test_limit_field_evaluates_node_states_once_per_round(monkeypatch):
    quiet = random_field(np.random.default_rng(6), 40, 2, 0.01)
    calls = counted_node_states(monkeypatch)
    assert limit_field(quiet, REGION)[1].n_activated == 0
    assert calls == [40]

    # entropy dips at one node of cells 7 and 23; every node stays in the
    # positive cone, so one round limits them and the next pass clears them
    fld = quiet.copy()
    fld.coeffs[[7, 23]] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.5, 1.3, 0.0]]
    calls.clear()
    _, rep = limit_field(fld, REGION)
    assert np.flatnonzero(rep.activated).tolist() == [7, 23]
    assert rep.n_q_active == 2 and rep.fallback_count == 0
    assert calls == [40, 2]


def test_limit_field_matches_the_oracle_on_a_lax_solves_fields(monkeypatch):
    # every field a Lax P2 N=100 solve hands the limiter up to t = 0.05,
    # nearly all with cells in play: the new field, theta, the three
    # counts, the fallbacks and the wave speed are the oracles', bit for
    # bit, also for the stage limits that the solve asks for no speed
    received = []

    def recorded(fld, region, kind, speed=True):
        received.append((fld.copy(), region, kind))
        return limit_field(fld, region, kind, speed)

    monkeypatch.setattr(ti, "limit_field", recorded)
    run(RunConfig(problem="lax", degree=2, n_cells=100, t_final=0.05))
    in_play = 0
    for fld, region, kind in received:
        rep = assert_limiter_matches(fld, region, kind)
        coeffs, _ = oracle_limit_field(fld, region, kind)
        assert rep.max_speed == oracle_max_signal_speed(
            DGField(fld.degree, coeffs), region.gamma, default_rule(2))
        in_play += not rep.quiet
    assert len(received) > 200 and in_play > 0.9 * len(received)


def test_limit_field_names_the_first_pending_cell_when_the_fallback_gives_up(
        monkeypatch):
    # with a node test that no cell passes, cells 7 and 23 take five
    # halvings and the error names the first of them
    fld = random_field(np.random.default_rng(6), 40, 2, 0.01)
    fld.coeffs[[7, 23]] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.5, 1.3, 0.0]]
    monkeypatch.setattr(irp_limiter, "_admissible",
                        lambda rho, *args: np.zeros(rho.shape[1], dtype=bool))
    with pytest.raises(RegionViolationError,
                       match="fallback exhausted") as got:
        limit_field(fld, REGION)
    assert got.value.cell == 7


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_limit_field_raises_on_an_entropy_overflow_in_round_0():
    # at a density of 1e306, q = (s0 - s) * rho overflows to +inf at the
    # nodes and the average, so round 0 finds the cell active and fails it
    fld = random_field(np.random.default_rng(8), 40, 2, 1.0)
    fld.coeffs[20] = 0.0
    fld.coeffs[20, 0, 0], fld.coeffs[20, 2, 0] = 1e306, 2.5
    with pytest.raises(RegionViolationError) as got:
        limit_field(fld, REGION)
    with pytest.raises(RegionViolationError) as expected:
        oracle_limit_field(fld, REGION, LIMITER_IRP)
    assert (str(got.value), got.value.cell) == \
        (str(expected.value), expected.value.cell)
    assert got.value.cell == 20


# Single density-dip cells (E = 5, m = 0) whose limited density ends a few
# ulp below eps at a node, so each takes a fallback halving under both
# kinds; drawn as density_dip_field draws its cells, one per degree.
FALLBACK_DENSITY = {1: [1.41, 1.894], 2: [1.891, 2.008, -1.236],
                    3: [1.873, -0.014, -1.122, -1.735]}
CELLS_IN_PLAY = ("rho_dip", "p_dip", "q_dip", "flat", "fallback",
                 "on_boundary", "overflow")


def limiter_fields(st):
    """Strategy of (field, kind, cell types) for ``REGION``.

    Most cells are quiet: an interior average with higher modes of 1% of
    it.  The others are in play: a density, pressure or entropy dip (the
    variable's higher modes up to 3x, 3x and 0.5x its average), a cell
    whose density average lies just above eps and whose lowest node lies
    2e-15 below it, which the denominator guard flattens, one of
    ``FALLBACK_DENSITY``, and a cell at rest whose average lies on the
    entropy boundary (q about 4e-13, within Q_SLACK) with an energy dip of
    up to 5%, which theta3 = 0 flattens.  An overflow cell is constant at
    a density of 1e306 to 2e306, where q overflows to +inf at its nodes and
    its average: the irp kind raises naming the first one, and the
    positivity kind leaves it quiet.
    """
    @st.composite
    def fields(draw):
        degree = draw(st.integers(1, 3))
        kind = draw(st.sampled_from([LIMITER_POSITIVITY, LIMITER_IRP]))
        types = draw(st.lists(st.sampled_from(("quiet",) * 5 + CELLS_IN_PLAY),
                              min_size=1, max_size=16))
        coeffs = np.zeros((len(types), 3, degree + 1))
        for c, cell in enumerate(types):
            rho, u, ds = (draw(st.floats(lo, hi)) for lo, hi in
                          ((0.3, 3.0), (-1.5, 1.5), (0.05, 2.0)))
            modes = np.reshape(draw(st.lists(st.floats(-1.0, 1.0),
                                             min_size=3 * degree,
                                             max_size=3 * degree)),
                               (3, degree))
            if cell == "fallback":
                coeffs[c, 0] = FALLBACK_DENSITY[degree]
                coeffs[c, 2, 0] = 5.0
                continue
            if cell == "overflow":  # p = rho, m = 0
                coeffs[c, 0, 0] = 1e306 * (1.5 + 0.5 * modes[0, 0])
                coeffs[c, 2, 0] = 2.5 * coeffs[c, 0, 0]
                continue
            if cell == "flat":
                coeffs[c, 0, 0] = REGION.eps * (1.03 + 0.02 * modes[0, 0])
                coeffs[c, 0, 1] = (coeffs[c, 0, 0] - REGION.eps + 2e-15) \
                    / np.sqrt(3.0)
                coeffs[c, 2, 0] = 1e-12
                continue
            if cell == "on_boundary":
                u, ds = 0.0, -4e-13 / rho
            w = to_conserved(
                PrimitiveState(rho, u, np.exp(REGION.s0 + ds) * rho**GAMMA),
                GAMMA)
            avg = np.array([w.rho, w.m, w.E])
            coeffs[c, :, 0] = avg
            if cell == "quiet":
                coeffs[c, :, 1:] = 0.01 * modes * np.abs(avg)[:, None]
            elif cell == "rho_dip":
                coeffs[c, 0, 1:] = 3.0 * modes[0] * avg[0]
            else:
                scale = {"p_dip": 3.0, "q_dip": 0.5, "on_boundary": 0.05}
                coeffs[c, 2, 1:] = scale[cell] * modes[2] * avg[2]
        return DGField(degree, coeffs), kind, types

    return fields()


def test_limit_field_matches_the_oracle_on_random_fields():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(limiter_fields(hypothesis.strategies))
    def check(drawn):
        fld, kind, types = drawn
        if kind == LIMITER_IRP and "overflow" in types:
            with pytest.raises(RegionViolationError) as got:
                limit_field(fld, REGION, kind)  # warns of nothing
            with pytest.raises(RegionViolationError) as expected, \
                    np.errstate(over="ignore"):
                oracle_limit_field(fld, REGION, kind)
            assert (str(got.value), got.value.cell) == \
                (str(expected.value), expected.value.cell)
            assert got.value.cell == types.index("overflow")
            return
        limit_field(fld, REGION, kind)  # warns of nothing
        # the oracle's theta products take inf * 0 where a first ratio is 0,
        # and its q overflows in an overflow cell
        with np.errstate(invalid="ignore", over="ignore"):
            rep = assert_limiter_matches(fld, REGION, kind)
        assert rep.fallback_count >= types.count("fallback")
        flat = [c for c, cell in enumerate(types) if cell == "flat"]
        assert (rep.theta[flat] == 0.0).all()
        edge = [c for c, cell in enumerate(types) if cell == "on_boundary"]
        assert ((rep.theta[edge] == 0.0) | ~rep.activated[edge]).all()
        overflow = [c for c, cell in enumerate(types) if cell == "overflow"]
        assert not rep.activated[overflow].any()

    check()


@pytest.mark.parametrize("degree", DEGREES)
def test_global_max_signal_speed_bit_exact(degree):
    fld = random_field(np.random.default_rng(degree), 200, degree, 0.01)
    assert global_max_signal_speed(fld, GAMMA) == \
        oracle_max_signal_speed(fld, GAMMA, default_rule(degree))


def count_wave_speeds(monkeypatch, config):
    """Run ``config``; (fresh wave-speed evaluations, speeds the limiter
    supplied to a step, steps).

    A step's speed is the one its incoming field's limit reported: the last
    report ``_diagnostics`` saw for the step before (or for the initial
    limit).  The last step's report feeds no step.
    """
    fresh, supplied = [], []

    def counted(*args):
        fresh.append(1)
        return global_max_signal_speed(*args)

    def recorded(*args):
        reports = args[-1]
        supplied.append(reports[-1].max_speed if reports else None)
        return diagnostics(*args)

    diagnostics = ti._diagnostics
    monkeypatch.setattr(ti, "global_max_signal_speed", counted)
    monkeypatch.setattr(ti, "_diagnostics", recorded)
    steps = run(config).result.diagnostics[-1].step
    used = supplied[:-1]
    return len(fresh), len(used) - used.count(None), steps


def test_rk3_evaluates_the_wave_speed_once_per_step(monkeypatch):
    fresh, supplied, steps = count_wave_speeds(
        monkeypatch, RunConfig(problem="lax", degree=2, n_cells=40,
                               t_final=0.05))
    # every positivity or irp limit reports its field's wave speed
    assert fresh + supplied == steps > 0 and fresh == 0


@pytest.mark.parametrize("config", (
    RunConfig(problem="shu_osher", degree=2, n_cells=64, t_final=0.05),
    RunConfig(problem="smooth_advection", degree=3, n_cells=16,
              integrator="ms3", limiter_placement="per_step", t_final=0.02),
), ids=("shu_osher_rk3", "advection_ms3"))
def test_identical_runs_give_identical_bits(config):
    digests = {hashlib.sha256(run(config).result.final.coeffs.tobytes())
               .hexdigest() for _ in range(2)}
    assert len(digests) == 1


# The operator's and the wave speed's contractions are einsums over the
# mode-major block (``dg_space._node_values``, the operator's volume term,
# ``_values_at``) in the order of the einsums they replaced; the tests below
# pin each to that einsum, over the layouts it saw: contiguous Vq, Dq and
# traces, and ``basis_values``' own.
# Their coefficients were C-order; the kernels must give the same bits on
# that layout and on the mode-major one a DGField stores.

KERNEL_DEGREES = tuple(range(7))
KERNEL_SIZES = (1, 2, 3, 2560)
LAYOUTS = ("c_order", "mode_major")


def in_layout(coeffs, layout):
    """A copy of ``coeffs`` stored C-contiguous or mode-major (as DGField)."""
    if layout == "c_order":
        return np.array(coeffs, order="C")
    return np.ascontiguousarray(coeffs.T).T


def same_bits(got, expected):
    """Equal shapes and bit patterns, so also the sign of every zero."""
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected)
    return got.shape == expected.shape and \
        np.array_equal(got.view(np.int64), expected.view(np.int64))


def spread_values(rng, shape):
    """Normal values with magnitudes spread over 1e-3 ... 1e3."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def assert_kernels_match_einsum(coeffs, F):
    """Node values and traces, volume term and wave-speed node values; the
    einsums take a C-order copy of ``coeffs``, the kernels ``coeffs``."""
    c = np.ascontiguousarray(coeffs)
    deg = coeffs.shape[2] - 1
    n = coeffs.shape[0]
    vol, even, odd, Dq_table, _, _ = _operator_tables(deg)
    nq = vol.nodes.size
    Vq = np.ascontiguousarray(basis_values(deg, vol.nodes))
    Dq = np.ascontiguousarray(basis_derivatives(deg, vol.nodes))

    vals = np.empty((3, nq + 2, n))
    _node_values(coeffs.T, even, odd, out=vals, tmp=np.empty_like(vals))
    assert same_bits(vals[:, :nq].transpose(0, 2, 1),
                     np.einsum("cvj,qj->vcq", c, Vq))
    assert same_bits(vals[:, nq],
                     np.einsum("cvj,j->vc", c, basis_values(deg, -0.5)))
    assert same_bits(vals[:, nq + 1],
                     np.einsum("cvj,j->vc", c, basis_values(deg, 0.5)))

    Fw = F * vol.weights  # (3, n, nq), as the flux was laid out
    # the operator's volume term, over its (3, nq, n) flux block
    volume = np.einsum("vqc,qj->jvc", np.ascontiguousarray(
        Fw.transpose(0, 2, 1)), Dq_table, out=np.empty((deg + 1, 3, n)))
    assert same_bits(volume.transpose(2, 1, 0),
                     np.einsum("vcq,qj->cvj", Fw, Dq))

    modes = np.ascontiguousarray(c.T)
    for rule in (default_rule(deg), gauss_lobatto_rule(4),
                 gauss_legendre_rule(deg + 1)):
        V = basis_values(deg, rule.nodes)
        assert same_bits(_values_at(modes, V).transpose(2, 0, 1),
                         np.einsum("cvj,nj->cvn", c, V))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n_cells", KERNEL_SIZES)
@pytest.mark.parametrize("degree", KERNEL_DEGREES)
def test_kernels_sum_in_einsums_order(degree, n_cells, layout):
    rng = np.random.default_rng(100 * degree + n_cells)
    coeffs = spread_values(rng, (n_cells, 3, degree + 1))
    F = spread_values(rng, (3, n_cells, degree + 1))
    assert_kernels_match_einsum(in_layout(coeffs, layout), F)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n_cells", KERNEL_SIZES)
@pytest.mark.parametrize("degree", KERNEL_DEGREES)
def test_limiter_node_values_sum_in_einsums_order(degree, n_cells, layout):
    # the limiter took its node values with einsum("cvj,nj->vcn") over its
    # test-set table, then in basis_values' layout, on the whole field and
    # on the rows of the cells in play
    rng = np.random.default_rng(1000 + 100 * degree + n_cells)
    coeffs = spread_values(rng, (n_cells, 3, degree + 1))
    stored = in_layout(coeffs, layout)
    table = _test_table(degree)
    V = basis_values(degree, default_rule(degree).nodes)
    rows = np.sort(rng.choice(n_cells, max(1, n_cells // 3), replace=False))
    for c, ref in ((stored, coeffs), (stored[rows], coeffs[rows]),
                   (stored[rows[-1:]], coeffs[rows[-1:]])):
        modes = np.ascontiguousarray(c.T)
        assert same_bits(_values_at(modes, table).transpose(0, 2, 1),
                         np.einsum("cvj,nj->vcn", ref, V))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("degree", KERNEL_DEGREES)
def test_kernels_sum_signed_zeros_as_einsum(degree, layout):
    # einsum's partial sums start from +0, so a sum of -0 terms is +0
    rng = np.random.default_rng(degree)
    coeffs = spread_values(rng, (12, 3, degree + 1))
    coeffs[[1, 4], 1] = -0.0
    coeffs[[2, 7], 0] = 0.0
    coeffs[5] = -0.0
    coeffs[8, :, ::2] = -0.0
    F = spread_values(rng, (3, 12, degree + 1))
    F[1, [0, 3]] = -0.0
    F[2, 6] = 0.0
    assert_kernels_match_einsum(in_layout(coeffs, layout), F)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("degree", KERNEL_DEGREES)
def test_evaluate_at_nodes_sums_as_einsum(degree, layout):
    # evaluate_at_nodes was this einsum over a fresh basis table; over a
    # one-node table einsum sums otherwise from degree 2 on
    rng = np.random.default_rng(2000 + degree)
    coeffs = spread_values(rng, (40, 3, degree + 1))
    coeffs[[3, 11], 1] = -0.0
    coeffs[[5, 20], 0] = 0.0
    coeffs[8] = -0.0
    coeffs[17, :, ::2] = -0.0
    fld = DGField(degree, coeffs)
    fld.coeffs = in_layout(coeffs, layout)  # past the mode-major default
    for nodes in (gauss_legendre_rule(degree + 1).nodes,
                  default_rule(degree).nodes, gauss_lobatto_rule(4).nodes,
                  np.linspace(-0.5, 0.5, 5)):
        assert same_bits(evaluate_at_nodes(fld, nodes),
                         np.einsum("cvj,nj->cvn", coeffs,
                                   basis_values(degree, nodes)))


@pytest.mark.parametrize("n_cells", (1, 2, 2560))
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("boundary", (PERIODIC, OUTFLOW, INFLOW_OUTFLOW))
def test_spatial_operator_bit_exact_at_edge_sizes(degree, boundary, n_cells):
    rng = np.random.default_rng(n_cells + 10 * degree + len(boundary))
    fld = random_field(rng, n_cells, degree, 0.2)
    ghost = to_conserved(PrimitiveState(3.857143, 2.629369, 10.3333), GAMMA) \
        if boundary == INFLOW_OUTFLOW else None
    mesh = Mesh1D(-1.0, 2.0, n_cells, boundary, ghost)
    got = spatial_operator(fld, mesh, GAMMA, 4.7)
    assert got.T.flags.c_contiguous
    assert same_bits(got, oracle_spatial_operator(fld, mesh, GAMMA, 4.7))


@pytest.mark.parametrize("n_cells", (1, 2, 64, 2560))
@pytest.mark.parametrize("degree", DEGREES)
def test_a_limited_call_reports_the_wave_speed_of_its_field(degree, n_cells):
    # a limit with cells in play takes its speed from its first node pass
    # over the whole field, patched at those cells with the last pass over
    # their gathered block: a few, most or all of the cells in play, and
    # density dips that take fallback rounds
    rng = np.random.default_rng(n_cells + 10 * degree)
    fields = [random_field(rng, n_cells, degree, spread)
              for spread in (0.05, 0.3, 4.0)]
    fields.append(density_dip_field(rng, n_cells, degree))
    for fld in fields:
        for kind in (LIMITER_POSITIVITY, LIMITER_IRP):
            out, rep = limit_field(fld, REGION, kind)
            assert rep.max_speed == global_max_signal_speed(out, GAMMA)


@pytest.mark.parametrize("field", ("random", "dip", "fallback"))
@pytest.mark.parametrize("kind", (LIMITER_POSITIVITY, LIMITER_IRP))
@pytest.mark.parametrize("degree", DEGREES)
def test_a_limit_without_its_speed_limits_alike(degree, kind, field):
    # a call asked for no wave speed returns the same field, theta, counts
    # and fallbacks, bit for bit, and no speed: on many cells in play, on a
    # few density dips in a quiet field, and on dips that take fallbacks
    rng = np.random.default_rng(degree)
    region = REGION
    if field == "random":
        fld = random_field(rng, 200, degree, 1.0)
    elif field == "dip":
        fld = random_field(rng, 200, degree, 0.01)
        fld.coeffs[[5, 90, 91], 0, 1] = 2.0 * fld.coeffs[[5, 90, 91], 0, 0]
    else:
        fld = density_dip_field(rng, 300, degree)
        region = InvariantRegion(GAMMA, s0=-10.0)
    out, rep = limit_field(fld, region, kind, speed=False)
    want, expected = limit_field(fld, region, kind)
    assert same_bits(out.coeffs, want.coeffs)
    assert same_bits(rep.theta, expected.theta)
    for name in ("n_rho_active", "n_p_active", "n_q_active",
                 "fallback_count", "quiet"):
        assert getattr(rep, name) == getattr(expected, name), name
    assert rep.n_activated > 0
    assert (rep.fallback_count > 0) == (field == "fallback")
    assert rep.max_speed is None and expected.max_speed is not None


@pytest.mark.parametrize("n_cells", (1, 2, 2560))
@pytest.mark.parametrize("degree", DEGREES)
def test_global_max_signal_speed_bit_exact_at_edge_sizes(degree, n_cells):
    fld = random_field(np.random.default_rng(degree + n_cells), n_cells,
                       degree, 0.01)
    assert global_max_signal_speed(fld, GAMMA) == \
        oracle_max_signal_speed(fld, GAMMA, default_rule(degree))


def test_global_max_signal_speed_names_the_first_failing_cell():
    fld = random_field(np.random.default_rng(9), 30, 2, 0.01)
    bad = fld.copy()
    bad.coeffs[[21, 6], 0, 0] = -1.0
    with pytest.raises(ValueError, match="nonpositive density at test node "
                                         "of cell 6$"):
        global_max_signal_speed(bad, GAMMA)
    bad = fld.copy()
    bad.coeffs[[25, 13], 2, 0] = 0.01
    with pytest.raises(ValueError, match="negative pressure at test node of "
                                         "cell 13$"):
        global_max_signal_speed(bad, GAMMA)


@pytest.mark.parametrize("boundary", (PERIODIC, OUTFLOW, INFLOW_OUTFLOW))
def test_spatial_operator_zero_density_errors_as_before(boundary):
    ghost = ConservedState(1.0, 0.5, 2.5) \
        if boundary == INFLOW_OUTFLOW else None
    mesh = Mesh1D(0.0, 1.0, 20, boundary, ghost)
    fld = random_field(np.random.default_rng(12), 20, 1, 0.01)
    fld.coeffs[[15, 9], 0, :] = 0.0
    with pytest.raises(ZeroDivisionError, match="volume node of cell 9;"):
        spatial_operator(fld, mesh, GAMMA, 3.0)
    # a degree-1 density that is exactly 0 at the right edge of cell 4 and
    # positive at its volume nodes: phi_1(1/2) - phi_1(1/2) * 1
    fld = random_field(np.random.default_rng(12), 20, 1, 0.01)
    fld.coeffs[4, 0] = [basis_values(1, 0.5)[1], -1.0]
    with pytest.raises(ZeroDivisionError, match="interface trace"):
        spatial_operator(fld, mesh, GAMMA, 3.0)
    if boundary == INFLOW_OUTFLOW:
        fld = random_field(np.random.default_rng(12), 20, 1, 0.01)
        with pytest.raises(ZeroDivisionError, match="interface trace"):
            spatial_operator(fld, Mesh1D(0.0, 1.0, 20, boundary,
                                         ConservedState(0.0, 0.5, 2.5)),
                             GAMMA, 3.0)


def operator_outcome(operator, fld, mesh):
    """The operator's result, or the type and message of what it raised."""
    try:
        return operator(fld, mesh, GAMMA, 4.7)
    except (ArithmeticError, RuntimeWarning) as err:
        return type(err), str(err)


@pytest.mark.parametrize("degree", KERNEL_DEGREES)
@pytest.mark.parametrize("boundary", (PERIODIC, OUTFLOW, INFLOW_OUTFLOW))
def test_spatial_operator_on_nonfinite_modes_as_the_oracle(degree, boundary):
    # value for value, nan where the oracle has nan (its sign bit is not
    # pinned); with warnings as errors, the operator raises where the oracle
    # does, and also where its even and odd lanes add to inf - inf, which
    # einsum's own sum does without a warning
    rng = np.random.default_rng(3000 + 10 * degree + len(boundary))
    ghost = to_conserved(PrimitiveState(3.857143, 2.629369, 10.3333), GAMMA) \
        if boundary == INFLOW_OUTFLOW else None
    mesh = Mesh1D(-1.0, 2.0, 6, boundary, ghost)
    raised = 0
    for _ in range(40):
        fld = random_field(rng, 6, degree, 0.2)
        k = rng.integers(1, 4)
        fld.coeffs[rng.integers(0, 6, k), rng.integers(0, 3, k),
                   rng.integers(0, degree + 1, k)] = \
            rng.choice((np.inf, -np.inf, np.nan), k)
        with np.errstate(all="ignore"):
            got = spatial_operator(fld, mesh, GAMMA, 4.7)
            expected = oracle_spatial_operator(fld, mesh, GAMMA, 4.7)
        assert not np.isfinite(got).all()
        assert np.array_equal(got, expected, equal_nan=True)
        got = operator_outcome(spatial_operator, fld, mesh)
        expected = operator_outcome(oracle_spatial_operator, fld, mesh)
        if isinstance(expected, tuple):
            assert isinstance(got, tuple) and got[0] is expected[0]
        elif isinstance(got, tuple):
            assert got == (RuntimeWarning, "invalid value encountered in add")
        else:
            assert np.array_equal(got, expected, equal_nan=True)
        raised += isinstance(got, tuple)
    assert 0 < raised < 40


def test_ms3_evaluates_the_wave_speed_once_per_step(monkeypatch):
    # the speed that freezes dt is also the first step's alpha; on this
    # smooth field the limiter never has a cell in play and supplies all
    fresh, supplied, steps = count_wave_speeds(
        monkeypatch, RunConfig(problem="smooth_advection", degree=3,
                               n_cells=16, integrator="ms3",
                               limiter_placement="per_step", t_final=0.02))
    assert fresh + supplied == steps > 3 and fresh == 0


@pytest.mark.parametrize("config", (
    RunConfig(problem="smooth_advection", degree=3, n_cells=16,
              t_final=0.02),
    RunConfig(problem="smooth_advection", degree=3, n_cells=16,
              integrator="ms3", limiter_placement="per_step", t_final=0.02),
    RunConfig(problem="lax", degree=2, n_cells=40, t_final=0.02),
), ids=("rk3_per_stage", "advection_ms3", "lax_rk3_limited"))
def test_a_quiet_run_computes_one_wave_speed_per_step(monkeypatch, config):
    # the advection runs limit no cell, so every report is quiet; every
    # stage limit of the Lax run has cells in play.  Only the limit that
    # ends a step computes a speed, the one the next step reads: one speed
    # for the initial limit and one per step
    original = dg_space._max_speed
    speeds, fresh, quiet = [], [], []

    def limit(*args):
        limited, rep = limit_field(*args)
        quiet.append(rep.quiet)
        return limited, rep

    def counted(*args):
        speeds.append(1)
        return original(*args)

    for info in pkgutil.iter_modules(irpdg.__path__):
        module = importlib.import_module(f"irpdg.{info.name}")
        if getattr(module, "_max_speed", None) is original:
            monkeypatch.setattr(module, "_max_speed", counted)
    monkeypatch.setattr(ti, "global_max_signal_speed",
                        lambda *args: fresh.append(1))
    monkeypatch.setattr(ti, "limit_field", limit)
    steps = run(config).result.diagnostics[-1].step
    assert steps > 3 and len(speeds) == steps + 1 and not fresh
    # the Lax run's initial limit, of the L2 projection, is quiet
    assert quiet[1:] == [config.problem != "lax"] * (len(quiet) - 1)


# SHA-256 of ``final.coeffs`` as the einsum-based operator left them (numpy
# 2.4.6, x86-64).  The operator's sums follow einsum's order on that numpy,
# so a different numpy may move these bits.
FINAL_FIELD_SHA256 = {
    "shu_osher_rk3": (
        RunConfig(problem="shu_osher", degree=2, n_cells=64, t_final=0.05),
        "795960519a8edd19c8973bfb296801e578e59a2fd72649b2c48ef34fd6f9d5ae"),
    "advection_ms3": (
        RunConfig(problem="smooth_advection", degree=3, n_cells=16,
                  integrator="ms3", limiter_placement="per_step",
                  t_final=0.02),
        "ec3dca92189d30e2a629be0d94193ceaff4122bf1ae47b9da849193691b2f4b1"),
    "lax_rk3": (
        RunConfig(problem="lax", degree=2, n_cells=40, t_final=0.05),
        "6d41a83935f13b0de5da8ad54db3b43bfd9de049d9ac23886e8b62e9b5f29dfd"),
    "advection_rk3_none": (
        RunConfig(problem="smooth_advection", degree=2, n_cells=16,
                  t_final=0.02, limiter="none"),
        "ca52e4c555a73c0adb355ae27d28ee0b1815bd63d00e3f1cbe7d9c84b5ec729e"),
}


@pytest.mark.parametrize("name", sorted(FINAL_FIELD_SHA256))
def test_final_fields_keep_their_bits(name):
    config, digest = FINAL_FIELD_SHA256[name]
    coeffs = run(config).result.final.coeffs
    assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest


# The pinned runs (one of them RK3 without a limiter), a positivity run and
# an MS3 run without a limiter.  On the 64-cell Shu-Osher run every limit
# has a cell in play, so its speeds come from the limited cells' last node
# pass; the none kind never reports a speed.
SPEED_RUNS = {
    **{name: config for name, (config, _) in FINAL_FIELD_SHA256.items()},
    "lax_positivity": RunConfig(problem="lax", degree=2, n_cells=40,
                                t_final=0.05, limiter="positivity"),
    "advection_ms3_none": RunConfig(problem="smooth_advection", degree=2,
                                    n_cells=16, integrator="ms3",
                                    t_final=0.02, limiter="none"),
}
NO_SPEED_REPORTED = ("advection_ms3_none", "advection_rk3_none")


@pytest.mark.parametrize("name", sorted(SPEED_RUNS))
def test_limiter_supplied_speeds_equal_the_wave_speed(monkeypatch, name):
    # every speed a report carries, and every step's alpha, equals the
    # wave speed of its field evaluated afresh
    speeds, alphas, step_starts = [], [], []

    def checked_limit(fld, region, kind, speed=True):
        limited, rep = limit_field(fld, region, kind, speed)
        assert (rep.max_speed is None) == (not speed or kind == "none")
        if rep.max_speed is not None:
            speeds.append(rep.max_speed)
            assert rep.max_speed == global_max_signal_speed(limited,
                                                            region.gamma)
        return limited, rep

    def marked_diagnostics(*args):
        step_starts.append(True)
        return diagnostics(*args)

    def checked_operator(fld, mesh, gamma, alpha):
        if step_starts:  # the step's first operator call is on its field
            step_starts.clear()
            alphas.append(alpha)
            assert alpha == global_max_signal_speed(fld, gamma)
        return spatial_operator(fld, mesh, gamma, alpha)

    diagnostics = ti._diagnostics
    monkeypatch.setattr(ti, "limit_field", checked_limit)
    monkeypatch.setattr(ti, "_diagnostics", marked_diagnostics)
    monkeypatch.setattr(ti, "spatial_operator", checked_operator)
    out = run(SPEED_RUNS[name])
    assert (len(speeds) > 0) == (name not in NO_SPEED_REPORTED)
    assert len(alphas) == out.result.diagnostics[-1].step > 0


@pytest.mark.parametrize("name", NO_SPEED_REPORTED)
def test_a_none_kind_run_evaluates_the_wave_speed_once_per_step(monkeypatch,
                                                                 name):
    # the none kind reports no speed, so every step's, RK3's and MS3's
    # alike, comes from the one evaluation at the head of evolve's loop
    fresh, supplied, steps = count_wave_speeds(monkeypatch, SPEED_RUNS[name])
    assert fresh == steps > 3 and supplied == 0


# ``evolve`` builds its step records a block of steps at a time.  The
# oracles below build one record per step, as the loop once did.

def oracle_entropy_of_averages(fld, region):
    avg = fld.averages()
    rho, m, E = avg[:, 0], avg[:, 1], avg[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = gas_pressure(rho, m, E, region.gamma)
    ok = (rho > 0.0) & (p > 0.0)
    if ok.all():
        return float(gas_entropy(rho, p, region.gamma).min())
    if not ok.any():
        return float("nan")
    return float(np.min(gas_entropy(rho[ok], p[ok], region.gamma)))


def oracle_diagnostics(step, t, dt, fld, mesh, region, reports):
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
    return ti.StepDiagnostics(
        step=step, t=t, dt=dt, min_theta=min_theta, n_activated=n_act,
        n_rho_active=n_rho, n_p_active=n_p, n_q_active=n_q, n_fallback=n_fb,
        total_rho=float(totals[0]), total_m=float(totals[1]),
        total_E=float(totals[2]),
        min_avg_entropy=oracle_entropy_of_averages(fld, region))


def records_and_oracle(monkeypatch, config):
    """Run ``config``; (its step records, the oracle's records of the field
    and the reports that the ``_diagnostics`` hook saw at each step)."""
    seen = []

    def recorded(*args):
        step, t, dt, fld = args[:4]
        seen.append((step, t, dt, fld.copy(), args[-1]))
        return diagnostics(*args)

    diagnostics = ti._diagnostics
    monkeypatch.setattr(ti, "_diagnostics", recorded)
    out = run(config)
    return out.result.diagnostics, [
        oracle_diagnostics(step, t, dt, fld, out.mesh, out.region, reports)
        for step, t, dt, fld, reports in seen]


def assert_same_records(got, expected):
    # repr shows every field, exact for floats, equal for nan, and names a
    # numpy scalar where a Python number was expected
    assert len(got) == len(expected) > 0
    for g, e in zip(got, expected):
        assert repr(g) == repr(e)


# The speed runs (the pinned ones, a positivity run, none runs and MS3
# runs), each shorter than one block, and a size whose block is one row.
RECORD_RUNS = {
    **SPEED_RUNS,
    "lax_2731_cells": RunConfig(problem="lax", degree=1, n_cells=2731,
                                t_final=0.0005),
}


@pytest.mark.parametrize("name", sorted(RECORD_RUNS))
def test_step_records_equal_the_per_step_oracle(monkeypatch, name):
    config = RECORD_RUNS[name]
    got, expected = records_and_oracle(monkeypatch, config)
    assert_same_records(got, expected)
    rows = ti._record_block_rows(config.n_cells)
    assert rows == 1 if name == "lax_2731_cells" else len(got) < rows


@pytest.mark.parametrize("rows", (40, 31, 30, 4),
                         ids=("short", "one_block", "block_plus_one",
                              "blocks_plus_part"))
def test_step_records_across_block_boundaries(monkeypatch, rows):
    # the pinned Lax run leaves 31 records; a smaller block makes evolve
    # flush full blocks inside the loop and the part left after it
    config = FINAL_FIELD_SHA256["lax_rk3"][0]
    monkeypatch.setattr(ti, "_RECORD_BLOCK_BYTES", 24 * config.n_cells * rows)
    got, expected = records_and_oracle(monkeypatch, config)
    assert len(got) == 31
    assert_same_records(got, expected)


def test_step_records_take_the_entropy_minimum_over_the_positive_cone(
        monkeypatch):
    # rows with every average, some or none in the positive cone, with
    # +-0, nan and inf entries, and rows whose momentum averages are all
    # -0 (their total is +0, as a sum from +0 gives); blocks of four rows
    n = 6
    monkeypatch.setattr(ti, "_RECORD_BLOCK_BYTES", 24 * n * 4)
    mesh = Mesh1D(0.0, 1.5, n)
    block = ti._RecordBlock(n, mesh.h, GAMMA)
    rng = np.random.default_rng(17)
    expected = []
    for step in range(11):
        fld = random_field(rng, n, 1, 0.1)
        if step % 3 == 1:
            cells = rng.choice(n, 3, replace=False)
            fld.coeffs[cells, rng.choice((0, 2), 3), 0] = \
                rng.choice((-1.0, 0.0, -0.0, np.nan, np.inf), 3)
        elif step % 3 == 2:
            fld.coeffs[:, 0, 0] = rng.choice((-1.0, 0.0, -0.0, np.nan), n)
        elif step in (3, 9):
            fld.coeffs[:, 1, 0] = -0.0
        ti._diagnostics(step, 0.1 * step, 0.1, fld, block, [])
        with np.errstate(all="ignore"):
            expected.append(oracle_diagnostics(step, 0.1 * step, 0.1, fld,
                                               mesh, REGION, []))
    block.flush()
    assert_same_records(block.records, expected)
    entropies = [d.min_avg_entropy for d in block.records]
    assert np.isnan(entropies[2::3]).all()
    assert np.isfinite(entropies[0::3]).all()


# The ideal-gas closure is written once, in ``euler_core``.  The tests below
# pin it to the formulas it replaced, over the inputs where floating point
# is least forgiving: nan, +-inf, +-0, 1e300, subnormals, negative density
# and pressure, and |m| in (1.3e154, 1.9e154), where 0.5*(m*m) overflows
# while (0.5*m)*m does not.  The kernel takes (0.5*m)*m.

CLOSURE_VALUES = np.array([
    np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 5e-324, -2.5e-310,
    1.0, -2.5, 0.3, 1e-13,
    1.35e154, -1.5e154, 1.89e154,  # m*m overflows, (0.5*m)*m does not
    6.732655185893089e-161, 2.5e-162,  # m*m is subnormal: the orders differ
])


def closure_inputs():
    """Every (rho, m, E) triple of CLOSURE_VALUES, plus random states."""
    grid = np.meshgrid(CLOSURE_VALUES, CLOSURE_VALUES, CLOSURE_VALUES,
                       indexing="ij")
    rng = np.random.default_rng(21)
    rand = (rng.uniform(-0.5, 3.0, 2000), spread_values(rng, 2000),
            spread_values(rng, 2000))
    return tuple(np.concatenate([g.ravel(), r]) for g, r in zip(grid, rand))


def oracle_pressure(rho, m, E, gamma):
    return (gamma - 1.0) * (E - 0.5 * m * m / rho)


def oracle_q(rho, p, region):
    return (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho


def oracle_region_mask(w, region, strict):
    """``_region_mask``'s arithmetic as it was: q only where rho, p pass."""
    rho, m, E = (np.atleast_1d(np.asarray(v, dtype=float)) for v in w)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    if strict:
        ok = (rho > region.eps) & (p > region.eps)
    else:
        ok = (rho >= region.eps) & (p >= region.eps)
    idx = np.nonzero(ok)
    if idx[0].size:
        s = np.log(p[idx]) - region.gamma * np.log(rho[idx])
        q = (region.s0 - s) * rho[idx]
        ok[idx] &= (q < 0.0) if strict else (q <= 0.0)
    return bool(ok[0]) if np.ndim(w.rho) == 0 else ok.reshape(np.shape(w.rho))


@pytest.mark.parametrize("gamma", (GAMMA, 5.0 / 3.0, 1.0 + 1e-9))
def test_closure_keeps_the_bits_of_the_formulas_it_replaced(gamma):
    rho, m, E = closure_inputs()
    region = InvariantRegion(gamma, s0=-0.7)
    with np.errstate(all="ignore"):
        expected_p = oracle_pressure(rho, m, E, gamma)
        p, s, q = gas_state(rho, m, E, region)
        assert same_bits(p, expected_p)
        assert same_bits(gas_pressure(rho, m, E, gamma), expected_p)
        assert same_bits(s, np.log(expected_p) - gamma * np.log(rho))
        assert same_bits(gas_entropy(rho, expected_p, gamma), s)
        assert same_bits(q, oracle_q(rho, expected_p, region))
        # scalars give 0-d results with the same bits
        for i in range(0, rho.size, 97):
            got = gas_state(rho[i], m[i], E[i], region)
            assert all(np.ndim(v) == 0 for v in got)
            assert same_bits(np.array(got), np.array([p[i], s[i], q[i]]))


def test_closure_takes_half_the_momentum_before_squaring():
    # 0.5*(m*m), the order of the former ``m**2`` sites (``pressure``,
    # ``limit_field``'s average pressure, ``dg_space._euler_flux``), differs
    # from (0.5*m)*m in the overflow band and where m*m is subnormal
    m = np.array([1.35e154, -1.5e154, 1.89e154, 6.732655185893089e-161,
                  2.5e-162])
    rho, E = np.ones(m.size), np.full(m.size, 1.7e308)
    p = gas_pressure(rho, m, E, GAMMA)
    assert same_bits(p, (GAMMA - 1.0) * (E - (0.5 * m) * m / rho))
    with np.errstate(over="ignore"):
        other = (GAMMA - 1.0) * (E - 0.5 * (m * m) / rho)
    assert np.isfinite(p[:3]).all() and np.isneginf(other[:3]).all()
    # gamma = 2 makes the factor gamma - 1 exact, so p = -m^2/2 shows the
    # subnormal rounding
    half_square = -gas_pressure(rho[3:], m[3:], 0.0, 2.0)
    assert same_bits(half_square, (0.5 * m[3:]) * m[3:])
    assert (half_square != 0.5 * (m[3:] * m[3:])).all()


@pytest.mark.parametrize("s0", (-1.0, 0.0, 2.0))
def test_region_membership_keeps_its_bits(s0):
    rho, m, E = closure_inputs()
    region = InvariantRegion(GAMMA, s0=s0)
    w = ConservedState(rho, m, E)
    for strict, member in ((False, in_region), (True, in_region_interior)):
        with np.errstate(all="ignore"):
            got = member(w, region)
            expected = oracle_region_mask(w, region, strict)
        assert got.dtype == bool and np.array_equal(got, expected)
        assert got.any() and not got.all()
        square = ConservedState(*(v[:4900].reshape(70, 70) for v in w))
        with np.errstate(all="ignore"):
            assert np.array_equal(member(square, region),
                                  oracle_region_mask(square, region, strict))
            for i in range(0, rho.size, 131):
                one = ConservedState(rho[i], m[i], E[i])
                assert member(one, region) is \
                    oracle_region_mask(one, region, strict)
