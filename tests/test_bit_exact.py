"""Bit-exactness of the step's hot path against oracles of the plain formulas.

The oracles below spell out the operator, the limiter and the wave speed as
three-operand einsums over freshly built basis tables, row reductions with
``.min/.max/.all(axis=1)`` and a scalar interior check per active cell.  The
library computes the same arithmetic faster; every result must be equal bit
for bit (``np.array_equal`` on arrays, ``==`` on floats).
"""

import hashlib

import numpy as np
import pytest

import irpdg.irp_limiter as irp_limiter
import irpdg.time_integration as ti
from irpdg.dg_space import INFLOW_OUTFLOW, OUTFLOW, PERIODIC, DGField, \
    Mesh1D, basis_derivatives, basis_values, gauss_legendre_rule, \
    gauss_lobatto_rule, global_max_signal_speed, lax_friedrichs_flux, \
    spatial_operator
from irpdg.euler_core import ConservedState, InvariantRegion, \
    PrimitiveState, physical_flux, sound_speed, to_conserved
from irpdg.harness import RunConfig, run
from irpdg.irp_limiter import LIMITER_IRP, LIMITER_KINDS, \
    LIMITER_POSITIVITY, Q_SLACK, RegionViolationError, _check_interior, \
    default_rule, limit_field

GAMMA = 1.4
REGION = InvariantRegion(GAMMA, s0=-1.0)
DEGREES = (1, 2, 3)
REPORT_ARRAYS = ("theta", "theta1", "theta2", "theta3", "rho_min", "p_min",
                 "q_max", "activated")


def oracle_spatial_operator(fld, mesh, gamma, alpha, inflow_left=None):
    deg = fld.degree
    vol = gauss_legendre_rule(deg + 1)
    Vq = np.ascontiguousarray(basis_values(deg, vol.nodes))
    Dq = np.ascontiguousarray(basis_derivatives(deg, vol.nodes))
    phi_left = basis_values(deg, -0.5)
    phi_right = basis_values(deg, 0.5)
    vals = np.einsum("cvj,qj->vcq", fld.coeffs, Vq)
    F = physical_flux(ConservedState(*vals), gamma)
    volume = np.einsum("vcq,q,qj->cvj", F, vol.weights, Dq)
    trace_l = np.einsum("cvj,j->vc", fld.coeffs, phi_left)
    trace_r = np.einsum("cvj,j->vc", fld.coeffs, phi_right)
    if mesh.boundary == PERIODIC:
        wL = np.concatenate([trace_r[:, -1:], trace_r], axis=1)
        wR = np.concatenate([trace_l, trace_l[:, :1]], axis=1)
    elif mesh.boundary == INFLOW_OUTFLOW:
        ghost = np.asarray(inflow_left, dtype=float).reshape(3, 1)
        wL = np.concatenate([ghost, trace_r], axis=1)
        wR = np.concatenate([trace_l, trace_r[:, -1:]], axis=1)
    else:
        wL = np.concatenate([trace_l[:, :1], trace_r], axis=1)
        wR = np.concatenate([trace_l, trace_r[:, -1:]], axis=1)
    fluxes = lax_friedrichs_flux(ConservedState(*wL), ConservedState(*wR),
                                 alpha, gamma)
    resid = volume - np.einsum("vc,j->cvj", fluxes[:, 1:], phi_right)
    resid += np.einsum("vc,j->cvj", fluxes[:, :-1], phi_left)
    return resid / mesh.h


def oracle_max_signal_speed(fld, gamma, rule):
    V = basis_values(fld.degree, np.atleast_1d(rule.nodes))
    vals = np.einsum("cvj,nj->cvn", fld.coeffs, V)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    p = (gamma - 1.0) * (E - 0.5 * m * m / rho)
    return float(np.max(np.abs(m / rho) + sound_speed(rho, p, gamma)))


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


def oracle_limit_field(fld, region, kind):
    """The limiter's rounds and fallback, written with row reductions."""
    n = fld.n_cells
    V = basis_values(fld.degree, default_rule(fld.degree).nodes)
    rho_n, p_n = _oracle_nodes(fld.coeffs, region, V)
    p_n = np.where(np.isfinite(p_n), p_n, -np.inf)
    q_n = _oracle_q(rho_n, p_n, region, np.inf)
    rep = {"theta": np.ones(n), "theta1": np.full(n, np.inf),
           "theta2": np.full(n, np.inf), "theta3": np.full(n, np.inf),
           "rho_min": rho_n.min(axis=1), "p_min": p_n.min(axis=1),
           "q_max": q_n.max(axis=1), "activated": np.zeros(n, dtype=bool),
           "fallback_count": 0}
    coeffs = fld.coeffs.copy()
    if kind == "none":
        return coeffs, rep
    use_q = kind == LIMITER_IRP
    rho_avg, m_avg, E_avg = coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_avg = (region.gamma - 1.0) * (E_avg - 0.5 * m_avg**2 / rho_avg)
    checked = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)

    def ratio(num, den):
        return np.where(den < 1e-14, 0.0, num / np.maximum(den, 1e-14))

    for round_idx in range(3):
        if round_idx == 0:
            rho_min = rho_n.min(axis=1)
            p_min = np.where(rho_n > 0.0, p_n, np.inf).min(axis=1)
            q_max = np.where(np.isfinite(q_n), q_n, -np.inf).max(axis=1)
        else:
            rho, p = _oracle_nodes(coeffs, region, V)
            rho_min = rho.min(axis=1)
            p_min = np.where(rho > 0.0, p, np.inf).min(axis=1)
            q_max = _oracle_q(rho, p, region, -np.inf).max(axis=1)
        a1 = rho_min < region.eps
        a2 = p_min < region.eps
        a3 = (q_max > Q_SLACK) if use_q else np.zeros(n, dtype=bool)
        active = a1 | a2 | a3
        if not active.any():
            break
        for c in np.flatnonzero(active & ~checked):
            _check_interior(ConservedState(rho_avg[c], m_avg[c], E_avg[c]),
                            region, use_q, int(c))
            checked[c] = True
        t1, t2, t3 = (np.full(n, np.inf) for _ in range(3))
        t1[a1] = ratio(rho_avg[a1] - region.eps, rho_avg[a1] - rho_min[a1])
        t2[a2] = ratio(p_avg[a2] - region.eps, p_avg[a2] - p_min[a2])
        if a3.any():
            q_avg = (region.s0 - (np.log(p_avg[a3])
                                  - region.gamma * np.log(rho_avg[a3]))) \
                * rho_avg[a3]
            t3[a3] = ratio(-q_avg, q_max[a3] - q_avg)
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
    mesh = Mesh1D(0.0, 1.0, fld.n_cells)
    out, rep = limit_field(fld, mesh, region, kind)
    coeffs, expected = oracle_limit_field(fld, region, kind)
    assert np.array_equal(out.coeffs, coeffs)
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(rep, name), expected[name]), name
    assert rep.fallback_count == expected["fallback_count"]
    return rep


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("boundary", (PERIODIC, OUTFLOW, INFLOW_OUTFLOW))
def test_spatial_operator_bit_exact(degree, boundary):
    rng = np.random.default_rng(10 * degree + len(boundary))
    fld = random_field(rng, 64, degree, 0.2)
    mesh = Mesh1D(-1.0, 2.0, fld.n_cells, boundary)
    ghost = to_conserved(PrimitiveState(3.857143, 2.629369, 10.3333), GAMMA) \
        if boundary == INFLOW_OUTFLOW else None
    got = spatial_operator(fld, mesh, GAMMA, 4.7, ghost)
    assert np.array_equal(got, oracle_spatial_operator(fld, mesh, GAMMA, 4.7,
                                                       ghost))


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
        limit_field(fld, Mesh1D(0.0, 1.0, 40), REGION)
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

    def counted(coeffs, *args):
        calls.append(coeffs.shape[0])
        return original(coeffs, *args)

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
    assert np.isfinite([rep.theta1[17], rep.theta2[17], rep.theta3[17]]).all()


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
    assert limit_field(quiet, Mesh1D(0.0, 1.0, 40), REGION)[1].n_activated == 0
    assert calls == [40]

    # entropy dips at one node of cells 7 and 23; every node stays in the
    # positive cone, so one round limits them and the next pass clears them
    fld = quiet.copy()
    fld.coeffs[[7, 23]] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.5, 1.3, 0.0]]
    calls.clear()
    _, rep = limit_field(fld, Mesh1D(0.0, 1.0, 40), REGION)
    assert np.flatnonzero(rep.activated).tolist() == [7, 23]
    assert np.isfinite(rep.theta3[[7, 23]]).all() and rep.fallback_count == 0
    assert calls == [40, 2]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_limit_field_raises_on_an_entropy_overflow_in_round_1_as_before():
    # at a density of 1e306, q = (s0 - s) * rho overflows to +inf; round 0
    # skips non-finite q, round 1 does not, and the average fails there
    fld = random_field(np.random.default_rng(8), 40, 2, 1.0)
    fld.coeffs[20] = 0.0
    fld.coeffs[20, 0, 0], fld.coeffs[20, 2, 0] = 1e306, 2.5
    with pytest.raises(RegionViolationError) as got:
        limit_field(fld, Mesh1D(0.0, 1.0, 40), REGION)
    with pytest.raises(RegionViolationError) as expected:
        oracle_limit_field(fld, REGION, LIMITER_IRP)
    assert (str(got.value), got.value.cell) == \
        (str(expected.value), expected.value.cell)
    assert got.value.cell == 20


@pytest.mark.parametrize("degree", DEGREES)
def test_global_max_signal_speed_bit_exact(degree):
    fld = random_field(np.random.default_rng(degree), 200, degree, 0.01)
    for rule in (default_rule(degree), gauss_lobatto_rule(4),
                 gauss_legendre_rule(degree + 1)):
        assert global_max_signal_speed(fld, GAMMA, rule) == \
            oracle_max_signal_speed(fld, GAMMA, rule)


def test_rk3_evaluates_the_wave_speed_once_per_step(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return global_max_signal_speed(*args)

    monkeypatch.setattr(ti, "global_max_signal_speed", counted)
    out = run(RunConfig(problem="lax", degree=2, n_cells=40, t_final=0.05))
    assert len(calls) == out.result.diagnostics[-1].step > 0


@pytest.mark.parametrize("config", (
    RunConfig(problem="shu_osher", degree=2, n_cells=64, t_final=0.05),
    RunConfig(problem="smooth_advection", degree=3, n_cells=16,
              integrator="ms3", limiter_placement="per_step", t_final=0.02),
), ids=("shu_osher_rk3", "advection_ms3"))
def test_identical_runs_give_identical_bits(config):
    digests = {hashlib.sha256(run(config).result.final.coeffs.tobytes())
               .hexdigest() for _ in range(2)}
    assert len(digests) == 1
