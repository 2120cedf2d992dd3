"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The expensive artifacts
(convergence tables, shock-tube runs, the fine-grid Shu-Osher reference) are
session-scoped fixtures.  Regression thresholds marked FROZEN were fixed
from the first validated runs of this code base.
"""

import math

import numpy as np
import pytest

from irpdg.dg_space import basis_values, default_rule
from irpdg.euler_core import ConservedState, InvariantRegion, PrimitiveState, \
    in_region, in_region_interior, to_conserved
from irpdg.harness import (
    RunConfig,
    convergence_study,
    density_reference,
    error_norms,
    fine_grid_reference,
    run,
    shock_position,
    shu_osher_reference_config,
    total_variation_of_density,
)
from irpdg.irp_limiter import Q_SLACK, limit_field
from irpdg.riemann_exact import RiemannProblem, solve_star

GAMMA = 1.4

# FROZEN regression thresholds (first validated runs; see notes below each).
LAX_L1_THRESHOLD = 0.04          # measured 0.0274
SHU_OSHER_L1_THRESHOLD = 0.7     # measured 0.449 (under-resolved wave band)
PAPER_P2_L1_AT_128 = 1.75e-7     # published table value, factor-3 window
ORDER_WINDOW = (2.75, 3.25)


def _passline(n, msg):
    print(f"[criterion {n}] PASS: {msg}", flush=True)


@pytest.fixture(scope="session")
def p2_rk3_rows():
    cfg = RunConfig(problem="smooth_advection", degree=2, integrator="rk3",
                    t_final=1.0)
    return convergence_study(cfg, [32, 64, 128])


@pytest.fixture(scope="session")
def p3_rk3_rows():
    cfg = RunConfig(problem="smooth_advection", degree=3, integrator="rk3",
                    t_final=1.0, limiter_placement="per_step")
    return convergence_study(cfg, [16, 32, 64, 128])


@pytest.fixture(scope="session")
def p2_ms3_rows():
    cfg = RunConfig(problem="smooth_advection", degree=2, integrator="ms3",
                    t_final=1.0)
    return convergence_study(cfg, [32, 64, 128])


@pytest.fixture(scope="session")
def p3_ms3_rows():
    cfg = RunConfig(problem="smooth_advection", degree=3, integrator="ms3",
                    t_final=1.0, limiter_placement="per_step")
    return convergence_study(cfg, [16, 32, 64, 128])


@pytest.fixture(scope="session")
def lax_runs():
    irp = run(RunConfig(problem="lax", degree=2, n_cells=100, limiter="irp"))
    pos = run(RunConfig(problem="lax", degree=2, n_cells=100,
                        limiter="positivity"))
    return irp, pos


@pytest.fixture(scope="session")
def shu_osher_runs():
    coarse_cfg = RunConfig(problem="shu_osher", degree=2, n_cells=100,
                           limiter="irp")
    coarse = run(coarse_cfg)
    fine = run(shu_osher_reference_config(coarse_cfg))
    return coarse, fine


def test_criterion_1_p2_rk3_convergence(p2_rk3_rows):
    rows = p2_rk3_rows
    assert all(not r.note for r in rows), [r.note for r in rows]
    orders = [r.order_l1 for r in rows[1:]]
    for o in orders:
        assert ORDER_WINDOW[0] <= o <= ORDER_WINDOW[1], orders
    l1_128 = rows[-1].error_l1
    assert PAPER_P2_L1_AT_128 / 3 <= l1_128 <= PAPER_P2_L1_AT_128 * 3
    _passline(1, f"P2 RK3 L1 orders {['%.2f' % o for o in orders]}, "
                 f"L1(128)={l1_128:.3e} vs published {PAPER_P2_L1_AT_128:.2e}")


def test_criterion_2_p3_rk3_convergence(p3_rk3_rows):
    rows = p3_rk3_rows
    assert all(not r.note for r in rows)
    orders = [r.order_l1 for r in rows[1:]]  # rows 32, 64, 128
    avg = sum(orders) / len(orders)
    assert avg >= 3.5, orders
    _passline(2, f"P3 RK3 average L1 order {avg:.2f} "
                 f"({['%.2f' % o for o in orders]})")


def test_criterion_3_multistep_convergence(p2_ms3_rows, p3_ms3_rows):
    p2_orders = [r.order_l1 for r in p2_ms3_rows[1:]]
    for o in p2_orders:
        assert ORDER_WINDOW[0] <= o <= ORDER_WINDOW[1], p2_orders
    l1_128 = p2_ms3_rows[-1].error_l1
    assert PAPER_P2_L1_AT_128 / 3 <= l1_128 <= PAPER_P2_L1_AT_128 * 3
    p3_orders = [r.order_l1 for r in p3_ms3_rows[1:]]
    avg3 = sum(p3_orders) / len(p3_orders)
    assert avg3 >= 3.5, p3_orders
    _passline(3, f"MS3: P2 orders {['%.2f' % o for o in p2_orders]}, "
                 f"L1(128)={l1_128:.3e}; P3 average order {avg3:.2f}")


def _limiter_battery(rng, n_random):
    """Random interior-average cells plus adversarial overshoot families."""
    region = InvariantRegion(GAMMA, s0=-1.0)
    degree = 2
    cells = []
    rho = rng.uniform(0.3, 3.0, n_random)
    u = rng.uniform(-1.5, 1.5, n_random)
    s = region.s0 + rng.uniform(0.05, 2.0, n_random)
    w = to_conserved(PrimitiveState(rho, u, np.exp(s) * rho**GAMMA), GAMMA)
    coeffs = np.zeros((n_random, 3, degree + 1))
    coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
    coeffs[:, :, 1:] = rng.standard_normal((n_random, 3, degree)) \
        * rng.uniform(0.0, 2.0, (n_random, 1, 1))
    cells.append(coeffs)

    # adversarial: density undershoot below eps at a node
    adv = np.zeros((4, 3, degree + 1))
    adv[:, 0, 0], adv[:, 1, 0], adv[:, 2, 0] = 1.0, 0.0, 2.5
    adv[0, 0, 1] = 2.0  # rho deeply negative at a node
    # pressure undershoot: E mode pushes p below 0 at a node
    adv[1, 2, 1] = 3.0
    # entropy overshoot, positive rho and p everywhere
    adv[2, 0, 1] = 0.2
    adv[2, 2, 1] = -0.35
    # joint violation
    adv[3, 0, 1] = -1.5
    adv[3, 2, 2] = 2.0
    cells.append(adv)
    return region, np.concatenate(cells, axis=0)


def test_criterion_4_limiter_property_suite():
    from irpdg.dg_space import DGField
    rng = np.random.default_rng(101)
    region, coeffs = _limiter_battery(rng, 1000)
    fld = DGField(2, coeffs)
    out, rep = limit_field(fld, region)

    # average preservation (exact at coefficient level)
    np.testing.assert_array_equal(out.averages(), fld.averages())
    rel = np.abs(out.averages() - fld.averages()) \
        / np.maximum(np.abs(fld.averages()), 1e-300)
    assert rel.max() <= 1e-15

    # containment at every Gauss-Lobatto node
    rule = default_rule(2)
    V = basis_values(2, rule.nodes)
    vals = np.einsum("cvj,nj->cvn", out.coeffs, V)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    p = (GAMMA - 1.0) * (E - 0.5 * m * m / rho)
    assert rho.min() >= region.eps
    assert p.min() >= region.eps
    q = (region.s0 - (np.log(p) - GAMMA * np.log(rho))) * rho
    assert q.max() <= Q_SLACK

    # theta range and activation accounting
    assert np.all((rep.theta > 0.0) & (rep.theta <= 1.0))
    assert rep.n_activated > 50  # the battery genuinely engages the limiter

    # idempotence
    again, rep2 = limit_field(out, region)
    assert rep2.n_activated == 0
    np.testing.assert_array_equal(again.coeffs, out.coeffs)
    _passline(4, f"{fld.n_cells} cells, {rep.n_activated} limited, "
                 f"min theta {rep.min_theta:.2e}, "
                 f"{rep.fallback_count} fallback rounds; averages bitwise, "
                 f"nodes contained, idempotent")


def test_criterion_5_averaging_contraction_suite():
    from irpdg.dg_space import DGField
    rng = np.random.default_rng(103)
    region = InvariantRegion(GAMMA, s0=-1.0)
    dense = np.linspace(-0.5, 0.5, 33)
    V = basis_values(2, dense)
    kept = 0
    tried = 0
    while kept < 1000:
        tried += 1
        rho = rng.uniform(0.3, 3.0)
        s = region.s0 + rng.uniform(0.02, 2.0)
        w = to_conserved(PrimitiveState(rho, rng.uniform(-1.5, 1.5),
                                        math.exp(s) * rho**GAMMA), GAMMA)
        coeffs = np.zeros((1, 3, 3))
        coeffs[0, :, 0] = w
        coeffs[0, :, 1:] = 0.4 * rng.standard_normal((3, 2))
        vals = np.einsum("cvj,nj->cvn", coeffs, V)
        nodes = ConservedState(vals[0, 0], vals[0, 1], vals[0, 2])
        if not np.all(in_region(nodes, region)):
            continue
        kept += 1
        avg = ConservedState(*coeffs[0, :, 0])
        assert in_region_interior(avg, region), coeffs
    _passline(5, f"1000 admissible polynomials (of {tried} sampled) all have "
                 f"strictly interior averages")


def test_criterion_6_lax_shock_tube(lax_runs):
    irp, pos = lax_runs
    # completed without aborts by construction (run() raised otherwise)
    assert irp.result.diagnostics[-1].t == pytest.approx(0.5, abs=1e-12)
    assert irp.result.min_avg_entropy >= irp.region.s0 - 1e-10

    ref = density_reference(irp, 0.5)
    _, l1 = error_norms(irp.result.final, irp.mesh, ref)
    assert l1 <= LAX_L1_THRESHOLD  # FROZEN (measured 0.0274)

    tv_irp = total_variation_of_density(irp.result.final)
    tv_pos = total_variation_of_density(pos.result.final)
    assert tv_pos > tv_irp  # entropy constraint damps the oscillations
    _passline(6, f"L1={l1:.4f} (<= {LAX_L1_THRESHOLD}), "
                 f"min entropy {irp.result.min_avg_entropy:.8f} >= "
                 f"s0={irp.region.s0:.8f} - 1e-10, "
                 f"TV positivity {tv_pos:.4f} > TV irp {tv_irp:.4f}")


@pytest.mark.slow
def test_criterion_7_shu_osher(shu_osher_runs):
    coarse, fine = shu_osher_runs
    assert coarse.result.diagnostics[-1].t == pytest.approx(1.8, abs=1e-12)
    assert fine.result.diagnostics[-1].t == pytest.approx(1.8, abs=1e-12)

    ref = fine_grid_reference(fine, coarse.mesh)
    _, l1 = error_norms(coarse.result.final, coarse.mesh, ref)
    assert l1 <= SHU_OSHER_L1_THRESHOLD  # FROZEN (measured 0.449)

    x_coarse = shock_position(coarse.result.final, coarse.mesh)
    x_fine = shock_position(fine.result.final, fine.mesh)
    assert abs(x_coarse - x_fine) <= 2 * coarse.mesh.h
    _passline(7, f"coarse-vs-fine L1={l1:.3f} (<= {SHU_OSHER_L1_THRESHOLD}), "
                 f"shock at {x_coarse:.3f} vs {x_fine:.4f} "
                 f"(|diff| <= 2h={2 * coarse.mesh.h})")


def test_criterion_8_conservation():
    out = run(RunConfig(problem="smooth_advection", degree=2, n_cells=32,
                        t_final=1.0))
    diags = out.result.diagnostics
    assert diags[-1].step >= 1000
    d0, dN = diags[0], diags[-1]
    drifts = []
    for a, b in [(d0.total_rho, dN.total_rho), (d0.total_m, dN.total_m),
                 (d0.total_E, dN.total_E)]:
        drift = abs(a - b) / max(1.0, abs(a))
        drifts.append(drift)
        assert drift <= 1e-11
    _passline(8, f"{dN.step} steps, relative drifts "
                 f"{['%.2e' % d for d in drifts]} (<= 1e-11)")


def test_criterion_9_exact_riemann_solver():
    from test_riemann_exact import oracle_p_star  # independent bisection

    sod = RiemannProblem(PrimitiveState(1.0, 0.0, 1.0),
                         PrimitiveState(0.125, 0.0, 0.1))
    star = solve_star(sod)
    assert star.p_star == pytest.approx(0.30313, abs=1e-4)
    assert star.u_star == pytest.approx(0.92745, abs=1e-4)

    rng = np.random.default_rng(107)
    checked = 0
    worst = 0.0
    while checked < 100:
        left = PrimitiveState(rng.uniform(0.05, 5.0), rng.uniform(-2, 2),
                              rng.uniform(0.05, 5.0))
        right = PrimitiveState(rng.uniform(0.05, 5.0), rng.uniform(-2, 2),
                               rng.uniform(0.05, 5.0))
        c_l = math.sqrt(GAMMA * left.p / left.rho)
        c_r = math.sqrt(GAMMA * right.p / right.rho)
        if 2 * (c_l + c_r) / (GAMMA - 1) <= right.u - left.u:
            continue
        prob = RiemannProblem(left, right)
        checked += 1
        diff = abs(solve_star(prob).p_star - oracle_p_star(prob))
        worst = max(worst, diff)
        assert diff <= 1e-10 * max(1.0, oracle_p_star(prob))
    _passline(9, f"Sod star (p*={star.p_star:.5f}, u*={star.u_star:.5f}); "
                 f"100 random problems vs bisection oracle, worst "
                 f"|dp*|={worst:.2e}")
