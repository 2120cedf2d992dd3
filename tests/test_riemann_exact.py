"""Exact Riemann solver tests.

The pressure iteration is cross-checked against an independent bisection
oracle written directly from the branch formulas (shock: Rankine-Hugoniot;
rarefaction: isentropic), plus frozen star-state regression values.
"""

import math

import numpy as np
import pytest

from irpdg.dg_space import Mesh1D
from irpdg.euler_core import PrimitiveState, gas_entropy, to_conserved
from irpdg.riemann_exact import (
    RiemannProblem,
    VacuumError,
    reference_on_mesh,
    sample,
    sample_conserved_at,
    sample_primitives,
    solve_star,
    star_of,
)

GAMMA = 1.4

SOD = RiemannProblem(PrimitiveState(1.0, 0.0, 1.0),
                     PrimitiveState(0.125, 0.0, 0.1))
LAX = RiemannProblem(
    PrimitiveState(0.445, 0.311 / 0.445, 0.4 * (8.928 - 0.5 * 0.311**2 / 0.445)),
    PrimitiveState(0.5, 0.0, 0.4 * 1.4275))


# ---- independent oracle ---------------------------------------------------

def oracle_branch(p, side, gamma):
    rho_k, _, p_k = side
    c_k = math.sqrt(gamma * p_k / rho_k)
    if p > p_k:
        a = 2.0 / ((gamma + 1.0) * rho_k)
        b = (gamma - 1.0) / (gamma + 1.0) * p_k
        return (p - p_k) * math.sqrt(a / (p + b))
    return 2.0 * c_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)


def oracle_p_star(problem, lo=1e-14, hi=1e6, iters=220):
    """Plain bisection on the monotone pressure function."""
    def f(p):
        return (oracle_branch(p, problem.left, problem.gamma)
                + oracle_branch(p, problem.right, problem.gamma)
                + problem.right.u - problem.left.u)

    assert f(lo) < 0.0 and f(hi) > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---- star state -----------------------------------------------------------

class TestSolveStar:
    def test_equal_states_no_waves(self):
        prob = RiemannProblem(PrimitiveState(1.0, 0.7, 2.0),
                              PrimitiveState(1.0, 0.7, 2.0))
        star = solve_star(prob)
        assert star.p_star == pytest.approx(2.0, rel=1e-10)
        assert star.u_star == pytest.approx(0.7, rel=1e-10)
        assert star.rho_star_left == pytest.approx(1.0, rel=1e-10)

    def test_sod_star_values(self):
        star = solve_star(SOD)
        # frozen regression values computed with oracle_p_star
        assert star.p_star == pytest.approx(0.30313018, abs=1e-4)
        assert star.u_star == pytest.approx(0.92745262, abs=1e-4)
        assert star.p_star == pytest.approx(oracle_p_star(SOD), abs=1e-10)

    def test_lax_star_values(self):
        star = solve_star(LAX)
        # frozen regression values computed with oracle_p_star
        assert star.p_star == pytest.approx(2.46656916, abs=1e-7)
        assert star.u_star == pytest.approx(1.52896251, abs=1e-7)
        assert star.rho_star_left == pytest.approx(0.34463435, abs=1e-7)
        assert star.rho_star_right == pytest.approx(1.30422016, abs=1e-7)

    def test_agrees_with_bisection_on_random_problems(self):
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 100:
            left = PrimitiveState(rng.uniform(0.05, 5.0), rng.uniform(-2, 2),
                                  rng.uniform(0.05, 5.0))
            right = PrimitiveState(rng.uniform(0.05, 5.0), rng.uniform(-2, 2),
                                   rng.uniform(0.05, 5.0))
            prob = RiemannProblem(left, right)
            c_l = math.sqrt(GAMMA * left.p / left.rho)
            c_r = math.sqrt(GAMMA * right.p / right.rho)
            if 2 * (c_l + c_r) / (GAMMA - 1) <= right.u - left.u:
                continue  # vacuum-forming; excluded from this property
            checked += 1
            assert solve_star(prob).p_star == pytest.approx(
                oracle_p_star(prob), abs=1e-10, rel=1e-10)

    def test_residual_below_tolerance(self):
        star = solve_star(LAX)
        resid = (oracle_branch(star.p_star, LAX.left, GAMMA)
                 + oracle_branch(star.p_star, LAX.right, GAMMA)
                 + LAX.right.u - LAX.left.u)
        assert abs(resid) <= 1e-12

    def test_vacuum_detection(self):
        with pytest.raises(VacuumError):
            solve_star(RiemannProblem(PrimitiveState(1.0, -5.0, 0.1),
                                      PrimitiveState(1.0, 5.0, 0.1)))

    def test_invalid_data(self):
        with pytest.raises(ValueError):
            RiemannProblem(PrimitiveState(-1.0, 0.0, 1.0),
                           PrimitiveState(1.0, 0.0, 1.0))


# ---- sampling -------------------------------------------------------------

class TestSampling:
    def test_far_field_states(self):
        star = star_of(SOD)
        assert sample(SOD, star, -100.0) == SOD.left
        assert sample(SOD, star, 100.0) == SOD.right

    def test_left_fan_isentropic_and_characteristic(self):
        star = star_of(SOD)
        c_l = math.sqrt(GAMMA * SOD.left.p / SOD.left.rho)
        for xi in (-1.0, -0.7, -0.3):
            w = sample(SOD, star, xi)
            assert w.p / w.rho**GAMMA == pytest.approx(
                SOD.left.p / SOD.left.rho**GAMMA, rel=1e-12)
            # Riemann invariant u + 2c/(gamma-1) is constant through the fan
            c = math.sqrt(GAMMA * w.p / w.rho)
            assert w.u + 2 * c / (GAMMA - 1) == pytest.approx(
                SOD.left.u + 2 * c_l / (GAMMA - 1), rel=1e-12)
            # fan states move with xi = u - c
            assert w.u - c == pytest.approx(xi, rel=1e-12)

    def test_contact_separates_star_densities(self):
        star = star_of(SOD)
        eps = 1e-9
        left_of_contact = sample(SOD, star, star.u_star - eps)
        right_of_contact = sample(SOD, star, star.u_star + eps)
        assert left_of_contact.rho == pytest.approx(star.rho_star_left, rel=1e-9)
        assert right_of_contact.rho == pytest.approx(star.rho_star_right, rel=1e-9)
        assert left_of_contact.p == pytest.approx(right_of_contact.p, rel=1e-12)

    def test_rankine_hugoniot_across_right_shock(self):
        star = star_of(SOD)
        # shock speed from the sampled jump itself
        s = (GAMMA * SOD.right.p / math.sqrt(GAMMA * SOD.right.p / SOD.right.rho) * 0
             + SOD.right.u + math.sqrt(GAMMA * SOD.right.p / SOD.right.rho)
             * math.sqrt((GAMMA + 1) / (2 * GAMMA) * star.p_star / SOD.right.p
                         + (GAMMA - 1) / (2 * GAMMA)))
        pre = to_conserved(SOD.right, GAMMA)
        post = to_conserved(PrimitiveState(star.rho_star_right, star.u_star,
                                           star.p_star), GAMMA)

        def flux(w):
            u = w.m / w.rho
            p = (GAMMA - 1) * (w.E - 0.5 * w.m**2 / w.rho)
            return np.array([w.m, w.m * u + p, (w.E + p) * u])

        lhs = flux(pre) - flux(post)
        rhs = s * (np.array(pre) - np.array(post))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        # the sampled profile jumps exactly at s
        assert sample(SOD, star_of(SOD), s - 1e-9).rho == pytest.approx(
            star.rho_star_right, rel=1e-9)
        assert sample(SOD, star_of(SOD), s + 1e-9) == SOD.right

    def test_entropy_condition_across_shock(self):
        star = star_of(SOD)
        s_pre = gas_entropy(SOD.right.rho, SOD.right.p, GAMMA)
        s_post = gas_entropy(star.rho_star_right, star.p_star, GAMMA)
        assert s_post > s_pre  # gas crossing the shock gains entropy

    def test_self_similarity(self):
        star = star_of(LAX)
        for x, t in [(0.3, 0.5), (0.6, 1.0), (1.2, 2.0)]:
            w1 = sample_conserved_at(LAX, star, np.array([x]), t)
            w2 = sample_conserved_at(LAX, star, np.array([2 * x]), 2 * t)
            np.testing.assert_allclose(w1, w2, rtol=1e-13)

    def test_sample_requires_positive_time(self):
        with pytest.raises(ValueError):
            sample_conserved_at(SOD, star_of(SOD), np.array([0.0]), 0.0)


# ---- mesh references ------------------------------------------------------

class TestReferenceOnMesh:
    def test_small_time_limit_recovers_data(self):
        mesh = Mesh1D(-2.0, 2.0, 40, boundary="outflow")
        ref = reference_on_mesh(LAX, mesh, t=1e-8)
        wl = to_conserved(LAX.left, GAMMA)
        wr = to_conserved(LAX.right, GAMMA)
        np.testing.assert_allclose(ref[:18], np.tile(wl, (18, 1)), rtol=1e-10)
        np.testing.assert_allclose(ref[22:], np.tile(wr, (18, 1)), rtol=1e-10)

    def test_mass_bookkeeping(self):
        # d/dt integral rho = m(left boundary) - m(right boundary); both
        # boundary states are still the initial constants at T=0.5
        mesh = Mesh1D(-2.0, 2.0, 2000, boundary="outflow")
        T = 0.5
        ref = reference_on_mesh(LAX, mesh, t=T, samples_per_cell=6)
        mass = ref[:, 0].sum() * mesh.h
        mass0 = 2.0 * LAX.left.rho + 2.0 * LAX.right.rho
        influx = T * (LAX.left.rho * LAX.left.u - LAX.right.rho * LAX.right.u)
        assert mass == pytest.approx(mass0 + influx, abs=2e-4)

    def test_lax_wave_ordering(self):
        star = star_of(LAX)
        T = 0.5
        xs = np.array([-1.6, -0.4, 0.5, 0.74, 0.78, 1.3])  # shock sits at ~1.24
        rho = sample_primitives(LAX, star, xs / T)[0]
        assert rho[0] == pytest.approx(LAX.left.rho, rel=1e-12)  # pre-fan
        assert rho[2] == pytest.approx(star.rho_star_left, rel=1e-12)
        assert rho[4] == pytest.approx(star.rho_star_right, rel=1e-12)
        assert rho[5] == pytest.approx(LAX.right.rho, rel=1e-12)  # pre-shock
        # rarefaction, contact, shock from left to right
        assert LAX.left.rho > star.rho_star_left < star.rho_star_right
