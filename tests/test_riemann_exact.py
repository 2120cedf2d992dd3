"""Exact Riemann solver tests.

The pressure iteration is cross-checked against an independent bisection
oracle written directly from the branch formulas (shock: Rankine-Hugoniot;
rarefaction: isentropic), plus frozen star-state regression values.  The
array sampler is checked point by point against a scalar wave-fan oracle.
"""

import math

import numpy as np
import pytest

from irpdg.dg_space import Mesh1D, gauss_legendre_rule
from irpdg.euler_core import PrimitiveState, gas_entropy, to_conserved
from irpdg.harness import CUSTOM_RIEMANN, preset
from irpdg.riemann_exact import (
    RiemannProblem,
    RiemannSolverError,
    VacuumError,
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


def oracle_p_star_log(problem, iters=64):
    """Plain bisection on ln p over [-700, 700], which covers every p* the
    random problems below have, where the linear bracket above cannot."""
    def f(ln_p):
        p = math.exp(ln_p)
        return (oracle_branch(p, problem.left, problem.gamma)
                + oracle_branch(p, problem.right, problem.gamma)
                + problem.right.u - problem.left.u)

    lo, hi = -700.0, 700.0
    assert f(lo) < 0.0 and f(hi) > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return math.exp(0.5 * (lo + hi))


def random_problems(n, seed):
    """n non-vacuum problems: rho and p log-uniform in [1e-5, 1e5], |u|
    log-uniform in [1e-60, 1e60] with either sign, gamma 1.1, 1.4, 5/3 or 3."""
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < n:
        rho, p = (10.0 ** rng.uniform(-5.0, 5.0, (2, 2))).tolist()
        u = (rng.choice((-1.0, 1.0), 2)
             * 10.0 ** rng.uniform(-60.0, 60.0, 2)).tolist()
        gamma = float(rng.choice((1.1, 1.4, 5.0 / 3.0, 3.0)))
        c = [math.sqrt(gamma * p[k] / rho[k]) for k in (0, 1)]
        if 2.0 * sum(c) / (gamma - 1.0) <= u[1] - u[0]:
            continue  # vacuum-forming; excluded from this property
        problems.append(RiemannProblem(PrimitiveState(rho[0], u[0], p[0]),
                                       PrimitiveState(rho[1], u[1], p[1]),
                                       gamma))
    return problems


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

    def test_a_guess_that_overflows_starts_from_the_largest_float(self):
        # the two-rarefaction guess overflows for |du| above about 1e45;
        # two equal states meeting at du = -1e150 give the strong-shock
        # limit p* = (gamma + 1) / 2 * rho * (du / 2)**2 and rho* = 6 rho
        star = solve_star(RiemannProblem(PrimitiveState(1.0, 1e150, 1.0),
                                         PrimitiveState(1.0, 0.0, 1.0)))
        assert star.p_star == pytest.approx(3e299, rel=1e-12)
        assert star.u_star == pytest.approx(5e149, rel=1e-12)
        assert star.rho_star_left == pytest.approx(6.0, rel=1e-12)
        assert star.rho_star_right == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("du", (1e13, 1e15, 1e20, 1e30, 1e45))
    def test_strong_collisions_converge_to_the_strong_shock_limit(self, du):
        # the two-rarefaction guess overshoots p* by decades here, and at
        # |du| of 1e20 and more f's round-off exceeds the absolute 1e-12
        star = solve_star(RiemannProblem(PrimitiveState(1.0, du, 1.0),
                                         PrimitiveState(1.0, 0.0, 1.0)))
        assert star.p_star == pytest.approx(1.2 * (du / 2.0)**2, rel=1e-9)
        assert star.u_star == pytest.approx(du / 2.0, rel=1e-9)
        assert star.rho_star_left == pytest.approx(6.0, rel=1e-9)
        assert star.rho_star_right == pytest.approx(6.0, rel=1e-9)

    def test_agrees_with_log_bisection_on_random_problems(self):
        # the former safeguarded Newton failed on 7 of these 500
        for prob in random_problems(500, seed=2):
            assert solve_star(prob).p_star == pytest.approx(
                oracle_p_star_log(prob), rel=1e-12)

    @pytest.mark.parametrize("left, right, gamma, p_star", [
        # a rarefaction term's round-off (8e-12) exceeded the former
        # residual tolerance of 1e-12, so the iterates alternated between
        # two adjacent floats until the step limit
        ((41.33, 5.899, 4.327), (0.00245, -3.755, 30798.0), 1.1, 30644.2588),
        # a shock tube into a light gas that the former solver did not solve
        ((1.0, 0.0, 1.0), (1e-5, 0.0, 1e4), 1.1, 9967.7384)],
        ids=("alternating_iterates", "light_gas_shock_tube"))
    def test_problems_the_former_solver_failed(self, left, right, gamma,
                                               p_star):
        prob = RiemannProblem(PrimitiveState(*left), PrimitiveState(*right),
                              gamma)
        star = solve_star(prob)
        assert star.p_star == pytest.approx(p_star, rel=1e-8)
        assert star.p_star == pytest.approx(oracle_p_star_log(prob),
                                            rel=1e-12)

    @pytest.mark.parametrize("u, gamma", [(-1000.0, 1.001), (1.5e154, 1.4)],
                             ids=("below_the_smallest_float",
                                  "above_the_largest_float"))
    def test_a_p_star_outside_the_floats_raises_the_solver_error(self, u,
                                                                 gamma):
        # p* is about 1e-603 (two rarefactions; the guess underflows to 0)
        # and 2.7e308 (two shocks; Newton from below steps to inf)
        with pytest.raises(RiemannSolverError):
            solve_star(RiemannProblem(PrimitiveState(1.0, u, 1.0),
                                      PrimitiveState(1.0, -u, 1.0), gamma))

    def test_numpy_scalar_data_is_solved_as_floats(self):
        # a numpy scalar's power overflowed to inf with a RuntimeWarning
        # (an error under this suite's settings) where a float's raises
        # OverflowError, so the iteration started from inf and failed
        f64 = np.float64
        prob = RiemannProblem(PrimitiveState(f64(1.0), f64(1e50), f64(1.0)),
                              PrimitiveState(f64(1.0), f64(0.0), f64(1.0)),
                              f64(1.4))
        assert all(type(x) is float
                   for x in (*prob.left, *prob.right, prob.gamma))
        assert solve_star(prob) == solve_star(RiemannProblem(
            PrimitiveState(1.0, 1e50, 1.0), PrimitiveState(1.0, 0.0, 1.0)))
        assert solve_star(prob).p_star == pytest.approx(3e99, rel=1e-12)

    def test_vacuum_detection(self):
        with pytest.raises(VacuumError):
            solve_star(RiemannProblem(PrimitiveState(1.0, -5.0, 0.1),
                                      PrimitiveState(1.0, 5.0, 0.1)))

    def test_invalid_data(self):
        with pytest.raises(ValueError):
            RiemannProblem(PrimitiveState(-1.0, 0.0, 1.0),
                           PrimitiveState(1.0, 0.0, 1.0))

    def test_zero_pressure_is_invalid_data(self):
        # it used to pass here and divide by zero in solve_star's guess
        with pytest.raises(ValueError, match="positive pressure"):
            RiemannProblem(PrimitiveState(1.0, 0.0, 1.0),
                           PrimitiveState(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("slot", (0, 1, 2),
                             ids=("density", "velocity", "pressure"))
    @pytest.mark.parametrize("side", ("left", "right"))
    def test_nonfinite_data_is_invalid_data(self, side, slot, value):
        # a nan or infinite velocity used to reach solve_star and end in a
        # float-range error there
        states = {"left": [1.0, 0.5, 1.0], "right": [0.125, -0.5, 0.1]}
        states[side][slot] = value
        quantity = ("density", "velocity", "pressure")[slot]
        with pytest.raises(ValueError, match=rf"^Riemann data requires a "
                                             rf"finite {quantity}, got "
                                             rf"{value} \({side}\)$"):
            RiemannProblem(PrimitiveState(*states["left"]),
                           PrimitiveState(*states["right"]))


# ---- sampling -------------------------------------------------------------

def oracle_edges(problem, star, sign, side):
    """The xi of one side's wave: a shock's speed, or a rarefaction's head
    and tail; the right side is the left one mirrored through ``sign``."""
    gamma = problem.gamma
    c = math.sqrt(gamma * side.p / side.rho)
    gm = 0.5 * (gamma - 1.0) / gamma
    if star.p_star > side.p:  # shock
        gp = 0.5 * (gamma + 1.0) / gamma
        return (side.u - sign * c * math.sqrt(gp * star.p_star / side.p + gm),)
    c_star = c * (star.p_star / side.p) ** gm
    return side.u - sign * c, star.u_star - sign * c_star


def oracle_sample(problem, star, xi):
    """Self-similar solution at one float xi, by the scalar wave-fan tests:
    which side of the contact, then the shock, or the head and then the
    tail of a rarefaction."""
    gamma = problem.gamma
    if xi <= star.u_star:
        sign, side, rho_star = 1.0, problem.left, star.rho_star_left
    else:
        sign, side, rho_star = -1.0, problem.right, star.rho_star_right
    inner = PrimitiveState(rho_star, star.u_star, star.p_star)
    edges = oracle_edges(problem, star, sign, side)
    if sign * xi <= sign * edges[0]:
        return side
    if len(edges) == 1 or sign * xi >= sign * edges[1]:
        return inner
    c = math.sqrt(gamma * side.p / side.rho)
    u = 2.0 / (gamma + 1.0) * (sign * c + 0.5 * (gamma - 1.0) * side.u + xi)
    cf = 2.0 / (gamma + 1.0) * (c + sign * 0.5 * (gamma - 1.0) * (side.u - xi))
    rho = side.rho * (cf / c) ** (2.0 / (gamma - 1.0))
    return PrimitiveState(rho, u, side.p * (cf / c) ** (2.0 * gamma / (gamma - 1.0)))


def sample_at(problem, xi):
    """The array sampler's state at one xi."""
    return PrimitiveState(*sample_primitives(problem, star_of(problem), [xi])[:, 0])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


FAN_PROBLEMS = {
    "sod": SOD,
    "lax": LAX,
    "einfeldt_123": RiemannProblem(PrimitiveState(1.0, -2.0, 0.4),
                                   PrimitiveState(1.0, 2.0, 0.4)),
    "leblanc": RiemannProblem(PrimitiveState(1.0, 0.0, 2.0 / 3.0 * 1e-1),
                              PrimitiveState(1e-3, 0.0, 2.0 / 3.0 * 1e-10),
                              5.0 / 3.0),
    "woodward_colella_left": RiemannProblem(PrimitiveState(1.0, 0.0, 1000.0),
                                            PrimitiveState(1.0, 0.0, 0.01)),
    # Toro's test 5: two strong shocks collide
    "two_shocks": RiemannProblem(
        PrimitiveState(5.99924, 19.5975, 460.894),
        PrimitiveState(5.99242, -6.19633, 46.0950)),
    # a right rarefaction whose velocity passes through 0
    "right_fan_through_zero": RiemannProblem(PrimitiveState(1.0, -2.0, 1.0),
                                             PrimitiveState(1.0, 0.5, 1.0)),
}


def wave_span(problem, star):
    """A bound on |xi| of every wave, with a margin: a shock moves between
    the characteristic speeds of its two sides."""
    g = problem.gamma
    speeds = []
    for side, rho_star in ((problem.left, star.rho_star_left),
                           (problem.right, star.rho_star_right)):
        speeds += [abs(side.u) + math.sqrt(g * side.p / side.rho),
                   abs(star.u_star) + math.sqrt(g * star.p_star / rho_star)]
    return 1.25 * max(speeds)


class TestSampling:
    @pytest.mark.parametrize("name", sorted(FAN_PROBLEMS))
    def test_one_array_pass_matches_the_scalar_fan(self, name):
        # 20,000 random points across the waves, plus each wave's edges
        # and the contact with their neighbours, both zeros, both
        # infinities and nan.  np.power and libm pow differ by an ulp on
        # some inputs, so inside a rarefaction rho and p may differ by
        # 2 ulp; everything else keeps the oracle's bits.
        problem = FAN_PROBLEMS[name]
        star = solve_star(problem)
        edges = np.array([star.u_star, *oracle_edges(
            problem, star, 1.0, problem.left), *oracle_edges(
            problem, star, -1.0, problem.right)])
        span = wave_span(problem, star)
        rng = np.random.default_rng(sorted(FAN_PROBLEMS).index(name))
        xi = np.concatenate([
            rng.uniform(-span, span, 20_000), edges,
            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        got = sample_primitives(problem, star, xi)
        want = np.array([oracle_sample(problem, star, float(x)) for x in xi]).T
        assert got.shape == want.shape == (3, xi.size)

        states = np.array([problem.left, problem.right,
                           (star.rho_star_left, star.u_star, star.p_star),
                           (star.rho_star_right, star.u_star, star.p_star)])
        fan = ~(want.T[:, None, :] == states).all(axis=2).any(axis=1)
        has_fan = star.p_star <= max(problem.left.p, problem.right.p)
        assert (np.count_nonzero(fan) > 1000) == has_fan
        assert np.array_equal(bits(got[:, ~fan]), bits(want[:, ~fan]))
        assert np.array_equal(bits(got[1]), bits(want[1]))
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want[0]) & fan
        assert np.abs(bits(got[::2, ok]) - bits(want[::2, ok])).max(
            initial=0) <= 2

    def test_far_field_states(self):
        assert sample_at(SOD, -100.0) == SOD.left
        assert sample_at(SOD, 100.0) == SOD.right

    def test_left_fan_isentropic_and_characteristic(self):
        c_l = math.sqrt(GAMMA * SOD.left.p / SOD.left.rho)
        for xi in (-1.0, -0.7, -0.3):
            w = sample_at(SOD, xi)
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
        left_of_contact = sample_at(SOD, star.u_star - eps)
        right_of_contact = sample_at(SOD, star.u_star + eps)
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
        assert sample_at(SOD, s - 1e-9).rho == pytest.approx(
            star.rho_star_right, rel=1e-9)
        assert sample_at(SOD, s + 1e-9) == SOD.right

    def test_entropy_condition_across_shock(self):
        star = star_of(SOD)
        s_pre = gas_entropy(SOD.right.rho, SOD.right.p, GAMMA)
        s_post = gas_entropy(star.rho_star_right, star.p_star, GAMMA)
        assert s_post > s_pre  # gas crossing the shock gains entropy

    def test_self_similarity(self):
        lax = preset(CUSTOM_RIEMANN, left=LAX.left, right=LAX.right)
        for x, t in [(0.3, 0.5), (0.6, 1.0), (1.2, 2.0)]:
            np.testing.assert_allclose(lax.exact(np.array([x]), t),
                                       lax.exact(np.array([2 * x]), 2 * t),
                                       rtol=1e-13)

    def test_right_fan_velocity_zero_is_positive(self):
        # the right fan is the left one mirrored; negating the mirrored
        # velocity back would give -0 where the velocity is exactly 0
        problem = RiemannProblem(PrimitiveState(1.0, -2.0, 1.0),
                                 PrimitiveState(1.0, 0.5, 1.0))
        star = solve_star(problem)
        xi = -(-math.sqrt(GAMMA) + 0.5 * (GAMMA - 1.0) * 0.5)
        assert star.u_star < 0.0 < xi  # inside the right rarefaction
        u = sample_at(problem, xi).u
        assert u == 0.0 and math.copysign(1.0, u) == 1.0

    def test_exact_density_needs_a_nonnegative_time(self):
        sod = preset(CUSTOM_RIEMANN, left=SOD.left, right=SOD.right)
        with pytest.raises(ValueError):
            sod.exact(np.array([0.0]), -0.1)
        xs = np.array([-0.5, 0.0, 0.5])
        assert np.array_equal(sod.exact(xs, 0.0), sod.rho0(xs))


# ---- mesh references ------------------------------------------------------

def reference_on_mesh(problem, mesh, t, samples_per_cell=8):
    """Cell averages of the exact conserved solution; (n_cells, 3).

    Each cell is integrated with a Gauss-Legendre rule; kinks and jumps
    inside a cell make this first-order accurate there.
    """
    rule = gauss_legendre_rule(samples_per_cell)
    xi = (mesh.physical_points(rule.nodes).ravel() - problem.x0) / t
    rho, u, p = sample_primitives(problem, star_of(problem), xi)
    w = np.stack(to_conserved(PrimitiveState(rho, u, p), problem.gamma))
    return np.einsum("vcq,q->cv", w.reshape(3, mesh.n_cells, -1),
                     rule.weights)


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
