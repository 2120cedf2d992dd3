"""Thermodynamics and state-algebra tests.

Expected values are recomputed in-test from the defining formulas (hand
oracles), never copied from solver output.  The closure is unchecked, so
the tests feed it states with positive density and pressure.
"""

import math

import numpy as np
import pytest

from irpdg.euler_core import (
    ConservedState,
    InvariantRegion,
    PrimitiveState,
    entropy_floor_from_initial,
    gas_entropy,
    gas_pressure,
    gas_state,
    in_region,
    in_region_interior,
    to_conserved,
    to_primitive,
)

GAMMA = 1.4

# Lax left state in conserved variables.
LAX_LEFT = ConservedState(0.445, 0.311, 8.928)
LAX_LEFT_P = 0.4 * (8.928 - 0.5 * 0.311**2 / 0.445)


def pressure(w):
    return gas_pressure(*w, GAMMA)


def entropy(w):
    return gas_entropy(w.rho, pressure(w), GAMMA)


def q_of(w, region):
    return gas_state(*w, region)[2]


def random_primitives(rng, n):
    rho = rng.uniform(0.05, 5.0, n)
    u = rng.uniform(-3.0, 3.0, n)
    p = rng.uniform(0.05, 10.0, n)
    return rho, u, p


class TestPressure:
    def test_unit_state(self):
        assert pressure(ConservedState(1.0, 0.0, 2.5)) == pytest.approx(1.0)

    def test_lax_left_state(self):
        assert pressure(LAX_LEFT) == pytest.approx(LAX_LEFT_P, rel=1e-14)
        # formula evaluates to ~3.5277 (hand arithmetic)
        assert LAX_LEFT_P == pytest.approx(3.52773, abs=1e-4)

    def test_kinetic_equals_total(self):
        assert pressure(ConservedState(1.0, 1.0, 0.5)) == pytest.approx(0.0)


class TestEntropy:
    def test_unit_state_zero(self):
        assert entropy(ConservedState(1.0, 0.0, 2.5)) == pytest.approx(0.0)

    def test_compressed_state(self):
        w = to_conserved(PrimitiveState(2.0, 0.0, 1.0), GAMMA)
        assert entropy(w) == pytest.approx(-1.4 * math.log(2.0), rel=1e-13)

    def test_isentrope_of_unit(self):
        w = to_conserved(PrimitiveState(0.5, 0.0, 0.5**1.4), GAMMA)
        assert entropy(w) == pytest.approx(0.0, abs=1e-14)

    def test_consistency_with_pressure(self):
        rng = np.random.default_rng(7)
        rho, u, p = random_primitives(rng, 1000)
        w = to_conserved(PrimitiveState(rho, u, p), GAMMA)
        s = entropy(w)
        assert np.allclose(np.exp(s) * rho**GAMMA, p, rtol=1e-12)
        region = InvariantRegion(GAMMA, s0=0.0)
        np.testing.assert_array_equal(gas_state(*w, region)[1], s)


class TestQFunctional:
    def test_zero_on_floor(self):
        w = to_conserved(PrimitiveState(1.0, 0.0, 1.0), GAMMA)  # s = 0
        region = InvariantRegion(GAMMA, s0=0.0)
        assert q_of(w, region) == pytest.approx(0.0, abs=1e-15)

    def test_unit_state(self):
        w = to_conserved(PrimitiveState(1.0, 0.0, 1.0), GAMMA)
        region = InvariantRegion(GAMMA, s0=-1.0)
        assert q_of(w, region) == pytest.approx(-1.0, rel=1e-14)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(11)
        region = InvariantRegion(GAMMA, s0=0.3)
        n = 10_000
        w1 = to_conserved(PrimitiveState(*random_primitives(rng, n)), GAMMA)
        w2 = to_conserved(PrimitiveState(*random_primitives(rng, n)), GAMMA)
        q1 = q_of(w1, region)
        q2 = q_of(w2, region)
        for t in (0.25, 0.5, 0.75):
            mid = ConservedState(*(t * np.asarray(a) + (1 - t) * np.asarray(b)
                                   for a, b in zip(w1, w2)))
            qm = q_of(mid, region)
            assert np.all(qm <= t * q1 + (1 - t) * q2 + 1e-12)

    def test_midpoint_concavity_of_pressure(self):
        rng = np.random.default_rng(13)
        n = 10_000
        w1 = to_conserved(PrimitiveState(*random_primitives(rng, n)), GAMMA)
        w2 = to_conserved(PrimitiveState(*random_primitives(rng, n)), GAMMA)
        p1 = pressure(w1)
        p2 = pressure(w2)
        for t in (0.25, 0.5, 0.75):
            mid = ConservedState(*(t * np.asarray(a) + (1 - t) * np.asarray(b)
                                   for a, b in zip(w1, w2)))
            pm = pressure(mid)
            assert np.all(pm >= t * p1 + (1 - t) * p2 - 1e-12)


class TestRegionMembership:
    region = InvariantRegion(GAMMA, s0=-1.0)

    def test_interior_state(self):
        w = to_conserved(PrimitiveState(1.0, 0.0, 1.0), GAMMA)  # q = -1
        assert in_region(w, self.region)
        assert in_region_interior(w, self.region)

    def test_negative_density(self):
        assert not in_region(ConservedState(-0.1, 0.0, 1.0), self.region)

    def test_entropy_violation(self):
        # s far below s0 makes q > 0
        w = to_conserved(PrimitiveState(2.0, 0.0, 0.1), GAMMA)
        assert entropy(w) < self.region.s0
        assert not in_region(w, self.region)

    def test_short_circuit_on_undefined_q(self):
        # q is undefined here (p < 0) and must not be evaluated
        assert not in_region(ConservedState(1.0, 2.0, 0.5), self.region)

    def test_boundary_counts_closed_not_interior(self):
        w = to_conserved(PrimitiveState(1.0, 0.0, 1.0), GAMMA)
        region = InvariantRegion(GAMMA, s0=float(entropy(w)))
        assert in_region(w, region)
        assert not in_region_interior(w, region)

    def test_array_input(self):
        w = ConservedState(np.array([1.0, -0.1]), np.array([0.0, 0.0]),
                           np.array([2.5, 1.0]))
        np.testing.assert_array_equal(in_region(w, self.region), [True, False])


class TestConversions:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            prim = PrimitiveState(rng.uniform(1e-8, 10.0), rng.uniform(-5, 5),
                                  rng.uniform(1e-8, 10.0))
            back = to_primitive(to_conserved(prim, GAMMA), GAMMA)
            for a, b in zip(prim, back):
                assert b == pytest.approx(a, rel=1e-14)


class TestEntropyFloor:
    def test_constant_data(self):
        xs = np.linspace(0, 1, 50)
        assert entropy_floor_from_initial(lambda x: np.ones_like(x),
                                          lambda x: np.ones_like(x),
                                          xs, GAMMA) == 0.0

    def test_smooth_advection_data(self):
        xs = np.linspace(0.0, 1.0, 20001)
        s0 = entropy_floor_from_initial(
            lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x),
            lambda x: np.ones_like(x), xs, GAMMA)
        # infimum attained at rho = 1.5
        assert s0 == pytest.approx(-1.4 * math.log(1.5), abs=1e-7)
        assert s0 >= -1.4 * math.log(1.5)  # sampled min never undershoots

    def test_lax_data(self):
        wl, wr = LAX_LEFT, ConservedState(0.5, 0.0, 1.4275)
        pr = 0.4 * 1.4275
        expected = min(math.log(LAX_LEFT_P / 0.445**1.4),
                       math.log(pr / 0.5**1.4))
        xs = np.linspace(-2, 2, 4001)
        s0 = entropy_floor_from_initial(
            lambda x: np.where(x < 0, wl.rho, wr.rho),
            lambda x: np.where(x < 0, LAX_LEFT_P, pr), xs, GAMMA)
        assert s0 == pytest.approx(expected, rel=1e-13)

    def test_empty_sample_set(self):
        with pytest.raises(ValueError):
            entropy_floor_from_initial(lambda x: x, lambda x: x,
                                       np.array([]), GAMMA)

    def test_nonpositive_data_rejected(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            entropy_floor_from_initial(lambda x: x - 0.5,
                                       lambda x: np.ones_like(x), xs, GAMMA)


class TestInvariantRegionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            InvariantRegion(1.0, 0.0)
        with pytest.raises(ValueError):
            InvariantRegion(1.4, 0.0, eps=0.0)

    def test_default_eps(self):
        assert InvariantRegion(1.4, 0.0).eps == 1e-13
