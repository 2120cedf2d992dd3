"""Limiter unit and property tests.

Random cells use seeded generators; adversarial cells inject overshoots
violating each constraint separately and jointly.
"""

import numpy as np
import pytest

from irpdg.dg_space import DGField, Mesh1D, basis_values, l2_project
from irpdg.euler_core import ConservedState, InvariantRegion, PrimitiveState, \
    in_region, in_region_interior, to_conserved
from irpdg.irp_limiter import (
    LIMITER_IRP,
    LIMITER_NONE,
    LIMITER_POSITIVITY,
    Q_SLACK,
    RegionViolationError,
    default_rule,
    limit_field,
)

GAMMA = 1.4
REGION = InvariantRegion(GAMMA, s0=-1.0)
MESH4 = Mesh1D(0.0, 1.0, 4)


def single_cell_field(degree, rho_coeffs, m_coeffs, E_coeffs):
    coeffs = np.zeros((1, 3, degree + 1))
    coeffs[0, 0, :len(rho_coeffs)] = rho_coeffs
    coeffs[0, 1, :len(m_coeffs)] = m_coeffs
    coeffs[0, 2, :len(E_coeffs)] = E_coeffs
    return DGField(degree, coeffs)


def node_states(fld, region):
    rule = default_rule(fld.degree)
    V = basis_values(fld.degree, rule.nodes)
    vals = np.einsum("cvj,nj->cvn", fld.coeffs, V)
    return ConservedState(vals[:, 0].ravel(), vals[:, 1].ravel(),
                          vals[:, 2].ravel())


def random_cells(rng, n, degree, overshoot=0.0, region=None):
    """Cells whose averages lie strictly inside the region, plus noise modes.

    Pressure is built from a target entropy above the floor, so the averages
    satisfy the limiter precondition by construction.
    """
    region = region or REGION
    coeffs = np.zeros((n, 3, degree + 1))
    rho = rng.uniform(0.3, 3.0, n)
    u = rng.uniform(-1.5, 1.5, n)
    s = region.s0 + rng.uniform(0.1, 2.0, n)
    p = np.exp(s) * rho**region.gamma
    w = to_conserved(PrimitiveState(rho, u, p), GAMMA)
    coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
    coeffs[:, :, 1:] = overshoot * rng.standard_normal((n, 3, degree))
    return DGField(degree, coeffs)


def report_extrema(fld, cell, region=REGION):
    """(rho_min, p_min, q_max) of one cell as the limiter's report gives them."""
    _, rep = limit_one(fld, region, LIMITER_NONE)
    return rep.rho_min[cell], rep.p_min[cell], rep.q_max[cell]


def oracle_extrema(fld, cell, region=REGION):
    """(rho_min, p_min, q_max) over one cell's test nodes, counted as the
    report counts them: a non-finite p as -inf, q off the positive cone as
    +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, p, q = _node_quantities_of(
            DGField(fld.degree, fld.coeffs[cell:cell + 1]), region)
    p = np.where(np.isfinite(p), p, -np.inf)
    q = np.where((rho > 0.0) & (p > 0.0), q, np.inf)
    return float(rho.min()), float(p.min()), float(q.max())


def oracle_theta(avg, extrema, region=REGION):
    """The limiter's one-shot formula for one cell, with scalars:
    (theta, theta1, theta2, theta3); a constraint that holds gives +inf."""
    rho_min, p_min, q_max = extrema
    rho, m, E = avg
    p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    q = (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho

    def ratio(num, den):
        return 0.0 if den < 1e-14 else num / den

    theta1 = ratio(rho - region.eps, rho - rho_min) \
        if rho_min < region.eps else np.inf
    theta2 = ratio(p - region.eps, p - p_min) if p_min < region.eps else np.inf
    theta3 = ratio(-q, q_max - q) \
        if Q_SLACK < q_max < np.inf else np.inf
    return min(1.0, theta1, theta2, theta3), theta1, theta2, theta3


def limit_one(fld, region=REGION, kind=LIMITER_IRP):
    """limit_field on a field over [0, 1]: (limited coefficients, report)."""
    out, rep = limit_field(fld, Mesh1D(0.0, 1.0, fld.n_cells), region, kind)
    return out.coeffs, rep


# P1 density with test-node values -1 and 3 about an average of 1; the
# energy 25 (p = 10) keeps every node's entropy inside the region
C1_DIP = 2.0 / np.sqrt(3.0)
DENSITY_DIP = ([1.0, C1_DIP], [0.0], [25.0])
# P1 energy whose lower test node has p = e^-2, so q = +1 there, while the
# average (1, 0, 2.5) has p = 1 and q = -1 against s0 = -1
C1_ENTROPY = (2.5 - np.exp(-2.0) / 0.4) / np.sqrt(3.0)
ENTROPY_DIP = ([1.0], [0.0], [2.5, -C1_ENTROPY])


class TestExtrema:
    def test_constant_cell(self):
        w = to_conserved(PrimitiveState(1.0, 0.0, 1.0), GAMMA)
        fld = single_cell_field(2, [w.rho], [w.m], [w.E])
        rho_min, p_min, q_max = report_extrema(fld, 0)
        assert rho_min == pytest.approx(1.0, rel=1e-14)
        assert p_min == pytest.approx(1.0, rel=1e-14)
        assert q_max == pytest.approx(-1.0, rel=1e-14)

    def test_node_touching_zero_gets_sentinel(self):
        # rho(xi) = 1 + 2 xi hits 0 at the left Lobatto node of a P2 cell
        fld = single_cell_field(2, [1.0, 2.0 / (2 * np.sqrt(3.0))], [0.0], [2.5])
        rho_min, p_min, q_max = report_extrema(fld, 0)
        assert rho_min == pytest.approx(0.0, abs=1e-15)
        assert q_max == np.inf

    def test_extrema_only_see_test_nodes(self):
        # rho dips to 0.8 at xi = +-1/(2 sqrt 3) (volume points) but the
        # Lobatto nodes {-1/2, 0, 1/2} only see the parabola's node values.
        c2 = 0.3
        fld = single_cell_field(2, [1.0, 0.0, c2], [0.0], [4.0])
        rho_min, _, _ = report_extrema(fld, 0)
        V = basis_values(2, np.array([-0.5, 0.0, 0.5]))
        expected = (V @ fld.coeffs[0, 0]).min()
        assert rho_min == pytest.approx(expected, rel=1e-14)


class TestCellRatios:
    """The per-cell ratios of ``limit_field`` on one-cell fields."""

    def test_admissible_extrema_no_op(self):
        fld = single_cell_field(2, [1.0, 0.05], [0.0, 0.02], [2.5, 0.05])
        coeffs, rep = limit_one(fld)
        assert rep.theta[0] == 1.0
        assert not rep.activated[0]
        assert rep.theta1[0] == np.inf and rep.theta3[0] == np.inf
        np.testing.assert_array_equal(coeffs, fld.coeffs)

    def test_density_violation(self):
        _, rep = limit_one(single_cell_field(1, *DENSITY_DIP))
        expected = (1.0 - REGION.eps) / 2.0
        assert rep.theta[0] == pytest.approx(expected, rel=1e-13)
        assert rep.theta[0] == rep.theta1[0]
        assert rep.activated[0]

    def test_entropy_violation(self):
        # q_avg = -1, q_max = +1 -> theta3 = 1/2
        _, rep = limit_one(single_cell_field(1, *ENTROPY_DIP))
        assert rep.q_max[0] == pytest.approx(1.0, rel=1e-13)
        assert rep.theta[0] == pytest.approx(0.5, rel=1e-13)
        assert rep.theta[0] == rep.theta3[0]

    def test_positivity_kind_ignores_entropy(self):
        fld = single_cell_field(1, *ENTROPY_DIP)
        coeffs, rep = limit_one(fld, kind=LIMITER_POSITIVITY)
        assert rep.theta[0] == 1.0
        assert rep.theta3[0] == np.inf
        np.testing.assert_array_equal(coeffs, fld.coeffs)

    def test_average_outside_interior_raises(self):
        fld = single_cell_field(1, [REGION.eps / 2, 1.0], [0.0], [1.0])
        with pytest.raises(RegionViolationError):
            limit_one(fld)

    def test_average_on_entropy_boundary_raises_when_q_violated(self):
        # The region is closed: an average with 0 <= q <= Q_SLACK passes,
        # and a node with q > Q_SLACK gets theta3 = 0, which flattens the
        # cell to the average.  Against s0 = 0, the average (1, 0, 1) has
        # q = 0 exactly at gamma = 2, and (1, 0, 2.5) has q = 2.2e-16 at
        # gamma = 1.4 (where gamma - 1 rounds down); the lower energy node
        # has a lower pressure, so q > 0 there.
        for gamma, E in ((2.0, 1.0), (GAMMA, 2.5)):
            fld = single_cell_field(1, [1.0], [0.0], [E, -0.1])
            coeffs, rep = limit_one(fld, InvariantRegion(gamma, s0=0.0))
            for theta in (rep.theta[0], rep.theta3[0]):
                assert theta == 0.0 and not np.signbit(theta)
            np.testing.assert_array_equal(coeffs[0, :, 0], fld.coeffs[0, :, 0])
            np.testing.assert_array_equal(coeffs[0, :, 1:], 0.0)
        # the same average against s0 = 1e-6 has q = 1e-6, far above
        # Q_SLACK, and still raises
        with pytest.raises(RegionViolationError,
                           match=r"q=1\.0+\d*e-06 not negative \(cell 0\)"):
            limit_one(fld, InvariantRegion(GAMMA, s0=1e-6))

    def test_nan_node_density_is_a_violation(self):
        # the modes overflow at the right Lobatto node, whose density is
        # then inf - inf = nan; theta 0 flattens the cell to its average
        fld = single_cell_field(2, [1.0, 1.5e308, -1e308], [0.0], [2.5])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(node_states(fld, REGION).rho).any()
        for kind in (LIMITER_POSITIVITY, LIMITER_IRP):
            coeffs, rep = limit_one(fld, kind=kind)
            assert rep.theta[0] == rep.theta1[0] == 0.0
            np.testing.assert_array_equal(coeffs[0, :, 0],
                                          fld.coeffs[0, :, 0])
            np.testing.assert_array_equal(coeffs[0, :, 1:], 0.0)

    def test_nan_node_density_never_passes_unlimited(self):
        # an infinite density slope has P2 nodes (-inf, nan, +inf): theta 0
        # drops the infinite mode and leaves the cell at its mean; a nan
        # average density fails the average test
        slope = single_cell_field(2, [1.0, np.inf], [0.0], [2.5])
        coeffs, rep = limit_one(slope)
        assert rep.theta[0] == rep.theta1[0] == 0.0
        assert rep.fallback_count == 0
        np.testing.assert_array_equal(coeffs[0, :, 0], slope.coeffs[0, :, 0])
        np.testing.assert_array_equal(coeffs[0, :, 1:], 0.0)
        assert not np.signbit(coeffs[0, :, 1:]).any()
        nan_average = single_cell_field(1, [np.nan], [0.0], [2.5])
        with pytest.raises(RegionViolationError,
                           match=r"density nan not above eps \(cell 0\)"):
            limit_one(nan_average)

    def test_theta_in_unit_interval(self):
        rng = np.random.default_rng(23)
        fld = random_cells(rng, 500, 2, overshoot=1.0)
        _, rep = limit_field(fld, MESH4, REGION)
        assert rep.n_activated > 100
        assert np.all((0.0 < rep.theta) & (rep.theta <= 1.0))


class TestRescaling:
    """The rescaling about the cell mean that ``limit_field`` applies."""

    def test_identity(self):
        fld = single_cell_field(2, [1.0, 0.1, 0.02], [0.2, 0.05], [2.5, 0.1])
        coeffs, rep = limit_one(fld)
        assert rep.theta[0] == 1.0
        np.testing.assert_array_equal(coeffs, fld.coeffs)

    def test_scaling_about_mean(self):
        # density nodes -1 and 3 about the mean 1 are pulled to eps and 2
        coeffs, rep = limit_one(single_cell_field(1, *DENSITY_DIP))
        assert coeffs[0, 0, 1] == pytest.approx(rep.theta[0] * C1_DIP,
                                                rel=1e-15)
        V = basis_values(1, np.array([-0.5, 0.5]))
        np.testing.assert_allclose(V @ coeffs[0, 0], [0.0, 2.0], atol=1e-12)

    def test_average_untouched_bitwise(self):
        rng = np.random.default_rng(29)
        fld = random_cells(rng, 10, 3, overshoot=5.0)
        out, rep = limit_field(fld, MESH4, REGION)
        assert rep.n_activated > 0
        np.testing.assert_array_equal(out.averages(), fld.averages())

    def test_unknown_kind_is_refused(self):
        fld = single_cell_field(1, [1.0], [0.0], [2.5])
        with pytest.raises(ValueError, match="unknown limiter kind"):
            limit_one(fld, kind="tvb")


class TestLimitField:
    def test_admissible_field_untouched(self):
        rng = np.random.default_rng(31)
        fld = random_cells(rng, 20, 2, overshoot=0.01)
        out, rep = limit_field(fld, MESH4, REGION)
        np.testing.assert_array_equal(out.coeffs, fld.coeffs)
        assert rep.n_activated == 0
        assert np.all(rep.theta == 1.0)

    def test_none_kind_is_identity(self):
        rng = np.random.default_rng(37)
        fld = random_cells(rng, 8, 2, overshoot=10.0)
        out, rep = limit_field(fld, MESH4, REGION, LIMITER_NONE)
        np.testing.assert_array_equal(out.coeffs, fld.coeffs)
        assert rep.n_activated == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("kind", (LIMITER_NONE, LIMITER_POSITIVITY,
                                      LIMITER_IRP))
    def test_max_speed_only_when_no_cell_is_in_play(self, kind):
        rng = np.random.default_rng(43)
        quiet = random_cells(rng, 12, 2, overshoot=0.01)
        dip = quiet.copy()  # in play for every kind: a density node below 0
        dip.coeffs[5, 0, 1:] = [2.0 * dip.coeffs[5, 0, 0], 0.0]
        entropy = quiet.copy()  # in play for the irp kind only
        entropy.coeffs[3] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.5, 1.3, 0.0]]
        overflow = quiet.copy()  # node q overflows to +inf, left unchanged
        overflow.coeffs[7] = [[1e306, 0.0, 0.0], [0.0, 0.0, 0.0],
                              [2.5e306, 0.0, 0.0]]
        for fld in (quiet, dip, entropy, overflow):
            out, rep = limit_field(fld, MESH4, REGION, kind)
            in_play = (rep.rho_min < REGION.eps) | (rep.p_min < REGION.eps)
            if kind == LIMITER_IRP:
                in_play |= rep.q_max > Q_SLACK
            assert (rep.max_speed is None) == \
                (kind == LIMITER_NONE or in_play.any())
            if rep.max_speed is not None:
                np.testing.assert_array_equal(out.coeffs, fld.coeffs)
                rho, m, E = node_states(fld, REGION)
                p = (GAMMA - 1.0) * (E - 0.5 * m * m / rho)
                assert rep.max_speed == pytest.approx(
                    np.max(np.abs(m / rho) + np.sqrt(GAMMA * p / rho)))

    def test_input_not_mutated(self):
        rng = np.random.default_rng(41)
        fld = random_cells(rng, 8, 2, overshoot=10.0)
        before = fld.coeffs.copy()
        limit_field(fld, MESH4, REGION)
        np.testing.assert_array_equal(fld.coeffs, before)

    def test_jump_inside_cell_gets_limited(self):
        # N=25 puts the Lax interface x=0.02 strictly inside cell 12
        # (off-center, so the projection's Gibbs overshoot hits a test node)
        mesh = Mesh1D(-2.0, 2.0, 25, boundary="outflow")
        pl = 0.4 * (8.928 - 0.5 * 0.311**2 / 0.445)
        pr = 0.4 * 1.4275
        s0 = min(np.log(pl / 0.445**1.4), np.log(pr / 0.5**1.4))
        region = InvariantRegion(GAMMA, s0=s0)

        def w0(x):
            return np.stack([np.where(x < 0.02, 0.445, 0.5),
                             np.where(x < 0.02, 0.311, 0.0),
                             np.where(x < 0.02, 8.928, 1.4275)])

        fld = l2_project(w0, mesh, 2, n_quad=10)
        out, rep = limit_field(fld, mesh, region)
        assert rep.p_min[12] < 0.0  # overshoot past the right state
        assert rep.q_max[12] == np.inf  # sentinel where positivity fails
        assert rep.activated[12]
        assert 0.0 < rep.theta[12] < 1.0
        rho, p, q = _node_quantities_of(out, region)
        assert rho.min() >= region.eps
        assert p.min() >= region.eps
        assert q.max() <= Q_SLACK
        # single-pass sufficiency on this concrete cell
        again, rep2 = limit_field(out, mesh, region)
        assert rep2.n_activated == 0
        np.testing.assert_array_equal(again.coeffs, out.coeffs)

    def test_single_pass_sufficiency(self):
        rng = np.random.default_rng(43)
        fld = random_cells(rng, 50, 2, overshoot=2.0)
        once, rep1 = limit_field(fld, MESH4, REGION)
        twice, rep2 = limit_field(once, MESH4, REGION)
        assert rep1.n_activated > 0  # the overshoots actually engage it
        assert rep2.n_activated == 0
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_monotone_inclusion_below_theta(self):
        rng = np.random.default_rng(47)
        fld = random_cells(rng, 30, 2, overshoot=2.0)
        out, rep = limit_field(fld, MESH4, REGION)
        shrunk = out.copy()
        # any further shrink toward the (interior) average stays admissible
        shrunk.coeffs[:, :, 1:] *= rng.uniform(0.0, 1.0, (30, 1, 1))
        rho, p, q = _node_quantities_of(shrunk, REGION)
        assert rho.min() >= REGION.eps
        assert p.min() >= REGION.eps
        assert q.max() <= Q_SLACK

    def test_matches_scalar_compute_theta(self):
        # The vectorized pass must agree with the scalar per-cell formula
        # (``oracle_theta``) on every cell where the one-shot formula
        # applies (finite q extrema); cells with q-undefined nodes take the
        # sequential positivity-then-entropy route, so only their
        # positivity ratios are comparable.
        rng = np.random.default_rng(53)
        rule = default_rule(3)
        compared = 0
        for overshoot in (1.5, 0.3):  # sentinel-heavy and finite-q-heavy
            fld = random_cells(rng, 40, 3, overshoot=overshoot)
            out, rep = limit_field(fld, MESH4, REGION)
            V = basis_values(3, rule.nodes)
            for c in range(40):
                extrema = oracle_extrema(fld, c)
                theta, theta1, theta2, theta3 = oracle_theta(
                    fld.coeffs[c, :, 0], extrema)
                # report slots accumulate across repair rounds; a round-off
                # re-activation multiplies in a ratio of 1-O(1e-11), so the
                # comparison is against the one-shot value at that tolerance
                assert rep.theta1[c] == pytest.approx(theta1, rel=1e-9)
                assert rep.rho_min[c] == pytest.approx(extrema[0],
                                                       rel=1e-13, abs=1e-13)
                # the pressure formula only means anything where rho > 0;
                # cells with invalid-density nodes take extra repair rounds
                # the one-shot operation cannot see
                if np.all(V @ fld.coeffs[c, 0] > 0.0):
                    assert rep.theta2[c] == pytest.approx(theta2, rel=1e-9)
                if np.isfinite(extrema[2]):
                    compared += 1
                    combined = min(1.0, rep.theta1[c], rep.theta2[c],
                                   rep.theta3[c])
                    assert combined == pytest.approx(theta, rel=1e-9)
                    assert rep.theta3[c] == pytest.approx(theta3, rel=1e-9)
        assert compared >= 20  # the one-shot route is actually exercised

    def test_positivity_kind_leaves_entropy_violations(self):
        # strong entropy overshoot but positive rho, p everywhere
        fld = single_cell_field(2, [2.0, 0.3], [0.0], [3.0, -1.2])
        region = InvariantRegion(GAMMA, s0=-0.2)
        out, rep = limit_field(fld, MESH4.__class__(0.0, 1.0, 1), region,
                               LIMITER_POSITIVITY)
        assert rep.q_max[0] > Q_SLACK
        np.testing.assert_array_equal(out.coeffs, fld.coeffs)
        assert rep.n_activated == 0


def _node_quantities_of(fld, region):
    rule = default_rule(fld.degree)
    V = basis_values(fld.degree, rule.nodes)
    vals = np.einsum("cvj,nj->cvn", fld.coeffs, V)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    q = (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho
    return rho, p, q


class TestLemmaAveragingContraction:
    def test_dense_admissible_polynomials_have_interior_averages(self):
        rng = np.random.default_rng(59)
        dense = np.linspace(-0.5, 0.5, 33)
        V = basis_values(2, dense)
        kept = 0
        while kept < 1000:
            fld = random_cells(rng, 1, 2, overshoot=0.35)
            vals = np.einsum("cvj,nj->cvn", fld.coeffs, V)
            w = ConservedState(vals[0, 0], vals[0, 1], vals[0, 2])
            if not np.all(in_region(w, REGION)):
                continue
            kept += 1
            avg = ConservedState(*fld.coeffs[0, :, 0])
            assert in_region_interior(avg, REGION)
