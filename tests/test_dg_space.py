"""Mesh, quadrature, basis, projection and spatial-operator tests."""

import numpy as np
import pytest

from irpdg.dg_space import (
    DGField,
    INFLOW_OUTFLOW,
    Mesh1D,
    OUTFLOW,
    basis_values,
    evaluate_at_nodes,
    evaluate_at_x,
    gauss_legendre_rule,
    gauss_lobatto_rule,
    global_max_signal_speed,
    l2_project,
    spatial_operator,
)
from irpdg.dg_space import test_set_size as lobatto_point_count
from irpdg.euler_core import ConservedState, PrimitiveState, to_conserved

GAMMA = 1.4


def smooth_advection_w0(x):
    r = 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x, dtype=float))
    return np.stack([r, r, 0.5 * r + 2.5 * np.ones_like(r)])


def random_admissible_field(rng, mesh, degree, scale=0.05):
    n = mesh.n_cells
    coeffs = np.zeros((n, 3, degree + 1))
    rho = rng.uniform(0.5, 2.0, n)
    u = rng.uniform(-1.0, 1.0, n)
    p = rng.uniform(0.5, 2.0, n)
    w = to_conserved(PrimitiveState(rho, u, p), GAMMA)
    coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
    coeffs[:, :, 1:] = scale * rng.standard_normal((n, 3, degree))
    return DGField(degree, coeffs)


class TestGaussLobatto:
    def test_two_points_is_trapezoid(self):
        rule = gauss_lobatto_rule(2)
        np.testing.assert_allclose(rule.nodes, [-0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    def test_three_points(self):
        rule = gauss_lobatto_rule(3)
        np.testing.assert_allclose(rule.nodes, [-0.5, 0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], rtol=1e-14)

    def test_four_points(self):
        rule = gauss_lobatto_rule(4)
        inner = 1.0 / (2.0 * np.sqrt(5.0))
        np.testing.assert_allclose(rule.nodes, [-0.5, -inner, inner, 0.5],
                                   rtol=1e-14)
        np.testing.assert_allclose(rule.weights,
                                   [1 / 12, 5 / 12, 5 / 12, 1 / 12], rtol=1e-14)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_exactness_to_2n_minus_3(self, N):
        rule = gauss_lobatto_rule(N)
        for d in range(2 * N - 2):
            exact = (0.5**(d + 1) - (-0.5)**(d + 1)) / (d + 1)
            got = np.sum(rule.weights * rule.nodes**d)
            if d <= 2 * N - 3:
                assert got == pytest.approx(exact, abs=1e-15)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_endpoints_included(self):
        for N in range(2, 8):
            rule = gauss_lobatto_rule(N)
            assert rule.nodes[0] == -0.5 and rule.nodes[-1] == 0.5

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            gauss_lobatto_rule(1)


class TestGaussLegendre:
    def test_midpoint(self):
        rule = gauss_legendre_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-16)
        np.testing.assert_allclose(rule.weights, [1.0], atol=1e-16)

    def test_two_points(self):
        rule = gauss_legendre_rule(2)
        np.testing.assert_allclose(rule.nodes,
                                   [-1 / (2 * np.sqrt(3)), 1 / (2 * np.sqrt(3))],
                                   rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_exactness_to_2n_minus_1(self, n):
        rule = gauss_legendre_rule(n)
        for d in range(2 * n):
            exact = (0.5**(d + 1) - (-0.5)**(d + 1)) / (d + 1)
            assert np.sum(rule.weights * rule.nodes**d) == pytest.approx(exact, abs=1e-15)

    def test_quadratic_moment(self):
        for n in (2, 3, 5):
            rule = gauss_legendre_rule(n)
            assert np.sum(rule.weights * rule.nodes**2) == pytest.approx(1 / 12, rel=1e-14)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)


class TestTestSetSize:
    @pytest.mark.parametrize("k,expected", [(0, 2), (1, 2), (2, 3), (3, 3), (4, 4)])
    def test_values(self, k, expected):
        assert lobatto_point_count(k) == expected
        assert 2 * expected - 3 >= k

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            lobatto_point_count(-1)


class TestBasis:
    def test_orthonormal(self):
        rule = gauss_legendre_rule(12)
        V = basis_values(4, rule.nodes)
        M = np.einsum("qi,qj,q->ij", V, V, rule.weights)
        np.testing.assert_allclose(M, np.eye(5), atol=1e-13)

    def test_constant_mode_is_one(self):
        xi = np.linspace(-0.5, 0.5, 7)
        np.testing.assert_array_equal(basis_values(3, xi)[:, 0], np.ones(7))


class TestProjection:
    def test_constant_data(self):
        mesh = Mesh1D(0.0, 1.0, 5)
        fld = l2_project(lambda x: np.stack([np.full_like(x, 2.0),
                                             np.full_like(x, 0.5),
                                             np.full_like(x, 3.0)]), mesh, 2)
        assert np.allclose(fld.coeffs[:, 0, 0], 2.0, atol=1e-15)
        assert np.abs(fld.coeffs[:, :, 1:]).max() < 1e-14

    def test_linear_data_reproduced(self):
        mesh = Mesh1D(0.0, 1.0, 4)

        def w0(x):
            return np.stack([1.0 + 0.25 * x, 2.0 - x, 3.0 + 0.5 * x])

        fld = l2_project(w0, mesh, 1)
        xs = np.linspace(0, 1, 33)
        vals = evaluate_at_x(fld, mesh, xs)
        np.testing.assert_allclose(vals, w0(xs), rtol=1e-14, atol=1e-14)

    def test_smooth_advection_cell_averages(self):
        # analytic antiderivative: mean of rho over [x_i, x_{i+1}]
        mesh = Mesh1D(0.0, 1.0, 8)
        fld = l2_project(smooth_advection_w0, mesh, 2, n_quad=12)
        edges = mesh.edges()
        for i in range(8):
            exact = 1.0 - (np.cos(2 * np.pi * edges[i + 1])
                           - np.cos(2 * np.pi * edges[i])) / (4 * np.pi * mesh.h)
            assert fld.averages()[i, 0] == pytest.approx(exact, abs=1e-13)

    def test_default_quadrature_close(self):
        mesh = Mesh1D(0.0, 1.0, 8)
        fld = l2_project(smooth_advection_w0, mesh, 2)
        edges = mesh.edges()
        exact = 1.0 - (np.cos(2 * np.pi * edges[4]) -
                       np.cos(2 * np.pi * edges[3])) / (4 * np.pi * mesh.h)
        assert fld.averages()[3, 0] == pytest.approx(exact, abs=1e-6)

    def test_idempotent_on_dg_space(self):
        mesh = Mesh1D(0.0, 1.0, 6)
        fld = l2_project(smooth_advection_w0, mesh, 2)
        refld = l2_project(lambda x: evaluate_at_x(fld, mesh, x), mesh, 2)
        np.testing.assert_allclose(refld.coeffs, fld.coeffs, atol=1e-13)

    def test_too_few_quadrature_points(self):
        mesh = Mesh1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            l2_project(smooth_advection_w0, mesh, 2, n_quad=2)


class TestAveragesAndEvaluation:
    def test_average_of_pure_mode(self):
        coeffs = np.zeros((1, 3, 3))
        coeffs[0, :, 0] = [1.0, 0.5, 2.5]
        coeffs[0, 0, 1] = 0.7  # pure degree-1 content in rho
        fld = DGField(2, coeffs)
        assert fld.averages()[0].tolist() == [1.0, 0.5, 2.5]

    def test_average_matches_quadrature(self):
        mesh = Mesh1D(0.0, 1.0, 8)
        fld = l2_project(smooth_advection_w0, mesh, 2)
        rule = gauss_legendre_rule(6)
        vals = evaluate_at_nodes(fld, rule.nodes)
        quad_avg = np.einsum("cvn,n->cv", vals, rule.weights)
        np.testing.assert_allclose(quad_avg, fld.averages(), atol=1e-14)

    def test_linear_cell_endpoints(self):
        coeffs = np.zeros((1, 3, 2))
        coeffs[0, :, 0] = [1.0, 1.0, 1.0]
        coeffs[0, 0, 1] = 1.0 / (2.0 * np.sqrt(3.0))  # rho(xi) = 1 + xi
        fld = DGField(1, coeffs)
        rho = evaluate_at_nodes(fld, [-0.5, 0.5])[0, 0]
        np.testing.assert_allclose(rho, [0.5, 1.5], rtol=1e-14)

    def test_trace_equals_lobatto_endpoint_value(self):
        mesh = Mesh1D(0.0, 1.0, 4)
        fld = l2_project(smooth_advection_w0, mesh, 2)
        rule = gauss_lobatto_rule(lobatto_point_count(2))
        nodes_vals = evaluate_at_nodes(fld, rule.nodes)
        trace = fld.coeffs[2, 0] @ basis_values(2, 0.5)
        assert trace == pytest.approx(nodes_vals[2, 0, -1], rel=1e-15)


class TestSpatialOperator:
    def test_constant_periodic_steady(self):
        mesh = Mesh1D(0.0, 1.0, 8)
        coeffs = np.zeros((8, 3, 3))
        coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = 1.0, 0.3, 2.5
        resid = spatial_operator(DGField(2, coeffs), mesh, GAMMA, 2.0)
        assert np.abs(resid).max() < 1e-13

    def test_smooth_advection_residual_matches_flux_derivative(self):
        # For rho=1+sin(2 pi x)/2, u=1, p=1: F = (rho, rho+1, E+1), so the
        # cell-averaged residual is -(F(edge_R)-F(edge_L))/h for each variable.
        mesh = Mesh1D(0.0, 1.0, 32)
        fld = l2_project(smooth_advection_w0, mesh, 2, n_quad=8)
        resid = spatial_operator(fld, mesh, GAMMA, 2.674)
        edges = mesh.edges()
        rho_e = 1.0 + 0.5 * np.sin(2 * np.pi * edges)
        E_e = 0.5 * rho_e + 2.5
        F = np.stack([rho_e, rho_e + 1.0, E_e + 1.0])
        expected = -(F[:, 1:] - F[:, :-1]) / mesh.h
        got = resid[:, :, 0].T
        assert np.abs(got - expected).max() < 2e-2  # O(h^2) class at N=32

    def test_discrete_conservation_periodic(self):
        rng = np.random.default_rng(17)
        mesh = Mesh1D(0.0, 1.0, 16)
        for _ in range(10):
            fld = random_admissible_field(rng, mesh, 2)
            resid = spatial_operator(fld, mesh, GAMMA, 4.0)
            totals = np.abs(resid[:, :, 0].sum(axis=0) * mesh.h)
            assert totals.max() < 1e-12

    def test_outflow_constant_steady(self):
        mesh = Mesh1D(-1.0, 1.0, 6, boundary=OUTFLOW)
        coeffs = np.zeros((6, 3, 2))
        coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = 0.5, 0.0, 1.4275
        resid = spatial_operator(DGField(1, coeffs), mesh, GAMMA, 2.0)
        assert np.abs(resid).max() < 1e-14

    def test_inflow_ghost_steady(self):
        mesh = Mesh1D(-1.0, 1.0, 6, boundary=INFLOW_OUTFLOW)
        w = to_conserved(PrimitiveState(3.857143, 2.629369, 10.3333), GAMMA)
        coeffs = np.zeros((6, 3, 2))
        coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
        resid = spatial_operator(DGField(1, coeffs), mesh, GAMMA, 5.0,
                                 inflow_left=w)
        assert np.abs(resid).max() < 1e-12

    def test_inflow_requires_ghost_state(self):
        mesh = Mesh1D(-1.0, 1.0, 4, boundary=INFLOW_OUTFLOW)
        fld = DGField(1, np.ones((4, 3, 2)))
        with pytest.raises(ValueError):
            spatial_operator(fld, mesh, GAMMA, 1.0)

    def test_zero_density_reports_cell(self):
        mesh = Mesh1D(0.0, 1.0, 4)
        coeffs = np.zeros((4, 3, 1))
        coeffs[:, 0, 0] = [1.0, 1.0, 0.0, 1.0]
        coeffs[:, 2, 0] = 2.5
        with pytest.raises(ZeroDivisionError, match="cell 2"):
            spatial_operator(DGField(0, coeffs), mesh, GAMMA, 1.0)

    def test_mismatched_mesh(self):
        mesh = Mesh1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            spatial_operator(DGField(1, np.ones((5, 3, 2))), mesh, GAMMA, 1.0)


def one_state_speed(w):
    """global_max_signal_speed of a one-cell field holding the state w."""
    coeffs = np.zeros((1, 3, 2))
    coeffs[0, :, 0] = w
    return global_max_signal_speed(DGField(1, coeffs), GAMMA,
                                   gauss_lobatto_rule(2))


class TestGlobalMaxSpeed:
    def test_constant_field_value(self):
        mesh = Mesh1D(0.0, 1.0, 3)
        w = to_conserved(PrimitiveState(1.0, 0.0, 1.0), GAMMA)
        coeffs = np.zeros((3, 3, 2))
        coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
        rule = gauss_lobatto_rule(2)
        speed = global_max_signal_speed(DGField(1, coeffs), GAMMA, rule)
        assert speed == pytest.approx(np.sqrt(1.4), rel=1e-14)

    def test_cold_gas_moves_at_its_velocity(self):
        w = to_conserved(PrimitiveState(1.0, 1.0, 0.0), GAMMA)
        assert one_state_speed(w) == pytest.approx(1.0, rel=1e-14)

    def test_lax_left_state_hand_value(self):
        w = ConservedState(0.445, 0.311, 8.928)
        p = 0.4 * (8.928 - 0.5 * 0.311**2 / 0.445)
        expected = 0.311 / 0.445 + np.sqrt(GAMMA * p / 0.445)
        assert one_state_speed(w) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(4.0303, abs=1e-3)

    def test_speed_invariant_under_state_scaling(self):
        w = to_conserved(PrimitiveState(1.3, 0.7, 2.1), GAMMA)
        w2 = ConservedState(2 * w.rho, 2 * w.m, 2 * w.E)  # doubles rho and p
        assert one_state_speed(w2) == pytest.approx(one_state_speed(w),
                                                    rel=1e-14)

    def test_negative_pressure_reports_cell(self):
        coeffs = np.zeros((2, 3, 1))
        coeffs[:, 0, 0] = 1.0
        coeffs[:, 1, 0] = [0.0, 5.0]
        coeffs[:, 2, 0] = 2.5
        rule = gauss_lobatto_rule(2)
        with pytest.raises(ValueError, match="cell 1"):
            global_max_signal_speed(DGField(0, coeffs), GAMMA, rule)


class TestMesh:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh1D(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Mesh1D(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Mesh1D(0.0, 1.0, 4, boundary="reflecting")

    def test_geometry(self):
        mesh = Mesh1D(-2.0, 2.0, 100)
        assert mesh.h == pytest.approx(0.04)
        np.testing.assert_allclose(mesh.edges()[[0, -1]], [-2.0, 2.0])
        assert len(mesh.cell_centers()) == 100
