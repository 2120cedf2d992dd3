"""SSP integrator and evolve-loop tests.

Scalar amplification factors are checked against hand-expanded Taylor
series; evolve-level behavior against conservation and admissibility
invariants.
"""

import numpy as np
import pytest

from irpdg.dg_space import DGField, Mesh1D, l2_project
from irpdg.euler_core import InvariantRegion, PrimitiveState, to_conserved
from irpdg.irp_limiter import RegionViolationError
from irpdg.time_integration import (
    EvolveOptions,
    MultistepHistory,
    TimeController,
    compute_dt,
    evolve,
    ssp_ms3_step,
    ssp_rk3_step,
)

GAMMA = 1.4


def constant_field(n_cells, degree, rho, u, p):
    w = to_conserved(PrimitiveState(rho, u, p), GAMMA)
    coeffs = np.zeros((n_cells, 3, degree + 1))
    coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
    return DGField(degree, coeffs)


def smooth_advection_w0(x):
    r = 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x, dtype=float))
    return np.stack([r, r, 0.5 * r + 2.5 * np.ones_like(r)])


def scalar_field(value):
    coeffs = np.zeros((1, 3, 1))
    coeffs[0, :, 0] = value
    return DGField(0, coeffs)


class TestComputeDt:
    def test_reference_value(self):
        # k=2 -> 3 Lobatto points, w1 = 1/6; h=0.01; max speed 1
        mesh = Mesh1D(0.0, 1.0, 100)
        fld = constant_field(100, 2, 1.0, 0.0, 1.0 / GAMMA)  # c = 1, u = 0
        ctrl = TimeController(cfl_fraction=1.0, w_hat_1=1.0 / 6.0)
        dt = compute_dt(fld, mesh, ctrl, GAMMA)
        assert dt == pytest.approx(0.01 / 12.0, rel=1e-12)

    def test_end_clipping(self):
        mesh = Mesh1D(0.0, 1.0, 100)
        fld = constant_field(100, 2, 1.0, 0.0, 1.0 / GAMMA)
        ctrl = TimeController(cfl_fraction=1.0, w_hat_1=1.0 / 6.0, t=0.4995)
        dt = compute_dt(fld, mesh, ctrl, GAMMA, t_final=0.5)
        assert dt == pytest.approx(0.0005, rel=1e-12)

    def test_doubling_h_doubles_dt(self):
        ctrl = TimeController(cfl_fraction=0.8, w_hat_1=1.0 / 6.0)
        dt1 = compute_dt(constant_field(100, 2, 1.0, 0.5, 1.0), Mesh1D(0, 1, 100),
                         ctrl, GAMMA)
        dt2 = compute_dt(constant_field(50, 2, 1.0, 0.5, 1.0), Mesh1D(0, 1, 50),
                         ctrl, GAMMA)
        assert dt2 == pytest.approx(2 * dt1, rel=1e-12)

    def test_cfl_invariant_is_a_real_check(self):
        # nan energy slips past the wave speed's sign checks; the invariant
        # raises ValueError, which survives ``python -O`` unlike an assert
        fld = constant_field(4, 2, 1.0, 0.0, 1.0)
        fld.coeffs[2, 2, 0] = np.nan
        ctrl = TimeController(cfl_fraction=1.0, w_hat_1=1.0 / 6.0)
        with pytest.raises(ValueError, match="CFL invariant violated"):
            compute_dt(fld, Mesh1D(0.0, 1.0, 4), ctrl, GAMMA)


class TestSspRk3:
    def test_zero_rhs_identity(self):
        fld = constant_field(4, 2, 1.0, 0.3, 2.0)
        out, reports = ssp_rk3_step(fld, 0.1, lambda f: np.zeros_like(f.coeffs))
        np.testing.assert_array_equal(out.coeffs, fld.coeffs)
        assert reports == []

    def test_linear_amplification_third_order_taylor(self):
        # one step on w' = lam*w multiplies by 1 + z + z^2/2 + z^3/6
        lam, dt = -0.7, 0.31
        z = lam * dt
        fld = scalar_field(2.0)
        out, _ = ssp_rk3_step(fld, dt, lambda f: lam * f.coeffs)
        expected = (1 + z + z**2 / 2 + z**3 / 6) * 2.0
        assert out.coeffs[0, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_stage_count_with_limiter(self):
        calls = []

        def fake_limit(f):
            calls.append(1)
            return f, None

        fld = scalar_field(1.0)
        ssp_rk3_step(fld, 0.1, lambda f: np.zeros_like(f.coeffs),
                     limit=fake_limit, per_stage=True)
        assert len(calls) == 3
        calls.clear()
        ssp_rk3_step(fld, 0.1, lambda f: np.zeros_like(f.coeffs),
                     limit=fake_limit, per_stage=False)
        assert len(calls) == 1  # only the assembled step


class TestSspMs3:
    def make_history(self, values, resids, dt):
        hist = MultistepHistory()
        for v, r in zip(values, resids):
            coeffs = np.zeros((1, 3, 1))
            coeffs[0, :, 0] = v
            hist.push(DGField(0, coeffs), np.full((1, 3, 1), r), dt)
        return hist

    def test_zero_rhs_convex_combination(self):
        hist = self.make_history([5.0, 1.0, 2.0, 3.0], [0, 0, 0, 0], 0.1)
        out = ssp_ms3_step(hist, 0.1)
        assert out.coeffs[0, 0, 0] == pytest.approx(16 / 27 * 3.0 + 11 / 27 * 5.0,
                                                    rel=1e-14)

    def test_constant_state_fixed_point(self):
        hist = self.make_history([4.0, 4.0, 4.0, 4.0], [0, 0, 0, 0], 0.05)
        out = ssp_ms3_step(hist, 0.05)
        assert out.coeffs[0, 0, 0] == pytest.approx(4.0, rel=1e-15)

    def test_requires_full_history(self):
        hist = self.make_history([1.0, 2.0], [0, 0], 0.1)
        with pytest.raises(ValueError):
            ssp_ms3_step(hist, 0.1)

    def test_rejects_nonconstant_dt(self):
        hist = MultistepHistory()
        for i, dt in enumerate([0.1, 0.1, 0.05, 0.1]):
            coeffs = np.zeros((1, 3, 1))
            coeffs[0, :, 0] = float(i)
            hist.push(DGField(0, coeffs), np.zeros((1, 3, 1)), dt)
        with pytest.raises(ValueError):
            ssp_ms3_step(hist, 0.1)

    def test_linear_amplification_error_is_fourth_order(self):
        # exact-exponential history; the one-step defect against e^{4z}
        # shrinks ~16x when z halves (hand expansion: defect = (2/3) z^4)
        lam = 1.0

        def defect(z):
            dt = z / lam
            hist = self.make_history([np.exp(0.0), np.exp(z), np.exp(2 * z),
                                      np.exp(3 * z)],
                                     [lam * np.exp(0.0), lam * np.exp(z),
                                      lam * np.exp(2 * z), lam * np.exp(3 * z)],
                                     dt)
            out = ssp_ms3_step(hist, dt)
            return abs(out.coeffs[0, 0, 0] - np.exp(4 * z))

        d1, d2 = defect(0.02), defect(0.01)
        assert d1 / d2 == pytest.approx(16.0, rel=0.15)
        assert d1 == pytest.approx((2.0 / 3.0) * 0.02**4, rel=0.1)

    def test_history_ring_buffer_depth(self):
        hist = self.make_history([1, 2, 3, 4, 5, 6], [0] * 6, 0.1)
        assert len(hist.fields) == 4
        assert hist.fields[0].coeffs[0, 0, 0] == 3.0


def build_smooth_problem(n_cells, degree=2):
    mesh = Mesh1D(0.0, 1.0, n_cells)
    xs = np.linspace(0.0, 1.0, 4097)
    rho0 = lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)
    from irpdg.euler_core import entropy_floor_from_initial
    s0 = entropy_floor_from_initial(rho0, lambda x: np.ones_like(x), xs, GAMMA)
    region = InvariantRegion(GAMMA, s0=s0)
    fld = l2_project(smooth_advection_w0, mesh, degree)
    return fld, mesh, region


class TestEvolve:
    def test_zero_final_time_returns_limited_projection(self):
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=0.0))
        assert len(res.diagnostics) == 1
        from irpdg.irp_limiter import limit_field
        expected, _ = limit_field(fld, mesh, region)
        np.testing.assert_array_equal(res.final.coeffs, expected.coeffs)

    def test_smooth_advection_error_magnitude(self):
        # P2, 8 cells, RK3 to T=1; L1 density error lands in the few-e-4..e-3
        # class for this resolution
        fld, mesh, region = build_smooth_problem(8)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=1.0))
        from irpdg.harness import error_norms
        _, l1 = error_norms(res.final, mesh,
                            lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * (x - 1.0)))
        assert 1e-4 < l1 < 5e-3

    def test_conservation_periodic(self):
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=0.3))
        d0, dN = res.diagnostics[0], res.diagnostics[-1]
        assert dN.step > 100
        for a, b in [(d0.total_rho, dN.total_rho), (d0.total_m, dN.total_m),
                     (d0.total_E, dN.total_E)]:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_entropy_floor_respected(self):
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=0.5))
        assert res.min_avg_entropy >= region.s0 - 1e-10

    def test_final_time_hit_exactly(self):
        fld, mesh, region = build_smooth_problem(8)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=0.123))
        assert res.diagnostics[-1].t == pytest.approx(0.123, abs=1e-12)

    def test_ms3_constant_dt_and_bootstrap(self):
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region,
                     EvolveOptions(t_final=0.2, integrator="ms3"))
        dts = {d.dt for d in res.diagnostics[1:]}
        assert len(dts) == 1  # frozen step
        assert res.diagnostics[-1].t == pytest.approx(0.2, rel=1e-12)

    def test_ms3_cfl_abort_on_overrun(self):
        # cfl 0.9 exceeds the multistep SSP bound; speed growth trips the
        # frozen-dt check partway through the run
        fld, mesh, region = build_smooth_problem(16)
        with pytest.raises(RegionViolationError) as exc:
            evolve(fld, mesh, region,
                   EvolveOptions(t_final=1.0, integrator="ms3",
                                 cfl_fraction=0.9))
        assert exc.value.step is not None

    def test_abort_in_the_initial_limit_reports_step_0(self):
        fld = constant_field(8, 2, 1.0, 0.0, 1.0)
        fld.coeffs[3, 2, 0] = -0.4 / (GAMMA - 1.0)  # average pressure -0.4
        with pytest.raises(RegionViolationError) as exc:
            evolve(fld, Mesh1D(0.0, 1.0, 8), InvariantRegion(GAMMA, s0=-1.0),
                   EvolveOptions(t_final=0.1))
        assert (exc.value.step, exc.value.cell) == (0, 3)
        assert "average pressure" in str(exc.value)

    def test_unknown_integrator(self):
        fld, mesh, region = build_smooth_problem(8)
        with pytest.raises(ValueError):
            evolve(fld, mesh, region, EvolveOptions(t_final=0.1,
                                                    integrator="euler"))

    def test_negative_final_time(self):
        fld, mesh, region = build_smooth_problem(8)
        with pytest.raises(ValueError):
            evolve(fld, mesh, region, EvolveOptions(t_final=-1.0))

    def test_theta_last_shape(self):
        fld, mesh, region = build_smooth_problem(8)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=0.05))
        assert res.theta_last.shape == (8,)
        assert np.all((0 < res.theta_last) & (res.theta_last <= 1.0))
