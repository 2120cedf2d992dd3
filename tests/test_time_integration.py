"""SSP integrator and evolve-loop tests.

Scalar amplification factors are checked against hand-expanded Taylor
series; evolve-level behavior against conservation and admissibility
invariants.
"""

import numpy as np
import pytest

import irpdg.time_integration as ti
from irpdg.dg_space import DGField, Mesh1D, default_rule, \
    global_max_signal_speed, l2_project, spatial_operator
from irpdg.euler_core import InvariantRegion, PrimitiveState, to_conserved
from irpdg.harness import RunConfig, run
from irpdg.irp_limiter import RegionViolationError, limit_field
from irpdg.time_integration import (
    EvolveOptions,
    _dt_for_speed,
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


def wave_speed(fld):
    return global_max_signal_speed(fld, GAMMA)


class TestDtForSpeed:
    def test_reference_value(self):
        # k=2 -> 3 Lobatto points, w1 = 1/6; h=0.01; max speed 1
        fld = constant_field(100, 2, 1.0, 0.0, 1.0 / GAMMA)  # c = 1, u = 0
        dt = _dt_for_speed(wave_speed(fld), 0.01, 1.0, 1.0 / 6.0)
        assert dt == pytest.approx(0.01 / 12.0, rel=1e-12)

    def test_end_clipping(self):
        fld = constant_field(100, 2, 1.0, 0.0, 1.0 / GAMMA)
        dt = _dt_for_speed(wave_speed(fld), 0.01, 1.0, 1.0 / 6.0,
                           t=0.4995, t_final=0.5)
        assert dt == pytest.approx(0.0005, rel=1e-12)

    def test_doubling_h_doubles_dt(self):
        speed = wave_speed(constant_field(100, 2, 1.0, 0.5, 1.0))
        dt1 = _dt_for_speed(speed, Mesh1D(0, 1, 100).h, 0.8, 1.0 / 6.0)
        dt2 = _dt_for_speed(speed, Mesh1D(0, 1, 50).h, 0.8, 1.0 / 6.0)
        assert dt2 == pytest.approx(2 * dt1, rel=1e-12)

    def test_cfl_invariant_is_a_real_check(self):
        # nan energy slips past the wave speed's sign checks; the invariant
        # raises ValueError, which survives ``python -O`` unlike an assert
        fld = constant_field(4, 2, 1.0, 0.0, 1.0)
        fld.coeffs[2, 2, 0] = np.nan
        with pytest.raises(ValueError, match="CFL invariant violated"):
            _dt_for_speed(wave_speed(fld), 0.25, 1.0, 1.0 / 6.0)


def identity_limit(fld):
    """A limit that changes nothing and reports nothing."""
    return fld, None


class TestSspRk3:
    def test_zero_rhs_identity(self):
        fld = constant_field(4, 2, 1.0, 0.3, 2.0)
        out, reports = ssp_rk3_step(fld, 0.1, lambda f: np.zeros_like(f.coeffs),
                                    identity_limit)
        np.testing.assert_array_equal(out.coeffs, fld.coeffs)
        assert reports == [None] * 3

    def test_linear_amplification_third_order_taylor(self):
        # one step on w' = lam*w multiplies by 1 + z + z^2/2 + z^3/6
        lam, dt = -0.7, 0.31
        z = lam * dt
        fld = scalar_field(2.0)
        out, _ = ssp_rk3_step(fld, dt, lambda f: lam * f.coeffs,
                              identity_limit)
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
    def make_history(self, values, resids):
        """(coefficients, residual) pairs, oldest first."""
        return [(np.full((1, 3, 1), v), np.full((1, 3, 1), r))
                for v, r in zip(values, resids)]

    def step(self, history, dt):
        return ssp_ms3_step(*history[-1], *history[0], dt)

    def test_zero_rhs_convex_combination(self):
        hist = self.make_history([5.0, 1.0, 2.0, 3.0], [0, 0, 0, 0])
        out = self.step(hist, 0.1)
        assert out[0, 0, 0] == pytest.approx(16 / 27 * 3.0 + 11 / 27 * 5.0,
                                             rel=1e-14)

    def test_constant_state_fixed_point(self):
        hist = self.make_history([4.0, 4.0, 4.0, 4.0], [0, 0, 0, 0])
        out = self.step(hist, 0.05)
        assert out[0, 0, 0] == pytest.approx(4.0, rel=1e-15)

    def test_requires_full_history(self, monkeypatch):
        # the multistep update waits for four steps; RK3 takes the first three
        calls = {"rk3": 0, "ms3": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ti, "ssp_rk3_step", counted("rk3", ssp_rk3_step))
        monkeypatch.setattr(ti, "ssp_ms3_step", counted("ms3", ssp_ms3_step))
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region,
                     EvolveOptions(t_final=0.01, integrator="ms3"))
        steps = res.diagnostics[-1].step
        assert steps > 4
        assert calls == {"rk3": 3, "ms3": steps - 3}

    def test_linear_amplification_error_is_fourth_order(self):
        # exact-exponential history; the one-step defect against e^{4z}
        # shrinks ~16x when z halves (hand expansion: defect = (2/3) z^4)
        lam = 1.0

        def defect(z):
            dt = z / lam
            hist = self.make_history([np.exp(0.0), np.exp(z), np.exp(2 * z),
                                      np.exp(3 * z)],
                                     [lam * np.exp(0.0), lam * np.exp(z),
                                      lam * np.exp(2 * z), lam * np.exp(3 * z)])
            out = self.step(hist, dt)
            return abs(out[0, 0, 0] - np.exp(4 * z))

        d1, d2 = defect(0.02), defect(0.01)
        assert d1 / d2 == pytest.approx(16.0, rel=0.15)
        assert d1 == pytest.approx((2.0 / 3.0) * 0.02**4, rel=0.1)


def build_smooth_problem(n_cells, degree=2):
    mesh = Mesh1D(0.0, 1.0, n_cells)
    xs = np.linspace(0.0, 1.0, 4097)
    rho0 = lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)
    from irpdg.euler_core import entropy_floor_from_initial
    s0 = entropy_floor_from_initial(rho0, lambda x: np.ones_like(x), xs, GAMMA)
    region = InvariantRegion(GAMMA, s0=s0)
    fld = l2_project(smooth_advection_w0, mesh, degree)
    return fld, mesh, region


def plain_ms3(fld, mesh, t_final, cfl):
    """Unlimited multistep run: (final coefficients, frozen dt, steps)."""
    rule = default_rule(fld.degree)
    speed0 = global_max_signal_speed(fld, GAMMA)
    dt_raw = cfl * 0.5 * rule.weights[0] * mesh.h / speed0
    n = max(1, int(np.ceil(t_final / dt_raw - 1e-12)))
    dt = t_final / n
    w, history = fld.coeffs, []
    for k in range(n):
        alpha = global_max_signal_speed(DGField(fld.degree, w), GAMMA)

        def rhs(c):
            return spatial_operator(DGField(fld.degree, c), mesh, GAMMA, alpha)

        r = rhs(w)
        history.append((w, r))
        if k >= 3:
            w_old, r_old = history[k - 3]
            w = 16 / 27 * (w + 3 * dt * r) \
                + 11 / 27 * (w_old + 12 / 11 * dt * r_old)
        else:
            s1 = w + dt * r
            s2 = 0.75 * w + 0.25 * (s1 + dt * rhs(s1))
            w = (w + 2.0 * (s2 + dt * rhs(s2))) / 3.0
    return w, dt, n


class TestEvolve:
    def test_zero_final_time_returns_limited_projection(self):
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region, EvolveOptions(t_final=0.0))
        assert len(res.diagnostics) == 1
        from irpdg.irp_limiter import limit_field
        expected, _ = limit_field(fld, region)
        np.testing.assert_array_equal(res.final.coeffs, expected.coeffs)

    def test_records_take_an_overflowing_average_without_a_warning(self):
        # m * m overflows at cell 1's average, so its p is -inf, and the
        # minimum average entropy comes from the other cells
        fld, mesh, region = build_smooth_problem(4)
        fld.coeffs[1, 1, 0] = 1e200
        res = evolve(fld, mesh, region,
                     EvolveOptions(t_final=0.0, limiter_kind="none"))
        rec = res.diagnostics[0]
        assert rec.total_m == pytest.approx(1e200 * mesh.h, rel=1e-12)
        assert np.isfinite(rec.min_avg_entropy)

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
        # frozen-dt check partway through the run.  The check runs before
        # step 482 is taken, after 481 completed steps; the abort and its
        # message both name that count.
        fld, mesh, region = build_smooth_problem(16)
        with pytest.raises(RegionViolationError) as exc:
            evolve(fld, mesh, region,
                   EvolveOptions(t_final=1.0, integrator="ms3",
                                 cfl_fraction=0.9))
        assert exc.value.step == 481
        assert "CFL bound at step 481 " in str(exc.value)

    def test_ms3_zero_final_time_returns_limited_projection(self,
                                                            monkeypatch):
        # no step is taken, so no dt is frozen and no wave speed evaluated
        calls = []
        monkeypatch.setattr(ti, "global_max_signal_speed",
                            lambda *a: calls.append(a))
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region,
                     EvolveOptions(t_final=0.0, integrator="ms3"))
        expected, rep = limit_field(fld, region)
        np.testing.assert_array_equal(res.final.coeffs, expected.coeffs)
        np.testing.assert_array_equal(res.theta_last, rep.theta)
        assert [(d.step, d.t, d.dt) for d in res.diagnostics] == [(0, 0.0, 0.0)]
        assert calls == []

    def test_ms3_without_limiter_matches_the_plain_scheme(self):
        # limiter none with per_step placement: the bits of a multistep run
        # spelled out step by step, three RK3 steps then the two-term update
        fld, mesh, region = build_smooth_problem(16)
        res = evolve(fld, mesh, region,
                     EvolveOptions(t_final=0.02, integrator="ms3",
                                   limiter_kind="none", placement="per_step"))
        coeffs, dt, n = plain_ms3(fld, mesh, 0.02, 0.3)
        assert n > 4
        np.testing.assert_array_equal(res.final.coeffs, coeffs)
        assert [d.step for d in res.diagnostics] == list(range(n + 1))
        assert all(d.dt == dt and d.t == d.step * dt
                   for d in res.diagnostics[1:])
        assert all(d.min_theta == 1.0 and d.n_activated == 0
                   for d in res.diagnostics)
        assert np.all(res.theta_last == 1.0)

    def test_abort_in_the_initial_limit_reports_step_0(self):
        fld = constant_field(8, 2, 1.0, 0.0, 1.0)
        fld.coeffs[3, 2, 0] = -0.4 / (GAMMA - 1.0)  # average pressure -0.4
        with pytest.raises(RegionViolationError) as exc:
            evolve(fld, Mesh1D(0.0, 1.0, 8), InvariantRegion(GAMMA, s0=-1.0),
                   EvolveOptions(t_final=0.1))
        assert (exc.value.step, exc.value.cell) == (0, 3)
        assert "average pressure" in str(exc.value)

    def test_a_per_step_rk3_abort_notes_the_theory(self):
        # per_step placement leaves RK3's inner stages unlimited, outside
        # the IRP theory; the error says so for library callers too.  An
        # abort in the initial limit is not a step's and gets no note.
        left, right = PrimitiveState(1.0, -2.0, 0.4), \
            PrimitiveState(1.0, 2.0, 0.4)
        config = RunConfig(problem="custom-riemann", left=left, right=right,
                           domain=(-1.0, 1.0), t_final=0.15,
                           limiter_placement="per_step")
        with pytest.raises(RegionViolationError) as exc:
            run(config)
        assert (exc.value.step, exc.value.cell) == (13, 49)
        assert "outside the IRP theory" in exc.value.note
        assert "per_stage" in exc.value.note
        fld = constant_field(8, 2, 1.0, 0.0, 1.0)
        fld.coeffs[3, 2, 0] = -0.4 / (GAMMA - 1.0)
        with pytest.raises(RegionViolationError) as exc:
            evolve(fld, Mesh1D(0.0, 1.0, 8), InvariantRegion(GAMMA, s0=-1.0),
                   EvolveOptions(t_final=0.1, placement="per_step"))
        assert exc.value.step == 0 and exc.value.note is None

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
