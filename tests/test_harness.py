"""Harness tests: presets, error norms, CSV formats, CLI behavior."""

import decimal
import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import irpdg.cli
import irpdg.harness
from irpdg.cli import _build_config, build_parser, main as cli_main
from irpdg.dg_space import DGField, Mesh1D, l2_project, spatial_operator
from irpdg.euler_core import ConservedState, PrimitiveState, to_primitive
from irpdg.harness import (
    ConfigError,
    RunConfig,
    convergence_study,
    emit_solution_csv,
    emit_table_csv,
    error_norms,
    fine_grid_reference,
    preset,
    run,
    shock_position,
    total_variation_of_density,
)
from irpdg.riemann_exact import RiemannProblem, sample_primitives, \
    solve_star

GAMMA = 1.4
PRESET_GAMMAS = (1.4, 5.0 / 3.0, 1.2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def preset_points(domain, x0, n=10_000):
    """n points across the domain and past it, the edges of a 100-cell mesh,
    x0 and its neighbours, and both zeros."""
    a, b = domain
    return np.concatenate([
        np.linspace(a - 0.5, b + 0.5, n), Mesh1D(a, b, 100).edges(),
        [x0, np.nextafter(x0, -np.inf), np.nextafter(x0, np.inf), 0.0, -0.0]])


def oracle_conserved(state, gamma):
    """(rho, m, E) of one float state, with the kinetic term as u * u."""
    rho, u, p = state
    return rho, rho * u, 0.5 * rho * (u * u) + p / (gamma - 1.0)


def assert_riemann_preset_data(pre, left, right, gamma, x0, xs, sampled=None):
    """The shock tube's data as its preset wrote them: the conserved left and
    right states picked at x0, and the exact solver's density."""
    pick = xs < x0
    assert same_bits(pre.w0(xs), np.stack([
        np.where(pick, wl, wr) for wl, wr in zip(
            oracle_conserved(left, gamma), oracle_conserved(right, gamma))]))
    for name, value in zip(("rho0", "u0", "p0"), zip(left, right)):
        assert same_bits(getattr(pre, name)(xs), np.where(pick, *value))
    assert same_bits(pre.exact(xs, 0.0), pre.rho0(xs))
    problem = RiemannProblem(left, right, gamma, x0)
    xs = xs[:sampled]
    for t in (0.1, 0.5):
        assert same_bits(pre.exact(xs, t), sample_primitives(
            problem, solve_star(problem), (xs - x0) / t)[0])


class TestPresets:
    def test_smooth_advection_exact_density(self):
        pre = preset("smooth_advection")
        # at x=0.25, t=0.25 the exact density is 1 + sin(0)/2 = 1
        assert 1.0 + 0.5 * math.sin(2 * math.pi * (0.25 - 0.25)) == 1.0
        w = pre.w0(np.array([0.25]))
        assert w[0, 0] == pytest.approx(1.5, rel=1e-14)  # initial peak
        assert pre.boundary == "periodic"
        assert pre.default_t_final == 1.0

    def test_lax_left_primitive_conversion(self):
        pre = preset("lax")
        left = PrimitiveState(*(float(f(-1.0))
                                for f in (pre.rho0, pre.u0, pre.p0)))
        assert left.rho == pytest.approx(0.445, rel=1e-14)
        assert left.u == pytest.approx(0.311 / 0.445, rel=1e-14)
        assert left.p == pytest.approx(0.4 * (8.928 - 0.5 * 0.311**2 / 0.445),
                                       rel=1e-14)
        assert pre.domain == (-2.0, 2.0)
        assert pre.default_t_final == 0.5

    def test_shu_osher_values(self):
        pre = preset("shu_osher")
        w = pre.w0(np.array([0.0, -4.5]))
        assert w[0, 0] == pytest.approx(1.0, rel=1e-14)  # 1 + 0.2 sin 0
        assert w[0, 1] == pytest.approx(3.857143, rel=1e-14)
        assert pre.inflow is not None
        assert pre.default_t_final == 1.8

    def test_custom_riemann_needs_states(self):
        with pytest.raises(ConfigError):
            preset("custom-riemann")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("blast_wave")

    @pytest.mark.parametrize("gamma", PRESET_GAMMAS)
    def test_smooth_advection_data_as_written_per_preset(self, gamma):
        pre = preset("smooth_advection", gamma)
        xs = preset_points(pre.domain, 0.0)
        rho = 1.0 + 0.5 * np.sin(2.0 * np.pi * xs)
        assert same_bits(pre.w0(xs), np.stack(
            [rho, rho * 1.0, 0.5 * rho * 1.0**2 + 1.0 / (gamma - 1.0)]))
        for t in (0.0, 0.25, 1.0):
            assert same_bits(pre.exact(xs, t),
                             1.0 + 0.5 * np.sin(2.0 * np.pi * (xs - t)))

    @pytest.mark.parametrize("gamma", PRESET_GAMMAS)
    def test_lax_data_as_written_per_preset(self, gamma):
        pre = preset("lax", gamma)
        left = to_primitive(ConservedState(0.445, 0.311, 8.928), gamma)
        right = to_primitive(ConservedState(0.5, 0.0, 1.4275), gamma)
        # the presets' velocities square to the same bits through pow
        assert left.u**2 == left.u * left.u
        assert_riemann_preset_data(pre, left, right, gamma, 0.0,
                                   preset_points(pre.domain, 0.0))

    @pytest.mark.parametrize("gamma", PRESET_GAMMAS)
    def test_shu_osher_data_as_written_per_preset(self, gamma):
        pre = preset("shu_osher", gamma)
        xs = preset_points(pre.domain, -4.0)
        inflow = xs < -4.0
        rho = np.where(inflow, 3.857143, 1.0 + 0.2 * np.sin(5.0 * xs))
        u = np.where(inflow, 2.629369, 0.0)
        p = np.where(inflow, 10.3333, 1.0)
        assert 2.629369**2 == 2.629369 * 2.629369
        assert same_bits(pre.w0(xs), np.stack(
            [rho, rho * u, 0.5 * rho * u**2 + p / (gamma - 1.0)]))
        assert same_bits(np.array(pre.inflow), np.array(
            oracle_conserved(PrimitiveState(3.857143, 2.629369, 10.3333),
                             gamma)))
        assert pre.exact is None

    def test_custom_riemann_data_as_written_per_preset(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            gamma = float(rng.choice(PRESET_GAMMAS))
            left, right = (PrimitiveState(rng.uniform(0.5, 5.0),
                                          rng.uniform(-0.5, 0.5),
                                          rng.uniform(0.5, 5.0))
                           for _ in range(2))
            x0 = rng.uniform(-0.5, 0.5)
            pre = preset("custom-riemann", gamma, left, right, x0)
            assert_riemann_preset_data(pre, left, right, gamma, x0,
                                       preset_points(pre.domain, x0, 40),
                                       sampled=8)


class TestRunConfigValidation:
    def test_degree_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="lax", degree=4).validate()

    def test_unknown_limiter(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="lax", limiter="tvb").validate()

    def test_valid_config_passes(self):
        RunConfig(problem="smooth_advection").validate()

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.nan), ("epsilon", math.inf), ("cfl_fraction", math.nan),
        ("t_final", math.inf), ("cfl_fraction", 0.0), ("cfl_fraction", -0.5)])
    def test_rejects_nonfinite_and_nonpositive_cfl(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(problem="lax", **{field: value}).validate()

    @pytest.mark.parametrize("side, state", [
        ("left", (1.0, 0.0, 0.0)), ("right", (1.0, 0.0, -1.0)),
        ("left", (0.0, 0.0, 1.0)), ("right", (-0.1, 0.0, 1.0)),
        ("left", (math.nan, 0.0, 1.0)), ("right", (1.0, math.inf, 1.0)),
        ("left", (1.0, 0.0, math.inf))])
    def test_rejects_custom_riemann_states_outside_the_region(self, side,
                                                              state):
        states = {"left": PrimitiveState(1.0, 0.0, 1.0),
                  "right": PrimitiveState(0.125, 0.0, 0.1)}
        states[side] = PrimitiveState(*state)
        with pytest.raises(ConfigError, match=side):
            RunConfig(problem="custom-riemann", **states).validate()

    @pytest.mark.parametrize("domain", [
        (1.0, -1.0), (1.0, 1.0), (math.nan, 1.0), (0.0, math.inf),
        (-math.inf, 0.0)])
    def test_rejects_domains_that_are_not_finite_and_increasing(self, domain):
        with pytest.raises(ConfigError, match="domain"):
            RunConfig(problem="lax", domain=domain).validate()

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_rejects_nonfinite_x0(self, x0):
        with pytest.raises(ConfigError, match="x0"):
            RunConfig(problem="custom-riemann", x0=x0,
                      left=PrimitiveState(1.0, 0.0, 1.0),
                      right=PrimitiveState(0.125, 0.0, 0.1)).validate()


class TestErrorNorms:
    def setup_method(self):
        self.mesh = Mesh1D(0.0, 1.0, 16)

        def w0(x):
            r = 1.0 + 0.5 * np.sin(2 * np.pi * x)
            return np.stack([r, r, 0.5 * r + 2.5 * np.ones_like(r)])

        self.fld = l2_project(w0, self.mesh, 2)

    def test_field_against_itself_is_zero(self):
        from irpdg.dg_space import evaluate_at_x
        ref = lambda x: evaluate_at_x(self.fld, self.mesh, x)[0]
        linf, l1 = error_norms(self.fld, self.mesh, ref)
        # reference evaluated through a different (per-point) basis path;
        # agreement is to round-off, not bitwise
        assert linf < 1e-14 and l1 < 1e-14

    def test_constant_offset(self):
        delta = 0.037
        from irpdg.dg_space import evaluate_at_x
        ref = lambda x: evaluate_at_x(self.fld, self.mesh, x)[0] + delta
        linf, l1 = error_norms(self.fld, self.mesh, ref)
        assert linf == pytest.approx(delta, rel=1e-12)
        assert l1 == pytest.approx(delta, rel=1e-12)


class TestConvergenceStudy:
    def test_structure_and_orders(self):
        cfg = RunConfig(problem="smooth_advection", degree=1, t_final=0.1)
        rows = convergence_study(cfg, [8, 16, 32])
        assert rows[0].order_l1 is None and rows[0].order_linf is None
        assert rows[1].order_l1 is not None
        assert [r.n_cells for r in rows] == [8, 16, 32]
        assert rows[2].error_l1 < rows[1].error_l1 < rows[0].error_l1

    def test_rejects_non_doubling_counts(self):
        cfg = RunConfig(problem="smooth_advection")
        with pytest.raises(ConfigError):
            convergence_study(cfg, [8, 24])
        with pytest.raises(ConfigError):
            convergence_study(cfg, [8])

    def test_a_zero_density_division_is_a_failed_row(self, monkeypatch):
        run_ = irpdg.harness.run

        def run_or_divide_by_zero(cfg):
            if cfg.n_cells == 16:
                raise ZeroDivisionError("zero density at a cell interface trace")
            return run_(cfg)

        monkeypatch.setattr(irpdg.harness, "run", run_or_divide_by_zero)
        cfg = RunConfig(problem="smooth_advection", degree=1, t_final=0.05)
        rows = convergence_study(cfg, [8, 16])
        assert rows[0].note == ""
        assert rows[1].note == "failed: zero density at a cell interface trace"

    def test_first_order_diagnostic_mode(self):
        # k=0 forward-Euler build: LF finite volume, order ~1 in L1
        errors = {}
        for n in (64, 128, 256):
            mesh = Mesh1D(0.0, 1.0, n)

            def w0(x):
                r = 1.0 + 0.5 * np.sin(2 * np.pi * x)
                return np.stack([r, r, 0.5 * r + 2.5 * np.ones_like(r)])

            fld = l2_project(w0, mesh, 0)
            t, T = 0.0, 0.1
            while t < T - 1e-12:
                from irpdg.dg_space import global_max_signal_speed
                speed = global_max_signal_speed(fld, GAMMA)
                dt = min(0.25 * mesh.h / speed, T - t)
                fld = DGField(0, fld.coeffs
                              + dt * spatial_operator(fld, mesh, GAMMA, speed))
                t += dt
            _, l1 = error_norms(fld, mesh,
                                lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * (x - T)))
            errors[n] = l1
        order1 = math.log2(errors[64] / errors[128])
        order2 = math.log2(errors[128] / errors[256])
        assert order1 == pytest.approx(1.0, abs=0.2)
        assert order2 == pytest.approx(1.0, abs=0.2)


class TestShockDiagnostics:
    def test_shock_position_on_step_profile(self):
        mesh = Mesh1D(0.0, 1.0, 10)
        coeffs = np.zeros((10, 3, 1))
        coeffs[:, 0, 0] = np.where(np.arange(10) < 6, 2.0, 1.0)
        coeffs[:, 2, 0] = 5.0
        fld = DGField(0, coeffs)
        assert shock_position(fld, mesh) == pytest.approx(0.6, rel=1e-12)

    def test_total_variation_monotone_profile(self):
        mesh = Mesh1D(0.0, 1.0, 5)
        coeffs = np.zeros((5, 3, 1))
        coeffs[:, 0, 0] = [1.0, 2.0, 3.0, 2.5, 2.0]
        fld = DGField(0, coeffs)
        assert total_variation_of_density(fld) == pytest.approx(3.0, rel=1e-14)


class TestCsvOutput:
    def test_solution_csv_round_trip(self, tmp_path):
        cfg = RunConfig(problem="smooth_advection", degree=2, n_cells=8,
                        t_final=0.05)
        out = run(cfg)
        path = emit_solution_csv(out, str(tmp_path / "sol.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "x,rho,u,p,E,s,q,theta_last"
        assert len(lines) == 1 + 8 * 3  # three Lobatto nodes per cell
        # parsing and re-printing reproduces the text bitwise
        for line in lines[1:3]:
            vals = [float(tok) for tok in line.split(",")]
            assert ",".join(f"{v:.12g}" for v in vals) == line

    def test_table_csv(self, tmp_path):
        cfg = RunConfig(problem="smooth_advection", degree=1, t_final=0.05)
        rows = convergence_study(cfg, [8, 16])
        path = emit_table_csv(rows, str(tmp_path / "table.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "n_cells,error_linf,order_linf,error_l1,order_l1,note"
        assert lines[1].split(",")[2] == ""  # first row has no order
        assert len(lines) == 3

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IRPDG_OUTPUT_DIR", str(tmp_path))
        cfg = RunConfig(problem="smooth_advection", degree=1, n_cells=4,
                        t_final=0.0)
        out = run(cfg)
        path = emit_solution_csv(out, "relative.csv")
        assert path == str(tmp_path / "relative.csv")
        assert os.path.exists(path)

    def test_determinism(self, tmp_path):
        cfg = RunConfig(problem="lax", degree=2, n_cells=20, t_final=0.05)
        p1 = emit_solution_csv(run(cfg), str(tmp_path / "a.csv"))
        p2 = emit_solution_csv(run(cfg), str(tmp_path / "b.csv"))
        assert open(p1, "rb").read() == open(p2, "rb").read()


def assert_exits_2_at_once(argv, tmp_path):
    """Run the CLI in a subprocess with a timeout: exit 2 in under a second,
    one ``error:`` line on stderr and no output file."""
    code = ("import sys, time; from irpdg.cli import main; "
            "t = time.perf_counter(); code = main(sys.argv[1:]); "
            "print(time.perf_counter() - t); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv,
         "--out", str(tmp_path / "never.csv")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert float(proc.stdout) < 1.0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not (tmp_path / "never.csv").exists()


class TestCli:
    def test_solve_smoke(self, tmp_path):
        out = str(tmp_path / "run.csv")
        code = cli_main(["solve", "--problem", "smooth_advection", "--degree",
                         "1", "--cells", "8", "--tfinal", "0.02", "--out", out])
        assert code == 0
        assert os.path.exists(out)

    def test_unknown_problem_exits_2(self):
        assert cli_main(["solve", "--problem", "bogus"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["solve", "--nonsense", "1"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_problem_exits_2(self):
        assert cli_main(["solve"]) == 2

    def test_unset_flags_keep_the_run_config_defaults(self):
        args = build_parser().parse_args(["solve", "--problem", "lax"])
        assert _build_config(args) == RunConfig(problem="lax")

    @pytest.mark.parametrize("flags", [
        ["--cfl", "0"], ["--cfl", "-0.5"], ["--cfl", "nan"],
        ["--gamma", "nan"], ["--eps", "nan"], ["--tfinal", "inf"],
        ["--domain=1,-1"], ["--domain=nan,1"], ["--domain=0,inf"],
        ["--domain=-1e308,1.7e308"], ["--cells=10000000000000"]])
    def test_bad_numbers_exit_2_at_once(self, flags, tmp_path):
        # a subprocess with a timeout, because --cfl 0 used to step forever;
        # 1e13 cells ask numpy for 72.8 TiB in one array, which it refuses
        # at once (a MemoryError traceback with exit 1 before), and no size
        # the machine could try to allocate is tested
        assert_exits_2_at_once(
            ["solve", "--problem", "lax", *flags], tmp_path)

    def test_custom_riemann_nonfinite_x0_exits_2_at_once(self, tmp_path):
        # a nan interface used to put the right state in every cell
        assert_exits_2_at_once(
            ["solve", "--problem", "custom-riemann", "--left", "1,0,1",
             "--right", "0.125,0,0.1", "--x0", "nan"], tmp_path)

    @pytest.mark.parametrize("flag", [
        "--left=1,0,0", "--left=1,0,-1", "--gamma=1", "--left=1,nan,1",
        "--time=inf", "--x0=nan", "--domain=1,0", "--domain=-1e308,1.7e308",
        "--samples=10000000000000"])
    def test_riemann_exact_bad_input_exits_2_at_once(self, flag, tmp_path):
        # each used to end in a traceback, a 200-step Newton failure or a
        # written file; the flag given last overrides the valid one.  1e13
        # samples ask numpy for 72.8 TiB in one array, as 1e13 cells do
        assert_exits_2_at_once(
            ["riemann-exact", "--left=1,0,1", "--right=0.125,0,0.1",
             "--time=0.2", "--domain=-1,1", flag], tmp_path)

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "custom-riemann"],
        ["riemann-exact", "--time=0.1", "--domain=0,1"]],
        ids=("solve", "riemann_exact"))
    def test_a_state_whose_energy_overflows_exits_2_at_once(self, argv,
                                                           tmp_path):
        # E = 0.5 * rho * u**2 overflows at u = 1e200: solve used to warn of
        # the overflow in to_conserved and abort with exit 3; the one
        # error line leaves no room for a RuntimeWarning
        assert_exits_2_at_once(
            [*argv, "--left=1,1e200,1", "--right=1,0,1"], tmp_path)

    def test_riemann_exact_with_an_overflowing_guess_ends_without_a_traceback(
            self, tmp_path):
        # the two-rarefaction guess (|du| / 2.4)**7 used to raise an
        # OverflowError traceback (exit 1) for any |du| above about 1e45
        assert cli_main(["riemann-exact", "--left", "1,1e150,1", "--right",
                         "1,0,1", "--time", "0.1", "--domain=0,1",
                         "--out", str(tmp_path / "rx.csv")]) in (0, 3)

    @pytest.mark.parametrize("du", ("1e13", "1e15", "1e20", "1e30", "1e45"))
    def test_riemann_exact_solves_a_strong_collision(self, du, tmp_path,
                                                     capsys):
        # the pressure iteration used to end after 200 steps (exit 3)
        assert cli_main(["riemann-exact", "--left", f"1,{du},1", "--right",
                         "1,0,1", "--time", "0.1", "--domain=0,1",
                         "--out", str(tmp_path / "rx.csv")]) == 0
        p_star = float(re.search(r"p\*=(\S+),", capsys.readouterr().out)[1])
        assert p_star == pytest.approx(1.2 * (float(du) / 2.0)**2, rel=1e-5)

    def test_riemann_exact_solves_data_whose_iterates_used_to_alternate(
            self, tmp_path, capsys):
        # the former pressure iteration alternated between two adjacent
        # floats with residuals above its tolerance and exited 3
        out = tmp_path / "rx.csv"
        assert cli_main(["riemann-exact", "--left", "41.33,5.899,4.327",
                         "--right", "0.00245,-3.755,30798", "--gamma", "1.1",
                         "--time", "0.1", "--domain=-1,1", "--samples", "50",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51
        p_star = float(re.search(r"p\*=(\S+),", capsys.readouterr().out)[1])
        assert p_star == pytest.approx(30644.2588, rel=1e-5)

    @pytest.mark.parametrize("u", (600.0, 610.0))
    def test_riemann_exact_solves_a_subnormal_p_star(self, u, tmp_path,
                                                     capsys):
        # two rarefactions at gamma = 1.001, with p* = 1.2e-310 and 7e-317
        # below the smallest normal float: the rarefaction derivative
        # overflows at the two-rarefaction guess, which is exact here, and
        # the solver takes that as a Newton step of 0
        gamma = 1.001
        star = solve_star(RiemannProblem(PrimitiveState(1.0, -u, 1.0),
                                         PrimitiveState(1.0, u, 1.0), gamma))
        with decimal.localcontext() as digits:
            digits.prec = 50
            g = decimal.Decimal(gamma)
            exact = float((1 - (g - 1) * decimal.Decimal(u) / (2 * g.sqrt()))
                          ** (2 * g / (g - 1)))
        assert 0.0 < exact < sys.float_info.min
        assert abs(star.p_star - exact) <= 1e-12 * exact + 5e-324
        assert star.u_star == 0.0
        out = str(tmp_path / "rx.csv")
        assert cli_main(["riemann-exact", "--left", f"1,{-u},1", "--right",
                         f"1,{u},1", "--gamma", str(gamma), "--time", "0.1",
                         "--domain=0,1", "--out", out]) == 0
        p_star = float(re.search(r"p\*=(\S+),", capsys.readouterr().out)[1])
        assert p_star == pytest.approx(star.p_star, rel=1e-5)

    @pytest.mark.parametrize("integrator", ["rk3", "ms3"])
    def test_a_step_that_cannot_reach_t_final_exits_3_at_once(
            self, integrator, tmp_path):
        # dt = 9.5e-303 would take about 1e300 steps, and t stops advancing
        # after 2**53 of them: the run used to never end
        proc = subprocess.run(
            [sys.executable, "-m", "irpdg.cli", "solve", "--problem",
             "smooth_advection", "--cells", "4", "--domain=0,1e-300",
             "--tfinal", "0.01", "--integrator", integrator,
             "--out", str(tmp_path / "never.csv")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("solver abort: time step ")
        assert "at step 0 is not above the end tolerance 1e-12" in proc.stderr
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--cells-list", "0,0"], ["--cells-list=-4,-8"],
        ["--problem", "shu_osher", "--cells-list", "8,16"]],
        ids=("zero_cells", "negative_cells", "no_exact_reference"))
    def test_bad_converge_input_exits_2_before_any_solve(
            self, flags, tmp_path, monkeypatch, capsys):
        # used to exit 3 (a division by zero), 0 (a table of failed rows)
        # and 2 only after solving the first row
        argv = ["converge", "--problem", "lax", *flags]
        assert_exits_2_at_once(argv, tmp_path)
        monkeypatch.setattr(irpdg.harness, "evolve",
                            lambda *args, **kwargs: pytest.fail("solved"))
        assert cli_main([*argv, "--out", str(tmp_path / "never.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_converge_at_t0_measures_the_initial_data(self, tmp_path):
        # the exact density at t = 0 is the initial one; the command used to
        # solve every row and then abort, "sampling requires t > 0"
        out = str(tmp_path / "conv.csv")
        assert cli_main(["converge", "--problem", "lax", "--cells-list",
                         "8,16", "--tfinal", "0", "--out", out]) == 0
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        assert [row[0] for row in rows] == ["8", "16"]
        # the jump sits on a cell edge, so only round-off is left
        assert all(float(row[3]) < 1e-15 for row in rows)

    def test_converge_smoke(self, tmp_path):
        out = str(tmp_path / "conv.csv")
        code = cli_main(["converge", "--problem", "smooth_advection",
                         "--degree", "1", "--tfinal", "0.05",
                         "--cells-list", "8,16", "--out", out])
        assert code == 0
        assert len(open(out).read().splitlines()) == 3

    def test_riemann_exact_smoke(self, tmp_path):
        out = str(tmp_path / "rx.csv")
        code = cli_main(["riemann-exact", "--left", "1,0,1", "--right",
                         "0.125,0,0.1", "--time", "0.2", "--domain=-1,1",
                         "--samples", "50", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x,rho,u,p,E"
        assert len(lines) == 51

    # SHA-256 of the CSV files as the command wrote them before it took its
    # checks from RunConfig.validate (numpy 2.4.6, x86-64)
    @pytest.mark.parametrize("flags, digest", [
        (["--left", "1,0,1", "--right", "0.125,0,0.1", "--time", "0.2",
          "--domain=-1,1", "--samples", "400"],
         "5abcb0799c70f44cd1f000480c90d4d08c524fcf04e61abe456e5f83ea4cfeed"),
        (["--left", "0.445,0.698876404,3.527729888", "--right", "0.5,0,0.571",
          "--time", "0.5", "--domain=-2,2", "--samples", "400"],
         "ad8b97543f582b48963f8fc4fc32599d596847cc0789680660c122efde851ca8")],
        ids=("sod", "lax"))
    def test_riemann_exact_csv_keeps_its_bytes(self, flags, digest, tmp_path):
        out = tmp_path / "rx.csv"
        assert cli_main(["riemann-exact", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_riemann_exact_vacuum_exits_2(self, tmp_path):
        code = cli_main(["riemann-exact", "--left", "1,-5,0.1", "--right",
                         "1,5,0.1", "--time", "0.2", "--domain=-1,1",
                         "--out", str(tmp_path / "v.csv")])
        assert code == 2

    def test_diagnose_smoke(self, tmp_path):
        out = str(tmp_path / "diag.csv")
        code = cli_main(["diagnose", "--problem", "smooth_advection",
                         "--degree", "1", "--cells", "8", "--tfinal", "0.02",
                         "--out", out])
        assert code == 0
        header = open(out).read().splitlines()[0]
        assert header.startswith("step,t,dt,min_theta,n_activated")

    def test_solver_abort_exits_3(self, tmp_path):
        # multistep at cfl 0.9 violates its SSP bound partway through
        code = cli_main(["solve", "--problem", "smooth_advection", "--degree",
                         "2", "--cells", "16", "--integrator", "ms3",
                         "--cfl", "0.9", "--tfinal", "1.0",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_config_file_merge_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem=smooth_advection\ndegree=2\ncells=8\ntfinal=0.02\n"
            "# comment line\nlimiter=irp\n")
        out = str(tmp_path / "o.csv")
        code = cli_main(["solve", "--config", str(cfgfile), "--degree", "1",
                         "--out", out])
        assert code == 0
        # flag overrode the file: degree 1 -> 2 Lobatto points per cell
        assert len(open(out).read().splitlines()) == 1 + 8 * 2

    def test_config_file_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("problem=lax\nwidgets=3\n")
        assert cli_main(["solve", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("entry", ["degree=two", "cfl=abc"])
    def test_config_file_bad_number_exits_2_at_once(self, entry, tmp_path):
        # each used to end in a ValueError traceback with exit 1
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"problem=lax\n{entry}\n")
        assert_exits_2_at_once(["solve", "--config", str(cfgfile)], tmp_path)

    def test_config_file_not_utf8_exits_2_at_once(self, tmp_path):
        # the decode error used to end as a solver abort with exit 3
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"problem=lax\n\xff\xfe\n")
        assert_exits_2_at_once(["solve", "--config", str(cfgfile)], tmp_path)

    def test_custom_riemann_zero_pressure_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "irpdg.cli", "solve", "--problem",
             "custom-riemann", "--left", "1,0,0", "--right", "1,0,1",
             "--out", str(tmp_path / "never.csv")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "left" in proc.stderr
        assert not (tmp_path / "never.csv").exists()

    def test_negative_node_pressure_exits_3(self, tmp_path):
        # two rarefactions without a limiter take a node pressure below 0;
        # the wave speed's ValueError used to end in a traceback and exit 1
        proc = subprocess.run(
            [sys.executable, "-m", "irpdg.cli", "solve", "--problem",
             "custom-riemann", "--left", "1,-2,0.4", "--right", "1,2,0.4",
             "--domain=-1,1", "--tfinal", "0.15", "--limiter", "none",
             "--out", str(tmp_path / "never.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "solver abort: negative pressure at test node of cell 49"]
        assert not (tmp_path / "never.csv").exists()

    def test_per_step_rk3_abort_points_to_per_stage(self, tmp_path):
        # Einfeldt's 1-2-3 problem with the limiter after the assembled RK3
        # step only: the line names the cell once and points to per_stage
        proc = subprocess.run(
            [sys.executable, "-m", "irpdg.cli", "solve", "--problem",
             "custom-riemann", "--left", "1,-2,0.4", "--right", "1,2,0.4",
             "--domain=-1,1", "--tfinal", "0.15", "--placement", "per_step",
             "--out", str(tmp_path / "never.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("solver abort: average pressure -0.17")
        assert line.count("cell 49") == 1
        assert "(step 13); RK3 with per_step placement is outside the IRP " \
            "theory: use per_stage placement" in line
        assert not (tmp_path / "never.csv").exists()

    def test_zero_node_density_exits_3(self, monkeypatch, capsys):
        def divide_by_zero(cfg):
            raise ZeroDivisionError("zero density at a cell interface trace")

        monkeypatch.setattr(irpdg.cli, "run", divide_by_zero)
        assert cli_main(["solve", "--problem", "lax"]) == 3
        assert capsys.readouterr().err == \
            "solver abort: zero density at a cell interface trace\n"

    def test_custom_riemann_via_cli(self, tmp_path):
        out = str(tmp_path / "cr.csv")
        code = cli_main(["solve", "--problem", "custom-riemann", "--left",
                         "1,0,1", "--right", "0.125,0,0.1", "--degree", "1",
                         "--cells", "16", "--tfinal", "0.05",
                         "--domain=-1,1", "--out", out])
        assert code == 0
        assert os.path.exists(out)

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "irpdg.cli", "solve", "--problem",
             "smooth_advection", "--degree", "1", "--cells", "8",
             "--tfinal", "0.01", "--out", str(tmp_path / "e.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0


class TestFineGridReference:
    def test_against_self_is_small(self):
        coarse = run(RunConfig(problem="shu_osher", degree=1, n_cells=32,
                               t_final=0.02))
        fine = run(RunConfig(problem="shu_osher", degree=1, n_cells=128,
                             t_final=0.02))
        ref = fine_grid_reference(fine, coarse.mesh)
        linf, l1 = error_norms(coarse.result.final, coarse.mesh, ref)
        # dominated by the projected jump straddling different cell edges
        assert l1 < 0.8

    def test_domain_mismatch_raises(self):
        coarse = run(RunConfig(problem="smooth_advection", degree=1,
                               n_cells=8, t_final=0.0))
        fine = run(RunConfig(problem="shu_osher", degree=1, n_cells=16,
                             t_final=0.0))
        with pytest.raises(ValueError):
            fine_grid_reference(fine, coarse.mesh)
