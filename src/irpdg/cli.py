"""Command-line front end: solve / converge / riemann-exact / diagnose.

Flags mirror a flat ``key=value`` config file (``--config``); explicit flags
override file entries.  Exit codes: 0 success, 2 configuration error,
3 solver abort (admissible-region violation, a state the wave speed or the
operator cannot take, or failed iteration).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .euler_core import PrimitiveState, to_conserved
from .harness import ConfigError, PROBLEMS, RunConfig, check_domain, \
    check_state, convergence_study, emit_diagnostics_csv, \
    emit_solution_csv, emit_table_csv, resolve_output_path, run
from .irp_limiter import LIMITER_KINDS, RegionViolationError
from .riemann_exact import RiemannProblem, RiemannSolverError, VacuumError, \
    sample_primitives, solve_star
from .time_integration import MS3, PER_STAGE, PER_STEP, RK3

_SOLVER_KEYS = ("problem", "degree", "cells", "limiter", "integrator", "cfl",
                "tfinal", "gamma", "eps", "placement", "out", "left", "right",
                "x0", "domain")


def _parse_floats(text: str, count: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated values, "
                          f"got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as err:
        raise ConfigError(f"bad numbers {text!r}") from err


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _SOLVER_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return values


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", choices=PROBLEMS)
    sub.add_argument("--degree", type=int)
    sub.add_argument("--cells", type=int)
    sub.add_argument("--limiter", choices=LIMITER_KINDS)
    sub.add_argument("--integrator", choices=(RK3, MS3))
    sub.add_argument("--cfl", type=float)
    sub.add_argument("--tfinal", type=float)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--placement", choices=(PER_STAGE, PER_STEP))
    sub.add_argument("--out")
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--left", help="rho,u,p of the left state (custom-riemann)")
    sub.add_argument("--right", help="rho,u,p of the right state (custom-riemann)")
    sub.add_argument("--x0", type=float, help="interface location (custom-riemann)")
    sub.add_argument("--domain", help="a,b mesh extent override")


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The flags over the config file; unset keys keep RunConfig's defaults."""
    fromfile = read_config_file(args.config) if args.config else {}

    def pick(key: str) -> str | None:
        cli = getattr(args, key, None)
        return fromfile.get(key) if cli is None else str(cli)

    def number(key: str, kind=float):
        text = pick(key)
        if text is None:
            return None
        try:
            return kind(text)
        except ValueError as err:
            raise ConfigError(f"bad {key} value {text!r}") from err

    problem = pick("problem")
    if problem is None:
        raise ConfigError("no problem selected (flag --problem or config file)")
    left = pick("left")
    right = pick("right")
    domain = pick("domain")
    given = dict(
        degree=number("degree", int),
        n_cells=number("cells", int),
        limiter=pick("limiter"),
        integrator=pick("integrator"),
        cfl_fraction=number("cfl"),
        t_final=number("tfinal"),
        gamma=number("gamma"),
        epsilon=number("eps"),
        output_path=pick("out"),
        limiter_placement=pick("placement"),
        left=None if left is None else PrimitiveState(*_parse_floats(left, 3)),
        right=None if right is None else PrimitiveState(*_parse_floats(right, 3)),
        x0=number("x0"),
        domain=None if domain is None else _parse_floats(domain, 2))
    cfg = RunConfig(problem=problem,
                    **{k: v for k, v in given.items() if v is not None})
    cfg.validate()
    return cfg


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    out = run(cfg)
    path = cfg.output_path or f"{cfg.problem.replace('-', '_')}_solution.csv"
    path = emit_solution_csv(out, path)
    last = out.result.diagnostics[-1]
    print(f"wrote {path} (t={last.t:.6g}, steps={last.step}, "
          f"min_avg_entropy={out.result.min_avg_entropy:.6g})")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    out = run(cfg)
    path = cfg.output_path or f"{cfg.problem.replace('-', '_')}_diagnostics.csv"
    path = emit_diagnostics_csv(out, path)
    print(f"wrote {path} ({len(out.result.diagnostics)} records)")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        counts = [int(c) for c in args.cells_list.split(",")]
    except ValueError as err:
        raise ConfigError(f"bad cells list {args.cells_list!r}") from err
    rows = convergence_study(cfg, counts)
    path = cfg.output_path or f"{cfg.problem.replace('-', '_')}_convergence.csv"
    path = emit_table_csv(rows, path)
    print(f"wrote {path}")
    for r in rows:
        o1 = "-" if r.order_l1 is None else f"{r.order_l1:.2f}"
        print(f"  N={r.n_cells:5d}  Linf={r.error_linf:.3e}  "
              f"L1={r.error_l1:.3e}  order={o1}  {r.note}")
    return 0


def _cmd_riemann_exact(args: argparse.Namespace) -> int:
    left = PrimitiveState(*_parse_floats(args.left, 3))
    right = PrimitiveState(*_parse_floats(args.right, 3))
    check_state("left", left)
    check_state("right", right)
    a, b = _parse_floats(args.domain, 2)
    check_domain((a, b))
    if not 1.0 < args.gamma < math.inf:
        raise ConfigError(f"--gamma must be finite and > 1, got {args.gamma}")
    if not 0.0 < args.time < math.inf:
        raise ConfigError(f"--time must be finite and > 0, got {args.time}")
    if not math.isfinite(args.x0):
        raise ConfigError(f"--x0 must be finite, got {args.x0}")
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    problem = RiemannProblem(left, right, args.gamma, args.x0)
    star = solve_star(problem)
    xs = np.linspace(a, b, args.samples)
    rho, u, p = sample_primitives(problem, star, (xs - args.x0) / args.time)
    E = np.asarray(to_conserved(PrimitiveState(rho, u, p), args.gamma).E)
    path = resolve_output_path(args.out or "riemann_exact.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,rho,u,p,E\n")
        for i in range(len(xs)):
            fh.write(",".join(f"{v:.12g}" for v in
                              (xs[i], rho[i], u[i], p[i], E[i])) + "\n")
    print(f"wrote {path} (p*={star.p_star:.6g}, u*={star.u_star:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irpdg",
        description="1D DG Euler solver with an invariant-region-preserving limiter")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run one configuration, emit solution CSV")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_conv = subs.add_parser("converge", help="mesh refinement study")
    _add_solver_flags(p_conv)
    p_conv.add_argument("--cells-list", required=True,
                        help="comma-separated cell counts, each double the last")
    p_conv.set_defaults(func=_cmd_converge)

    p_rx = subs.add_parser("riemann-exact", help="sample the exact Riemann solution")
    p_rx.add_argument("--left", required=True, help="rho,u,p")
    p_rx.add_argument("--right", required=True, help="rho,u,p")
    p_rx.add_argument("--gamma", type=float, default=1.4)
    p_rx.add_argument("--time", type=float, required=True)
    p_rx.add_argument("--domain", required=True, help="a,b")
    p_rx.add_argument("--x0", type=float, default=0.0)
    p_rx.add_argument("--samples", type=int, default=200)
    p_rx.add_argument("--out")
    p_rx.set_defaults(func=_cmd_riemann_exact)

    p_diag = subs.add_parser("diagnose", help="run and emit per-step diagnostics CSV")
    _add_solver_flags(p_diag)
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors, 0 on --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ConfigError, VacuumError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # after ConfigError and VacuumError, a ValueError is the wave speed's or
    # the time step's, and a ZeroDivisionError the operator's: a node
    # density or pressure the run reached, not one it was given
    except (RegionViolationError, RiemannSolverError, ValueError,
            ZeroDivisionError) as err:
        detail = ""
        if isinstance(err, RegionViolationError):
            detail = f" (step {err.step}, cell {err.cell})"
        print(f"solver abort: {err}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
