"""Command-line front end: solve / converge / riemann-exact / diagnose.

Flags mirror a flat ``key=value`` config file (``--config``); explicit flags
override file entries.  Exit codes: 0 success, 2 configuration error
(also sizes whose arrays numpy cannot allocate), 3 solver abort
(admissible-region violation, a state the wave speed or the operator
cannot take, or failed iteration).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .euler_core import PrimitiveState, to_conserved
from .harness import CUSTOM_RIEMANN, ConfigError, PROBLEMS, RunConfig, \
    convergence_study, emit_diagnostics_csv, emit_solution_csv, \
    emit_table_csv, run, write_csv
from .irp_limiter import LIMITER_KINDS, RegionViolationError
from .riemann_exact import RiemannProblem, RiemannSolverError, VacuumError, \
    sample_primitives, solve_star
from .time_integration import MS3, PER_STAGE, PER_STEP, RK3


def _parse_floats(text: str, count: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated values, "
                          f"got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as err:
        raise ConfigError(f"bad numbers {text!r}") from err


def _state(text: str) -> PrimitiveState:
    return PrimitiveState(*_parse_floats(text, 3))


# The solver options: each flag, also the config-file key, maps to its
# RunConfig field, the converter of its text and its argparse keywords.
# int and float are also the flag's argparse type.
_SOLVER_OPTIONS = {
    "problem": ("problem", str, {"choices": PROBLEMS}),
    "degree": ("degree", int, {}),
    "cells": ("n_cells", int, {}),
    "limiter": ("limiter", str, {"choices": LIMITER_KINDS}),
    "integrator": ("integrator", str, {"choices": (RK3, MS3)}),
    "cfl": ("cfl_fraction", float, {}),
    "tfinal": ("t_final", float, {}),
    "gamma": ("gamma", float, {}),
    "eps": ("epsilon", float, {}),
    "placement": ("limiter_placement", str,
                  {"choices": (PER_STAGE, PER_STEP)}),
    "out": ("output_path", str, {}),
    "left": ("left", _state,
             {"help": "rho,u,p of the left state (custom-riemann)"}),
    "right": ("right", _state,
              {"help": "rho,u,p of the right state (custom-riemann)"}),
    "x0": ("x0", float, {"help": "interface location (custom-riemann)"}),
    "domain": ("domain", lambda text: _parse_floats(text, 2),
               {"help": "a,b mesh extent override"}),
}


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
                if key not in _SOLVER_OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return values


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    for key, (_, convert, keywords) in _SOLVER_OPTIONS.items():
        kind = convert if convert in (int, float) else None
        sub.add_argument(f"--{key}", type=kind, **keywords)
    sub.add_argument("--config", help="key=value config file; flags override it")


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The flags over the config file; unset keys keep RunConfig's defaults."""
    fromfile = read_config_file(args.config) if args.config else {}
    if args.problem is None and "problem" not in fromfile:
        raise ConfigError("no problem selected (flag --problem or config file)")
    given = {}
    for key, (field, convert, _) in _SOLVER_OPTIONS.items():
        cli = getattr(args, key)
        text = fromfile.get(key) if cli is None else str(cli)
        if text is None:
            continue
        try:
            given[field] = convert(text)
        except ConfigError:  # a list of numbers, with its own message
            raise
        except ValueError as err:
            raise ConfigError(f"bad {key} value {text!r}") from err
    cfg = RunConfig(**given)
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
    cfg = RunConfig(problem=CUSTOM_RIEMANN, gamma=args.gamma,
                    left=_state(args.left), right=_state(args.right),
                    x0=args.x0, domain=_parse_floats(args.domain, 2))
    cfg.validate()
    if not 0.0 < args.time < math.inf:
        raise ConfigError(f"--time must be finite and > 0, got {args.time}")
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    problem = RiemannProblem(cfg.left, cfg.right, cfg.gamma, cfg.x0)
    star = solve_star(problem)
    xs = np.linspace(*cfg.domain, args.samples)
    rho, u, p = sample_primitives(problem, star, (xs - cfg.x0) / args.time)
    E = to_conserved(PrimitiveState(rho, u, p), cfg.gamma).E
    path = write_csv(args.out or "riemann_exact.csv",
                     ("x", "rho", "u", "p", "E"),
                     np.stack([xs, rho, u, p, E], axis=1).tolist())
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
    # a MemoryError is numpy refusing an array the sizes given ask for
    except (ConfigError, VacuumError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # after ConfigError and VacuumError, a ValueError is the wave speed's or
    # the time step's, and a ZeroDivisionError the operator's: a node
    # density or pressure the run reached, not one it was given
    except (RegionViolationError, RiemannSolverError, ValueError,
            ZeroDivisionError) as err:
        detail = ""
        if isinstance(err, RegionViolationError):
            where = f"step {err.step}"
            # the average test's message names its cell already
            if err.cell is not None and f"(cell {err.cell})" not in str(err):
                where += f", cell {err.cell}"
            detail = f" ({where})"
            if err.note:
                detail += f"; {err.note}"
        print(f"solver abort: {err}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
