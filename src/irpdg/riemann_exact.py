"""Exact solver for the Riemann problem of the 1D Euler equations.

Star-region pressure and velocity come from a safeguarded Newton iteration
on the standard pressure function (shock branches from the Rankine-Hugoniot
conditions, rarefaction branches from the isentropic relations; see Toro,
"Riemann Solvers and Numerical Methods for Fluid Dynamics", ch. 4).  The
self-similar solution is sampled by wave-fan logic in xi = x/t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .dg_space import Mesh1D, gauss_legendre_rule
from .euler_core import PrimitiveState, to_conserved

_P_TOL = 1e-12
_MAX_ITER = 200


class VacuumError(ValueError):
    """The data would generate a vacuum region; no star state exists."""


class RiemannSolverError(RuntimeError):
    """The pressure iteration failed to converge."""


@dataclass(frozen=True)
class RiemannProblem:
    left: PrimitiveState
    right: PrimitiveState
    gamma: float = 1.4
    x0: float = 0.0

    def __post_init__(self):
        for side in (self.left, self.right):
            if side.rho <= 0.0:
                raise ValueError("Riemann data requires positive density")
            if side.p < 0.0:
                raise ValueError("Riemann data requires nonnegative pressure")


@dataclass(frozen=True)
class StarState:
    p_star: float
    u_star: float
    rho_star_left: float
    rho_star_right: float


def _pressure_function(p: float, side: PrimitiveState, gamma: float):
    """Branch function f_K(p) and its derivative for one side."""
    rho_k, _, p_k = side
    c_k = sqrt(gamma * p_k / rho_k)
    if p > p_k:  # shock
        a = 2.0 / ((gamma + 1.0) * rho_k)
        b = (gamma - 1.0) / (gamma + 1.0) * p_k
        root = sqrt(a / (p + b))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (b + p))
    else:  # rarefaction
        z = (gamma - 1.0) / (2.0 * gamma)
        f = 2.0 * c_k / (gamma - 1.0) * ((p / p_k) ** z - 1.0)
        df = (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * c_k)
    return f, df


def solve_star(problem: RiemannProblem) -> StarState:
    """Star-region state; Newton with a bisection safeguard on the bracket."""
    gamma = problem.gamma
    left, right = problem.left, problem.right
    c_l = sqrt(gamma * left.p / left.rho)
    c_r = sqrt(gamma * right.p / right.rho)
    du = right.u - left.u
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        raise VacuumError("initial states generate vacuum; no positive p_star")

    def total(p):
        f_l, df_l = _pressure_function(p, left, gamma)
        f_r, df_r = _pressure_function(p, right, gamma)
        return f_l + f_r + du, df_l + df_r

    # Two-rarefaction approximation as the initial guess.
    z = (gamma - 1.0) / (2.0 * gamma)
    p = ((c_l + c_r - 0.5 * (gamma - 1.0) * du)
         / (c_l / left.p**z + c_r / right.p**z)) ** (1.0 / z)
    lo = 1e-300  # f < 0 there by the no-vacuum condition
    hi = max(left.p, right.p, p)
    while total(hi)[0] < 0.0:
        hi *= 2.0
        if not np.isfinite(hi):
            raise RiemannSolverError("failed to bracket p_star")
    p = min(max(p, lo), hi)

    for _ in range(_MAX_ITER):
        f, df = total(p)
        if abs(f) <= _P_TOL:
            break
        if f > 0.0:
            hi = p
        else:
            lo = p
        p_new = p - f / df if df > 0.0 else lo
        if not lo < p_new < hi:
            p_new = 0.5 * (lo + hi)  # bisection safeguard
        p = p_new
    else:
        raise RiemannSolverError(
            f"pressure iteration did not converge within {_MAX_ITER} steps")

    f_l, _ = _pressure_function(p, left, gamma)
    f_r, _ = _pressure_function(p, right, gamma)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    mu = (gamma - 1.0) / (gamma + 1.0)

    def star_density(side: PrimitiveState) -> float:
        ratio = p / side.p
        if p > side.p:  # shock: Rankine-Hugoniot density jump
            return side.rho * (ratio + mu) / (mu * ratio + 1.0)
        return side.rho * ratio ** (1.0 / gamma)  # isentropic

    return StarState(p_star=p, u_star=u_star,
                     rho_star_left=star_density(left),
                     rho_star_right=star_density(right))


def sample(problem: RiemannProblem, star: StarState, xi: float) -> PrimitiveState:
    """Self-similar solution at xi = x/t.

    The right fan is the left one mirrored (x -> -x), written once with
    ``sign`` 1.0 on the left and -1.0 on the right.  A product with ``sign``
    is an exact negation, so each side keeps its own formulas' bits, signed
    zeros included: negating a mirrored velocity back would turn an exactly
    zero one into -0.
    """
    gamma = problem.gamma
    gp = 0.5 * (gamma + 1.0) / gamma
    gm = 0.5 * (gamma - 1.0) / gamma
    if xi <= star.u_star:
        sign, side, rho_star = 1.0, problem.left, star.rho_star_left
    else:
        sign, side, rho_star = -1.0, problem.right, star.rho_star_right
    c = sqrt(gamma * side.p / side.rho)
    inner = PrimitiveState(rho_star, star.u_star, star.p_star)
    if star.p_star > side.p:  # shock
        s = side.u - sign * c * sqrt(gp * star.p_star / side.p + gm)
        return side if sign * xi <= sign * s else inner
    head = side.u - sign * c
    c_star = c * (star.p_star / side.p) ** gm
    tail = star.u_star - sign * c_star
    if sign * xi <= sign * head:
        return side
    if sign * xi >= sign * tail:
        return inner
    u = 2.0 / (gamma + 1.0) * (sign * c + 0.5 * (gamma - 1.0) * side.u + xi)
    cf = 2.0 / (gamma + 1.0) * (c + sign * 0.5 * (gamma - 1.0) * (side.u - xi))
    rho = side.rho * (cf / c) ** (2.0 / (gamma - 1.0))
    return PrimitiveState(rho, u, side.p * (cf / c) ** (2.0 * gamma / (gamma - 1.0)))


def sample_primitives(problem: RiemannProblem, star: StarState,
                      xis: np.ndarray) -> np.ndarray:
    """Primitive (rho, u, p) profiles at an array of xi values; (3, n)."""
    out = np.empty((3, len(np.atleast_1d(xis))))
    for i, xi in enumerate(np.atleast_1d(xis)):
        out[:, i] = sample(problem, star, float(xi))
    return out


def sample_conserved_at(problem: RiemannProblem, star: StarState,
                        x: np.ndarray, t: float) -> np.ndarray:
    """Conserved (rho, m, E) profiles at positions x and time t > 0; (3, n)."""
    if t <= 0.0:
        raise ValueError("sampling requires t > 0")
    xi = (np.atleast_1d(np.asarray(x, dtype=float)) - problem.x0) / t
    rho, u, p = sample_primitives(problem, star, xi)
    w = to_conserved(PrimitiveState(rho, u, p), problem.gamma)
    return np.stack([np.asarray(w.rho), np.asarray(w.m), np.asarray(w.E)])


def reference_on_mesh(problem: RiemannProblem, mesh: Mesh1D, t: float,
                      samples_per_cell: int = 8) -> np.ndarray:
    """Cell averages of the exact conserved solution; (n_cells, 3).

    Each cell is integrated with a Gauss-Legendre rule; kinks and jumps
    inside a cell make this first-order accurate there, so use enough cells
    or points when tight averages matter.
    """
    if t <= 0.0:
        raise ValueError("reference sampling requires t > 0")
    rule = gauss_legendre_rule(samples_per_cell)
    xs = mesh.physical_points(rule.nodes)  # (n_cells, nq)
    vals = sample_conserved_at(problem, star_of(problem), xs.ravel(), t)
    vals = vals.reshape(3, mesh.n_cells, samples_per_cell)
    return np.einsum("vcq,q->cv", vals, rule.weights)


@lru_cache(maxsize=64)
def star_of(problem: RiemannProblem) -> StarState:
    """Memoized solve_star keyed on the problem definition."""
    return solve_star(problem)
