"""Exact solver for the Riemann problem of the 1D Euler equations.

Star-region pressure and velocity come from a two-phase Newton iteration
on the standard pressure function (shock branches from the Rankine-Hugoniot
conditions, rarefaction branches from the isentropic relations; see Toro,
"Riemann Solvers and Numerical Methods for Fluid Dynamics", ch. 4).  The
self-similar solution is sampled by wave-fan logic in xi = x/t.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, sqrt

import numpy as np

from .euler_core import PrimitiveState

_MAX_ITER = 200
_SHRINK = 1e6


class VacuumError(ValueError):
    """The data would generate a vacuum region; no star state exists."""


class RiemannSolverError(RuntimeError):
    """The pressure iteration did not converge, or p* is not a float."""


@dataclass(frozen=True)
class RiemannProblem:
    left: PrimitiveState
    right: PrimitiveState
    gamma: float = 1.4
    x0: float = 0.0

    def __post_init__(self):
        # Python floats: a numpy scalar's ** overflows to inf with a warning
        for name in ("left", "right"):
            side = PrimitiveState(*map(float, getattr(self, name)))
            for quantity, value in zip(("density", "velocity", "pressure"),
                                       side):
                if not isfinite(value):
                    raise ValueError(f"Riemann data requires a finite "
                                     f"{quantity}, got {value} ({name})")
            if not side.rho > 0.0:
                raise ValueError("Riemann data requires positive density")
            if not side.p > 0.0:
                raise ValueError("Riemann data requires positive pressure")
            object.__setattr__(self, name, side)
        object.__setattr__(self, "gamma", float(self.gamma))


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
        try:
            df = (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * c_k)
        except OverflowError:  # f is that steep: a Newton step from p is 0
            df = inf
    return f, df


def solve_star(problem: RiemannProblem) -> StarState:
    """Star-region state by Newton's method on the pressure function f.

    f is increasing and concave (Toro, sec. 4.3), so a Newton step from any
    p lands at or below p*, and from below p* Newton climbs without passing
    it.  While a step moves p down (f > 0), p takes it, or p / _SHRINK
    where it is not positive; then Newton climbs until p stops rising.
    """
    gamma = problem.gamma
    left, right = problem.left, problem.right
    c_l = sqrt(gamma * left.p / left.rho)
    c_r = sqrt(gamma * right.p / right.rho)
    du = right.u - left.u
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        raise VacuumError("initial states generate vacuum; no positive p_star")

    def newton(p):
        """The Newton iterate from p."""
        f_l, df_l = _pressure_function(p, left, gamma)
        f_r, df_r = _pressure_function(p, right, gamma)
        return p - (f_l + f_r + du) / (df_l + df_r)

    # the two-rarefaction guess, or the largest float where it overflows
    z = (gamma - 1.0) / (2.0 * gamma)
    try:
        p = min(sys.float_info.max,
                ((c_l + c_r - 0.5 * (gamma - 1.0) * du)
                 / (c_l / left.p**z + c_r / right.p**z)) ** (1.0 / z))
    except OverflowError:
        p = sys.float_info.max
    try:
        for _ in range(_MAX_ITER):
            p_new = newton(p)
            if p_new >= p:  # f <= 0 here; a nan iterate divides on
                break
            p = p_new if p_new > 0.0 else p / _SHRINK
        else:
            raise RiemannSolverError(
                f"p_star not approached from above in {_MAX_ITER} steps")
        for _ in range(_MAX_ITER):
            if not p_new > p:
                break
            p = p_new
            p_new = newton(p)
        else:
            raise RiemannSolverError(
                f"pressure iteration did not converge within {_MAX_ITER} steps")
        if p == inf:
            raise OverflowError("p_star is above the largest float")
    except ArithmeticError as err:  # p* or f's terms outside the float range
        raise RiemannSolverError(f"p_star left the float range: {err}") from err

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


def sample_primitives(problem: RiemannProblem, star: StarState,
                      xi) -> np.ndarray:
    """Self-similar solution (rho, u, p) at an array of xi = x/t; (3, n).

    Each side of the contact takes one array pass.  The right fan is the
    left one mirrored (x -> -x), written once with ``sign`` 1.0 on the left
    and -1.0 on the right.  A product with ``sign`` is an exact negation, so
    each side keeps its own formulas' bits, signed zeros included: negating
    a mirrored velocity back would turn an exactly zero one into -0.  A nan
    xi fails every test: on the right, a fan gives nan, a shock its star.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    gamma = problem.gamma
    gp, gm = 0.5 * (gamma + 1.0) / gamma, 0.5 * (gamma - 1.0) / gamma
    k, h = 2.0 / (gamma + 1.0), 0.5 * (gamma - 1.0)
    out = np.empty((3,) + xi.shape)
    on_left = xi <= star.u_star
    for sign, side, rho_star, pick in (
            (1.0, problem.left, star.rho_star_left, on_left),
            (-1.0, problem.right, star.rho_star_right, ~on_left)):
        x = xi[pick]
        c = sqrt(gamma * side.p / side.rho)
        if star.p_star > side.p:  # shock
            s = side.u - sign * c * sqrt(gp * star.p_star / side.p + gm)
            outer = sign * x <= sign * s
            inner = ~outer
        else:
            head = side.u - sign * c
            c_star = c * (star.p_star / side.p) ** gm
            tail = star.u_star - sign * c_star
            outer = sign * x <= sign * head
            inner = ~outer & (sign * x >= sign * tail)
        w = np.empty((3, x.size))
        w[:, outer] = np.array(side)[:, None]
        w[:, inner] = np.array([[rho_star], [star.u_star], [star.p_star]])
        fan = ~(outer | inner)
        x = x[fan]
        w[1, fan] = k * (sign * c + h * side.u + x)
        cf = k * (c + sign * h * (side.u - x))
        w[0, fan] = side.rho * (cf / c) ** (2.0 / (gamma - 1.0))
        w[2, fan] = side.p * (cf / c) ** (2.0 * gamma / (gamma - 1.0))
        out[:, pick] = w
    return out


@lru_cache(maxsize=64)
def star_of(problem: RiemannProblem) -> StarState:
    """Memoized solve_star keyed on the problem definition."""
    return solve_star(problem)
