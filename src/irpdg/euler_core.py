"""State algebra and thermodynamics for the 1D compressible Euler equations.

Conserved variables are (rho, m, E) = (density, momentum, total energy),
closed by the ideal-gas law.  ``gas_pressure``, ``gas_entropy`` and
``gas_state`` are the only code that writes the closure; they work on
floats or numpy arrays componentwise and check nothing, so every caller
decides what a non-positive density or pressure means.  The adiabatic
exponent ``gamma`` is always passed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class ConservedState(NamedTuple):
    """State vector (rho, m, E).  Out-of-region values are representable."""

    rho: float
    m: float
    E: float


class PrimitiveState(NamedTuple):
    """Primitive variables (rho, u, p)."""

    rho: float
    u: float
    p: float


@dataclass(frozen=True)
class InvariantRegion:
    """Admissible set {rho >= eps, p >= eps, q <= 0} for a fixed entropy floor.

    ``s0`` is the entropy floor, ``eps`` the positivity floor for density and
    pressure (1e-13 by default, small enough that q stays well defined).
    """

    gamma: float
    s0: float
    eps: float = 1e-13

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")


def gas_pressure(rho, m: np.ndarray, E, gamma: float) -> np.ndarray:
    """Ideal-gas pressure (gamma-1)*(E - (0.5*m)*m/rho), unchecked.

    ``m`` has the shape of the result (0-d for a scalar), and rho and E
    broadcast to it.  p is computed in place in one new array.  (0.5*m)*m
    overflows above |m| = 1.9e154, 0.5*(m*m) already above 1.3e154.
    """
    p = np.asarray(0.5 * m)
    p *= m
    p /= rho
    np.subtract(E, p, p)
    p *= gamma - 1.0
    return p


def gas_entropy(rho, p, gamma: float):
    """Specific entropy s = log(p / rho^gamma), unchecked: needs rho, p > 0."""
    return np.log(p) - gamma * np.log(rho)


def gas_state(rho, m, E, region: InvariantRegion):
    """Unchecked (p, s, q), q = (s0 - s) * rho; s and q need rho, p > 0."""
    p = gas_pressure(rho, m, E, region.gamma)
    s = gas_entropy(rho, p, region.gamma)
    return p, s, (region.s0 - s) * rho


def to_primitive(w: ConservedState, gamma: float) -> PrimitiveState:
    """(rho, u, p) of one state with nonzero density."""
    rho, m, E = (float(v) for v in w)
    return PrimitiveState(rho, m / rho, float(gas_pressure(rho, m, E, gamma)))


def to_conserved(prim: PrimitiveState, gamma: float) -> ConservedState:
    """(rho, m, E), with equal bits for floats and arrays: ``u**2`` would
    take libm's pow on a float and numpy's square on an array."""
    rho, u, p = prim
    return ConservedState(rho, rho * u, 0.5 * rho * (u * u) + p / (gamma - 1.0))


def _region_mask(w: ConservedState, region: InvariantRegion, strict: bool):
    rho, m, E = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in w))
    # q counts only where density and pressure already pass (it is
    # undefined outside the positive cone).
    with np.errstate(divide="ignore", invalid="ignore"):
        p, _, q = gas_state(rho, m, E, region)
    if strict:
        ok = (rho > region.eps) & (p > region.eps) & (q < 0.0)
    else:
        ok = (rho >= region.eps) & (p >= region.eps) & (q <= 0.0)
    return bool(ok[0]) if np.ndim(w.rho) == 0 else ok.reshape(np.shape(w.rho))


def in_region(w: ConservedState, region: InvariantRegion):
    """Membership in the closed admissible set {rho>=eps, p>=eps, q<=0}."""
    return _region_mask(w, region, strict=False)


def in_region_interior(w: ConservedState, region: InvariantRegion):
    """Strict membership {rho>eps, p>eps, q<0}."""
    return _region_mask(w, region, strict=True)


def entropy_floor_from_initial(rho0: Callable, p0: Callable,
                               xs: np.ndarray, gamma: float) -> float:
    """Entropy floor s0 = min over the sample set of log(p0 / rho0^gamma).

    Callers choose the sample set; the minimum of the sampled entropy is a
    one-sided approximation of the infimum (never below it).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("entropy floor needs a nonempty sample set")
    r = np.asarray(rho0(xs), dtype=float)
    p = np.asarray(p0(xs), dtype=float)
    if np.any(r <= 0.0) or np.any(p <= 0.0):
        raise ValueError("initial data must have positive density and pressure")
    return float(np.min(gas_entropy(r, p, gamma)))
