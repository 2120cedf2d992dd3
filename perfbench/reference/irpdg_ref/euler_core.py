"""State algebra and thermodynamics for the 1D compressible Euler equations.

Conserved variables are (rho, m, E) = (density, momentum, total energy),
closed by the ideal-gas law.  All functions accept floats or numpy arrays
componentwise and take the adiabatic exponent ``gamma`` explicitly.
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


def pressure(w: ConservedState, gamma: float):
    """Ideal-gas pressure (gamma-1)*(E - m^2/(2 rho))."""
    rho = np.asarray(w.rho, dtype=float)
    if np.any(rho == 0.0):
        raise ZeroDivisionError("pressure undefined at zero density")
    p = (gamma - 1.0) * (np.asarray(w.E, dtype=float)
                         - 0.5 * np.asarray(w.m, dtype=float) ** 2 / rho)
    return float(p) if p.ndim == 0 else p


def velocity(w: ConservedState):
    rho = np.asarray(w.rho, dtype=float)
    if np.any(rho == 0.0):
        raise ZeroDivisionError("velocity undefined at zero density")
    u = np.asarray(w.m, dtype=float) / rho
    return float(u) if u.ndim == 0 else u


def to_primitive(w: ConservedState, gamma: float) -> PrimitiveState:
    return PrimitiveState(w.rho, velocity(w), pressure(w, gamma))


def to_conserved(prim: PrimitiveState, gamma: float) -> ConservedState:
    rho, u, p = prim
    return ConservedState(rho, rho * u, 0.5 * rho * u**2 + p / (gamma - 1.0))


def specific_entropy(w: ConservedState, gamma: float):
    """Specific entropy s = log(p / rho^gamma); requires rho > 0 and p > 0."""
    rho = np.asarray(w.rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("specific_entropy requires positive density")
    p = np.asarray(pressure(w, gamma))
    if np.any(p <= 0.0):
        raise ValueError("specific_entropy requires positive pressure")
    s = np.log(p) - gamma * np.log(rho)
    return float(s) if s.ndim == 0 else s


def q_functional(w: ConservedState, region: InvariantRegion):
    """Entropy constraint functional q = (s0 - s) * rho.

    q <= 0 exactly when s >= s0.  Undefined (raises) outside the positive
    cone; callers must verify rho and p admissibility first.
    """
    q = (region.s0 - np.asarray(specific_entropy(w, region.gamma))) \
        * np.asarray(w.rho, dtype=float)
    return float(q) if q.ndim == 0 else q


def _region_mask(w: ConservedState, region: InvariantRegion, strict: bool):
    rho = np.atleast_1d(np.asarray(w.rho, dtype=float))
    m = np.atleast_1d(np.asarray(w.m, dtype=float))
    E = np.atleast_1d(np.asarray(w.E, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    if strict:
        ok = (rho > region.eps) & (p > region.eps)
    else:
        ok = (rho >= region.eps) & (p >= region.eps)
    # q is evaluated only where density and pressure already pass (it is
    # undefined outside the positive cone).
    idx = np.nonzero(ok)
    if idx[0].size:
        s = np.log(p[idx]) - region.gamma * np.log(rho[idx])
        q = (region.s0 - s) * rho[idx]
        ok[idx] &= (q < 0.0) if strict else (q <= 0.0)
    return ok


def in_region(w: ConservedState, region: InvariantRegion):
    """Membership in the closed admissible set {rho>=eps, p>=eps, q<=0}."""
    ok = _region_mask(w, region, strict=False)
    return bool(ok[0]) if np.ndim(w.rho) == 0 else ok.reshape(np.shape(w.rho))


def in_region_interior(w: ConservedState, region: InvariantRegion):
    """Strict membership {rho>eps, p>eps, q<0}."""
    ok = _region_mask(w, region, strict=True)
    return bool(ok[0]) if np.ndim(w.rho) == 0 else ok.reshape(np.shape(w.rho))


def physical_flux(w: ConservedState, gamma: float) -> np.ndarray:
    """Euler flux F(w) = (m, rho u^2 + p, (E + p) u)."""
    u = np.asarray(velocity(w))
    p = np.asarray(pressure(w, gamma))
    m, u, p, E = np.broadcast_arrays(np.asarray(w.m, dtype=float), u, p,
                                     np.asarray(w.E, dtype=float))
    return np.stack([m, m * u + p, (E + p) * u])


def sound_speed(rho, p, gamma: float):
    rho = np.asarray(rho, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("sound speed requires positive density")
    if np.any(p < 0.0):
        raise ValueError("sound speed requires nonnegative pressure")
    c = np.sqrt(gamma * p / rho)
    return float(c) if c.ndim == 0 else c


def max_signal_speed(w: ConservedState, gamma: float):
    """Largest characteristic speed |u| + c of a state."""
    spd = np.abs(velocity(w)) + sound_speed(w.rho, pressure(w, gamma), gamma)
    return float(spd) if np.ndim(spd) == 0 else spd


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
    return float(np.min(np.log(p) - gamma * np.log(r)))
