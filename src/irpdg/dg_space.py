"""Uniform 1D mesh, modal Legendre basis, quadrature, and the DG spatial operator.

The basis is orthonormal on the reference cell [-1/2, 1/2], so the mass
matrix is the identity scaled by the cell width and the zeroth coefficient
of every cell polynomial *is* its cell average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .euler_core import ConservedState, physical_flux

PERIODIC = "periodic"
OUTFLOW = "outflow"
# Left ghost pinned to a prescribed upstream state, right ghost extrapolated.
# Needed when the left boundary is a supersonic inflow: zero-order
# extrapolation there lets the Lax-Friedrichs dissipation tail drift without
# bound, while all characteristics in fact carry upstream data.
INFLOW_OUTFLOW = "inflow_outflow"


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of ``n_cells`` cells on [a, b]."""

    a: float
    b: float
    n_cells: int
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("n_cells must be at least 1")
        if not self.b > self.a:
            raise ValueError("mesh needs b > a")
        if self.boundary not in (PERIODIC, OUTFLOW, INFLOW_OUTFLOW):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.a + (np.arange(self.n_cells) + 0.5) * self.h

    def edges(self) -> np.ndarray:
        return self.a + np.arange(self.n_cells + 1) * self.h

    def physical_points(self, ref_nodes: np.ndarray) -> np.ndarray:
        """Map reference nodes in [-1/2, 1/2] into every cell; (n_cells, n) array."""
        return self.cell_centers()[:, None] + np.asarray(ref_nodes) * self.h


class QuadratureRule(NamedTuple):
    """Nodes on the unit reference cell [-1/2, 1/2]; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule, exact through degree 2n-1."""
    if n < 1:
        raise ValueError("Gauss-Legendre rule needs n >= 1")
    x, w = npleg.leggauss(n)
    return QuadratureRule(_frozen(x / 2.0), _frozen(w / 2.0))


@lru_cache(maxsize=None)
def gauss_lobatto_rule(N: int) -> QuadratureRule:
    """N-point Gauss-Lobatto rule (endpoints included), exact through 2N-3."""
    if N < 2:
        raise ValueError("Gauss-Lobatto rule needs N >= 2")
    pn = np.zeros(N)
    pn[N - 1] = 1.0  # coefficients of P_{N-1}
    if N == 2:
        interior = np.array([])
    else:
        interior = npleg.legroots(npleg.legder(pn))
    x = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    w = 2.0 / (N * (N - 1) * npleg.legval(x, pn) ** 2)
    return QuadratureRule(_frozen(x / 2.0), _frozen(w / 2.0))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def test_set_size(k: int) -> int:
    """Smallest Lobatto node count N >= 2 with 2N-3 >= k."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return max(2, ceil((k + 3) / 2))


def basis_values(degree: int, xi) -> np.ndarray:
    """Orthonormal Legendre basis values at reference points; (..., degree+1)."""
    xi = np.asarray(xi, dtype=float)
    V = npleg.legvander(2.0 * xi, degree).reshape(xi.shape + (degree + 1,))
    return V * np.sqrt(2.0 * np.arange(degree + 1) + 1.0)


def basis_table(degree: int, xi_nodes) -> np.ndarray:
    """``basis_values`` at a 1D node set, cached and read-only; (n, degree+1).

    The table keeps the memory layout ``basis_values`` gives it, which is not
    C-contiguous: einsum rounds differently over a contiguous copy, and the
    contractions over this table must round as over a fresh one.
    """
    nodes = np.atleast_1d(np.asarray(xi_nodes, dtype=float))
    return _basis_table(degree, nodes.tobytes())


@lru_cache(maxsize=64)
def _basis_table(degree: int, nodes: bytes) -> np.ndarray:
    V = basis_values(degree, np.frombuffer(nodes))
    V.flags.writeable = False
    return V


def basis_derivatives(degree: int, xi) -> np.ndarray:
    """Reference-coordinate derivatives of the orthonormal basis."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape + (degree + 1,))
    for j in range(1, degree + 1):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        out[..., j] = 2.0 * np.sqrt(2.0 * j + 1.0) \
            * npleg.legval(2.0 * xi, npleg.legder(cj))
    return out


@dataclass
class DGField:
    """Per-cell modal coefficients for the three conserved variables.

    ``coeffs`` has shape (n_cells, 3, degree+1); coefficient 0 equals the
    cell average because the basis is orthonormal with a constant mode of 1.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (3, self.degree + 1):
            raise ValueError("coeffs must have shape (n_cells, 3, degree+1)")

    @property
    def n_cells(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "DGField":
        return DGField(self.degree, self.coeffs.copy())

    def averages(self) -> np.ndarray:
        """Cell averages of (rho, m, E); shape (n_cells, 3). Exact, not a quadrature."""
        return self.coeffs[:, :, 0]


def cell_average(fld: DGField, cell: int) -> ConservedState:
    if not 0 <= cell < fld.n_cells:
        raise IndexError(f"cell {cell} out of range")
    return ConservedState(*fld.coeffs[cell, :, 0])


def evaluate(fld: DGField, cell: int, xi) -> ConservedState:
    """Evaluate the modal expansion of one cell at reference point(s) xi."""
    if not 0 <= cell < fld.n_cells:
        raise IndexError(f"cell {cell} out of range")
    V = basis_values(fld.degree, xi)
    vals = fld.coeffs[cell] @ np.moveaxis(V, -1, 0)
    return ConservedState(vals[0], vals[1], vals[2])


def evaluate_at_nodes(fld: DGField, xi_nodes) -> np.ndarray:
    """Values of every cell polynomial at shared reference nodes; (n_cells, 3, n)."""
    V = basis_table(fld.degree, xi_nodes)
    return np.einsum("cvj,nj->cvn", fld.coeffs, V)


def evaluate_at_x(fld: DGField, mesh: Mesh1D, x) -> np.ndarray:
    """Evaluate the piecewise polynomial at arbitrary physical points; (3, n)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rel = (x - mesh.a) / mesh.h
    idx = np.clip(np.floor(rel).astype(int), 0, mesh.n_cells - 1)
    xi = rel - idx - 0.5
    V = basis_values(fld.degree, xi)  # (n, degree+1)
    return np.einsum("nvj,nj->vn", fld.coeffs[idx], V)


def l2_project(w0: Callable[[np.ndarray], np.ndarray], mesh: Mesh1D,
               degree: int, n_quad: int | None = None) -> DGField:
    """Piecewise L2 projection of initial data onto the modal DG space.

    ``w0`` maps an array of x values to stacked conserved variables of shape
    (3, n).  The inner products use an ``n_quad``-point Gauss-Legendre rule
    (degree+1 points by default), so polynomial data of degree <= degree is
    reproduced exactly.
    """
    if n_quad is None:
        n_quad = degree + 1
    if n_quad < degree + 1:
        raise ValueError("projection requires at least degree+1 quadrature points")
    rule = gauss_legendre_rule(n_quad)
    xs = mesh.physical_points(rule.nodes)  # (n_cells, nq)
    vals = np.asarray(w0(xs.ravel()), dtype=float).reshape(3, mesh.n_cells, n_quad)
    V = basis_values(degree, rule.nodes)  # (nq, degree+1)
    coeffs = np.einsum("vcq,q,qj->cvj", vals, rule.weights, V)
    return DGField(degree, coeffs)


def lax_friedrichs_flux(wL: ConservedState, wR: ConservedState,
                        alpha: float, gamma: float) -> np.ndarray:
    """Central flux plus alpha-weighted dissipation; alpha must bound both signal speeds."""
    FL = physical_flux(wL, gamma)
    FR = physical_flux(wR, gamma)
    jump = np.stack([np.asarray(wR[i], dtype=float) - np.asarray(wL[i], dtype=float)
                     for i in range(3)])
    return 0.5 * (FL + FR) - 0.5 * alpha * jump


def global_max_signal_speed(fld: DGField, gamma: float,
                            rule: QuadratureRule) -> float:
    """Max of |u| + c over all cells at the given reference nodes."""
    vals = evaluate_at_nodes(fld, rule.nodes)
    rho, m, E = np.ascontiguousarray(vals.transpose(1, 0, 2))
    bad = rho <= 0.0
    if np.any(bad):
        cell = int(np.argwhere(bad.any(axis=1))[0][0])
        raise ValueError(f"nonpositive density at test node of cell {cell}")
    p = (gamma - 1.0) * (E - 0.5 * m * m / rho)
    bad = p < 0.0
    if np.any(bad):
        cell = int(np.argwhere(bad.any(axis=1))[0][0])
        raise ValueError(f"negative pressure at test node of cell {cell}")
    return float(np.max(np.abs(m / rho) + np.sqrt(gamma * p / rho)))


def _euler_flux(rho: np.ndarray, m: np.ndarray, E: np.ndarray,
                gamma: float) -> np.ndarray:
    """``physical_flux`` arithmetic for arrays whose density is known nonzero."""
    u = m / rho
    p = (gamma - 1.0) * (E - 0.5 * m**2 / rho)
    return np.stack([m, m * u + p, (E + p) * u])


@lru_cache(maxsize=None)
def _operator_tables(degree: int):
    vol = gauss_legendre_rule(degree + 1)
    Vq = basis_values(degree, vol.nodes)
    Dq = basis_derivatives(degree, vol.nodes)
    phi_left = basis_values(degree, -0.5)
    phi_right = basis_values(degree, 0.5)
    return vol, _frozen(Vq), _frozen(Dq), _frozen(phi_left), _frozen(phi_right)


def spatial_operator(fld: DGField, mesh: Mesh1D, gamma: float, alpha: float,
                     inflow_left: ConservedState | None = None) -> np.ndarray:
    """Semi-discrete DG right-hand side in modal layout; shape of ``fld.coeffs``.

    Volume integrals use degree+1 Gauss-Legendre points; interface fluxes are
    global Lax-Friedrichs with the supplied alpha.  ``inflow_left`` supplies
    the prescribed upstream state for inflow_outflow meshes.  Summation order
    is fixed, so results are reproducible bit-for-bit.
    """
    if fld.n_cells != mesh.n_cells:
        raise ValueError("field and mesh cell counts differ")
    if mesh.boundary == INFLOW_OUTFLOW and inflow_left is None:
        raise ValueError("inflow_outflow boundary needs an inflow_left state")
    vol, Vq, Dq, phi_left, phi_right = _operator_tables(fld.degree)

    # contiguous per variable, so the flux's elementwise passes vectorize
    vals = np.ascontiguousarray(np.einsum("cvj,qj->vcq", fld.coeffs, Vq))
    rho = vals[0]
    if np.any(rho == 0.0):
        cell = int(np.argwhere((rho == 0.0).any(axis=1))[0][0])
        raise ZeroDivisionError(
            f"zero density at volume node of cell {cell}; limiter should have prevented this")
    F = _euler_flux(rho, vals[1], vals[2], gamma)
    volume = np.einsum("vcq,qj->cvj", F * vol.weights, Dq)

    trace_l = np.einsum("cvj,j->vc", fld.coeffs, phi_left)
    trace_r = np.einsum("cvj,j->vc", fld.coeffs, phi_right)
    # states on the left (w[:, 0]) and right (w[:, 1]) of each interface
    w = np.empty((3, 2, fld.n_cells + 1))
    w[:, 0, 1:] = trace_r
    w[:, 1, :-1] = trace_l
    if mesh.boundary == PERIODIC:
        w[:, 0, 0] = trace_r[:, -1]
        w[:, 1, -1] = trace_l[:, 0]
    elif mesh.boundary == INFLOW_OUTFLOW:
        w[:, 0, 0] = inflow_left
        w[:, 1, -1] = trace_r[:, -1]
    else:  # outflow: ghost states copy the interior trace
        w[:, 0, 0] = trace_l[:, 0]
        w[:, 1, -1] = trace_r[:, -1]
    if np.any(w[0] == 0.0):
        raise ZeroDivisionError("zero density at a cell interface trace")
    # lax_friedrichs_flux's arithmetic, without its per-call checks
    Fw = _euler_flux(*w, gamma)  # both sides in one call
    fluxes = 0.5 * (Fw[:, 0] + Fw[:, 1]) \
        - 0.5 * alpha * (w[:, 1] - w[:, 0])  # (3, n_cells+1)

    resid = volume
    resid -= np.einsum("vc,j->cvj", fluxes[:, 1:], phi_right)
    resid += np.einsum("vc,j->cvj", fluxes[:, :-1], phi_left)
    resid /= mesh.h
    return resid
