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

from .euler_core import ConservedState, gas_pressure

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


@lru_cache(maxsize=64)
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule, exact through degree 2n-1."""
    if n < 1:
        raise ValueError("Gauss-Legendre rule needs n >= 1")
    x, w = npleg.leggauss(n)
    return QuadratureRule(_frozen(x / 2.0), _frozen(w / 2.0))


@lru_cache(maxsize=64)
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
    C-contiguous: einsum rounds differently over a contiguous copy, and
    ``evaluate_at_nodes``' einsum over this table must round as over a fresh
    one.  Its mode axis is strided, so that einsum sums the modes left to
    right from +0; the limiter and ``global_max_signal_speed`` take their
    node values with the same sum (``_values_at``), which equals
    ``einsum("cvj,nj->cvn")`` over a table of two or more nodes bit for bit
    on numpy 2.4, checked through degree 6.  Over a one-node table einsum
    sums otherwise, and the two differ in the last bits from degree 2 on.
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


def _values_at(coeffs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cell polynomials at a basis table's nodes; (3, n_nodes, n_cells).

    One broadcast multiply over the mode-major view ``coeffs.T`` and a sum
    over the modes left to right from +0, einsum's order over ``V``'s
    strided mode axis (see ``basis_table``).  The sum comes out with the
    variable axis fastest; the C-order copy makes each variable one
    contiguous block, which the elementwise passes after it run faster on.
    """
    return np.ascontiguousarray(
        np.add.reduce(coeffs.T[:, :, None, :] * V.T[:, None, :, None]))


def _max_speed(rho: np.ndarray, m: np.ndarray, p: np.ndarray,
               gamma: float) -> float:
    """Max of |u| + c, |m/rho| + sqrt(gamma p / rho), over node values.

    Unchecked: the caller has made sure that rho > 0 and p >= 0.
    """
    return float((np.abs(m / rho) + np.sqrt(gamma * p / rho)).max())


def global_max_signal_speed(fld: DGField, gamma: float,
                            rule: QuadratureRule) -> float:
    """Max of |u| + c over all cells at the given reference nodes."""
    rho, m, E = _values_at(fld.coeffs, basis_table(fld.degree, rule.nodes))
    bad = rho <= 0.0
    if bad.any():
        cell = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValueError(f"nonpositive density at test node of cell {cell}")
    p = gas_pressure(rho, m, E, gamma)
    bad = p < 0.0
    if bad.any():
        cell = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValueError(f"negative pressure at test node of cell {cell}")
    return _max_speed(rho, m, p, gamma)


def _euler_flux(rho: np.ndarray, m: np.ndarray, E: np.ndarray, gamma: float,
                out: np.ndarray) -> np.ndarray:
    """Euler flux (m, m*u + p, (E + p)*u), u = m/rho, into ``out``; rho != 0.

    Done in place where that saves a temporary.
    """
    u = m / rho
    p = gas_pressure(rho, m, E, gamma)
    out[0] = m
    np.multiply(m, u, out=out[1])
    out[1] += p
    np.add(E, p, out=out[2])
    out[2] *= u
    return out


@lru_cache(maxsize=64)
def _operator_tables(degree: int):
    """Volume rule and the tables, shaped to broadcast in ``spatial_operator``.

    The node table (k, 1, q+2, 1) meets the mode-major coefficient view
    (k, 3, 1, n_cells); its columns are the q volume nodes, then the left
    and the right cell edge.  Dq is (q, k, 1, 1), the edge values (k, 1, 1).
    """
    vol = gauss_legendre_rule(degree + 1)
    Vq = basis_values(degree, vol.nodes)
    phi_left = basis_values(degree, -0.5)
    phi_right = basis_values(degree, 0.5)
    at_nodes = np.concatenate([Vq.T, phi_left[:, None], phi_right[:, None]],
                              axis=1)
    Dq = basis_derivatives(degree, vol.nodes)
    return (vol, _frozen(at_nodes[:, None, :, None]),
            _frozen(Dq[:, :, None, None]), _frozen(phi_left[:, None, None]),
            _frozen(phi_right[:, None, None]))


def _einsum_order_sum(a: np.ndarray, b: np.ndarray, lanes: int,
                      out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``sum_j a[j] * b[j]`` into ``out``, in the order einsum sums axis j.

    einsum keeps ``lanes`` partial sums, lane i adding the terms i,
    i + lanes, ... left to right from +0, and adds the lanes in order: two
    lanes where the axis is contiguous in both operands,
    (0 + p0 + p2 + p4 + p6) + (0 + p1 + p3 + p5), and one where it is strided
    in one of them (numpy 2.4, checked for axis lengths 1-7).  ``tmp``, of
    ``out``'s shape, takes the first lane's products and then holds the
    second lane, so with up to three terms no product needs a new array.
    """
    np.multiply(a[0], b[0], out=out)
    for j in range(lanes, len(a), lanes):
        out += np.multiply(a[j], b[j], out=tmp)
    for lane in range(1, min(lanes, len(a))):
        acc = np.multiply(a[lane], b[lane], out=tmp)
        for j in range(lane + lanes, len(a), lanes):
            acc += a[j] * b[j]
        out += acc
    out += 0.0  # the lanes start from +0, so a sum of -0 terms is +0
    return out


def spatial_operator(fld: DGField, mesh: Mesh1D, gamma: float, alpha: float,
                     inflow_left: ConservedState | None = None) -> np.ndarray:
    """Semi-discrete DG right-hand side in modal layout; shape of ``fld.coeffs``.

    Volume integrals use degree+1 Gauss-Legendre points; interface fluxes are
    global Lax-Friedrichs with the supplied alpha.  ``inflow_left`` supplies
    the prescribed upstream state for inflow_outflow meshes.

    Summation order is fixed, so results are reproducible bit for bit.  It is
    the order of the einsums the operator was first written with, on numpy
    2.4 and through degree 6: each contraction is a broadcast multiply over
    the mode-major view ``fld.coeffs.T`` and a sum over the contracted axis.
    The values at the volume nodes and both edges (``einsum("cvj,qj->vcq")``
    and ``einsum("cvj,j->vc")``, over a contiguous mode axis) sum in two
    lanes (``_einsum_order_sum``); the volume term
    (``einsum("vcq,qj->cvj", F * w, Dq)``) sums the nodes left to right.
    """
    if fld.n_cells != mesh.n_cells:
        raise ValueError("field and mesh cell counts differ")
    if mesh.boundary == INFLOW_OUTFLOW and inflow_left is None:
        raise ValueError("inflow_outflow boundary needs an inflow_left state")
    vol, at_nodes, Dq, phi_left, phi_right = _operator_tables(fld.degree)
    nq = vol.nodes.size
    n = fld.n_cells

    # rows 0-2: (rho, m, E) at the volume nodes and then at the left and the
    # right edge of every cell, (node, cell) in each row; rows 3-5: the
    # physical flux of those states, which also hold the products until then
    nodes = np.empty((6, nq + 2, n))
    rho = _einsum_order_sum(fld.coeffs.T[:, :, None, :], at_nodes, 2,
                            out=nodes[:3], tmp=nodes[3:])[0]
    zero = not rho.all()  # some node density is exactly 0
    if zero and np.any(rho[:nq] == 0.0):
        cell = int(np.flatnonzero((rho[:nq] == 0.0).any(axis=0))[0])
        raise ZeroDivisionError(
            f"zero density at volume node of cell {cell}; limiter should have prevented this")
    if zero or (mesh.boundary == INFLOW_OUTFLOW and inflow_left[0] == 0.0):
        raise ZeroDivisionError("zero density at a cell interface trace")
    _euler_flux(*nodes[:3], gamma, out=nodes[3:])

    # state and flux on the left (w[:, 0]) and right (w[:, 1]) of each interface
    left_edge, right_edge = nodes[:, nq], nodes[:, nq + 1]
    w = np.empty((6, 2, n + 1))
    w[:, 0, 1:] = right_edge
    w[:, 1, :-1] = left_edge
    if mesh.boundary == PERIODIC:
        w[:, 0, 0] = right_edge[:, -1]
        w[:, 1, -1] = left_edge[:, 0]
    elif mesh.boundary == INFLOW_OUTFLOW:
        w[:3, 0, :1] = np.reshape(inflow_left, (3, 1))
        _euler_flux(*w[:3, 0, :1], gamma, out=w[3:, 0, :1])
        w[:, 1, -1] = right_edge[:, -1]
    else:  # outflow: ghost states copy the interior trace
        w[:, 0, 0] = left_edge[:, 0]
        w[:, 1, -1] = right_edge[:, -1]
    # Lax-Friedrichs: central flux plus alpha-weighted dissipation
    fluxes = 0.5 * (w[3:, 0] + w[3:, 1]) \
        - 0.5 * alpha * (w[:3, 1] - w[:3, 0])  # (3, n_cells+1)
    del w  # a smaller peak footprint: freed before the volume term

    F = nodes[3:, :nq]
    F *= vol.weights[:, None]
    resid = np.empty((fld.degree + 1, 3, n))
    _einsum_order_sum(F.transpose(1, 0, 2)[:, None], Dq, 1, out=resid,
                      tmp=np.empty_like(resid))
    resid -= fluxes[:, 1:] * phi_right
    resid += fluxes[:, :-1] * phi_left
    # the last pass also lays the result out as fld.coeffs, (n_cells, 3, k)
    return np.divide(resid.T, mesh.h, out=np.empty_like(fld.coeffs))
