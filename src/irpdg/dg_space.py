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
    """Uniform mesh of ``n_cells`` cells on [a, b].

    ``inflow`` is the prescribed upstream state of an inflow_outflow mesh,
    and only of one.
    """

    a: float
    b: float
    n_cells: int
    boundary: str = PERIODIC
    inflow: ConservedState | None = None

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("n_cells must be at least 1")
        if not self.b > self.a:
            raise ValueError("mesh needs b > a")
        if self.boundary not in (PERIODIC, OUTFLOW, INFLOW_OUTFLOW):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")
        if self.boundary == INFLOW_OUTFLOW and self.inflow is None:
            raise ValueError("inflow_outflow boundary needs an inflow state")
        if self.boundary != INFLOW_OUTFLOW and self.inflow is not None:
            raise ValueError("an inflow state needs an inflow_outflow "
                             f"boundary, not {self.boundary!r}")

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


def default_rule(degree: int) -> QuadratureRule:
    """Gauss-Lobatto test set matching the degree (2N-3 >= degree): the
    limiter's nodes, and the CFL bound's wave speed and first weight."""
    return gauss_lobatto_rule(test_set_size(degree))


def basis_values(degree: int, xi) -> np.ndarray:
    """Orthonormal Legendre basis values at reference points; (..., degree+1)."""
    xi = np.asarray(xi, dtype=float)
    V = npleg.legvander(2.0 * xi, degree).reshape(xi.shape + (degree + 1,))
    return V * np.sqrt(2.0 * np.arange(degree + 1) + 1.0)


@lru_cache(maxsize=16)
def _test_table(degree: int) -> np.ndarray:
    """``basis_values`` at the degree's test nodes; (n, degree+1), C order
    and read-only: the layout ``_values_at`` reads a table in."""
    return _frozen(basis_values(degree, default_rule(degree).nodes))


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
    It is stored mode-major, as a view of one C-contiguous (degree+1, 3,
    n_cells) block: ``coeffs.T`` holds each mode of each variable as one
    contiguous row of cells.  Arithmetic on two such arrays keeps the
    layout, and ``tobytes()`` reads (cell, variable, mode) order as from any
    array of the shape.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        # a mode-major float64 array is kept as it is, anything else copied
        # or converted into one
        if not (type(c) is np.ndarray and c.dtype == float
                and c.flags.f_contiguous):
            c = np.ascontiguousarray(np.asarray(c, dtype=float).T).T
        if c.ndim != 3 or c.shape[1:] != (3, self.degree + 1):
            raise ValueError("coeffs must have shape (n_cells, 3, degree+1)")
        self.coeffs = c

    @property
    def n_cells(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "DGField":
        return DGField(self.degree, self.coeffs.copy(order="K"))

    def averages(self) -> np.ndarray:
        """Cell averages of (rho, m, E); shape (n_cells, 3), C-contiguous.

        Exact, not a quadrature.  A copy: summed over the cells, a strided
        view would add in another order.
        """
        return np.ascontiguousarray(self.coeffs[:, :, 0])


def evaluate_at_nodes(fld: DGField, xi_nodes) -> np.ndarray:
    """Values of every cell polynomial at shared reference nodes; (n_cells, 3, n)."""
    V = basis_values(fld.degree, np.atleast_1d(xi_nodes))
    return _values_at(fld.coeffs.T, V).transpose(2, 0, 1)


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


def _values_at(modes: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cell polynomials at a basis table's nodes; (3, n_nodes, n_cells).

    ``modes`` is a C-contiguous mode-major block (k, 3, n_cells), such as
    ``DGField.coeffs.T``.  One einsum over it and ``V.T``, into a C-order
    result, one block per variable.  It sums each value over the modes
    left to right from +0, as the broadcast multiply and sum it replaced
    did, and so as ``einsum("cvj,nj->cvn")`` over ``basis_values``'
    strided mode axis: bit for bit on numpy 2.4 through degree 6, except
    over one node, where that einsum sums otherwise from degree 2 on.  Any
    layout of ``V`` gives these bits; over a C-order ``V`` (``_test_table``)
    the P2 kernel takes half the time at 2560 cells.
    """
    out = np.empty((3, V.shape[0], modes.shape[2]))
    return np.einsum("jvc,jn->vnc", modes, V.T, out=out)


def _max_speed(rho: np.ndarray, m: np.ndarray, p: np.ndarray,
               gamma: float) -> float:
    """Max of |u| + c, |m/rho| + sqrt(gamma p / rho), over node values.

    Unchecked: the caller has made sure that rho > 0 and p >= 0, and sets
    the ``errstate``; an inf or nan speed fails the step's CFL check.
    """
    return float((np.abs(m / rho) + np.sqrt(gamma * p / rho)).max())


def global_max_signal_speed(fld: DGField, gamma: float) -> float:
    """Max of |u| + c over all cells at the test nodes (``default_rule``)."""
    rho, m, E = _values_at(fld.coeffs.T, _test_table(fld.degree))
    bad = rho <= 0.0
    if bad.any():
        cell = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValueError(f"nonpositive density at test node of cell {cell}")
    p = gas_pressure(rho, m, E, gamma)
    bad = p < 0.0
    if bad.any():
        cell = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValueError(f"negative pressure at test node of cell {cell}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    """Volume rule, the basis at the q volume nodes and both cell edges as
    even and odd mode columns ((q+2, modes) each), Dq (q, k) and the edge
    values (k, 1, 1).  C order: over (modes, q+2) tables the node pass keeps
    its bits but took 1.5x as long at 2560 cells."""
    vol = gauss_legendre_rule(degree + 1)
    at_nodes = basis_values(degree, np.append(vol.nodes, [-0.5, 0.5]))
    return (vol, _frozen(at_nodes[:, 0::2]), _frozen(at_nodes[:, 1::2]),
            _frozen(basis_derivatives(degree, vol.nodes)),
            *_frozen(at_nodes[-2:, :, None, None]))


def _node_values(modes: np.ndarray, even: np.ndarray, odd: np.ndarray,
                 out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Mode-major ``modes`` (k, 3, cells) at a table's nodes into ``out``
    (3, nodes, cells); ``even``, ``odd``: its even and odd mode columns.
    Over a strided mode axis einsum sums left to right from +0, so this is
    (0 + p0 + p2 + ...) + (0 + p1 + p3 + ...), the two lanes of an einsum
    over a mode axis contiguous in both operands.  ``tmp`` takes the odd."""
    np.einsum("jvc,nj->vnc", modes[0::2], even, out=out)
    out += np.einsum("jvc,nj->vnc", modes[1::2], odd, out=tmp)
    return out


def spatial_operator(fld: DGField, mesh: Mesh1D, gamma: float,
                     alpha: float) -> np.ndarray:
    """Semi-discrete DG right-hand side; shape and mode-major layout of
    ``fld.coeffs`` (a transposed view of one (k, 3, n_cells) block).

    Volume integrals use degree+1 Gauss-Legendre points; interface fluxes are
    global Lax-Friedrichs with the supplied alpha.  An inflow_outflow mesh
    supplies the prescribed upstream state (``mesh.inflow``).

    The residual is a fresh array on every call, and it belongs to the
    caller, who may write into it.

    Summation order is fixed, so results are reproducible bit for bit.  It
    is the order of the einsums the operator was first written with over
    C-order coefficients: the values at the volume nodes and both edges
    (``einsum("cvj,qj->vcq")`` and ``einsum("cvj,j->vc")``) sum the even
    and the odd modes as two lanes (``_node_values``), and the volume term
    (``einsum("vcq,qj->cvj", F * w, Dq)``) sums the nodes left to right
    from +0.  The sign bit of a NaN in the result is not pinned.
    """
    if fld.n_cells != mesh.n_cells:
        raise ValueError("field and mesh cell counts differ")
    vol, even, odd, Dq, phi_left, phi_right = _operator_tables(fld.degree)
    nq = vol.nodes.size
    n = fld.n_cells

    # rows 0-2: (rho, m, E) at the volume nodes and then at the left and the
    # right edge of every cell, (node, cell) in each row; rows 3-5: the
    # physical flux of those states, which also hold the odd modes' sum
    # until then
    nodes = np.empty((6, nq + 2, n))
    rho = _node_values(fld.coeffs.T, even, odd, nodes[:3], nodes[3:])[0]
    zero = not rho.all()  # some node density is exactly 0
    if zero and np.any(rho[:nq] == 0.0):
        cell = int(np.flatnonzero((rho[:nq] == 0.0).any(axis=0))[0])
        raise ZeroDivisionError(
            f"zero density at volume node of cell {cell}; limiter should have prevented this")
    if zero or (mesh.boundary == INFLOW_OUTFLOW and mesh.inflow[0] == 0.0):
        raise ZeroDivisionError("zero density at a cell interface trace")
    _euler_flux(*nodes[:3], gamma, out=nodes[3:])

    # state and flux on the left and the right of each interface, one
    # contiguous (6, n+1) block each
    left_edge, right_edge = nodes[:, nq], nodes[:, nq + 1]
    w = np.empty((2, 6, n + 1))
    left, right = w
    left[:, 1:] = right_edge
    right[:, :-1] = left_edge
    if mesh.boundary == PERIODIC:
        left[:, 0] = right_edge[:, -1]
        right[:, -1] = left_edge[:, 0]
    elif mesh.boundary == INFLOW_OUTFLOW:
        left[:3, :1] = np.reshape(mesh.inflow, (3, 1))
        _euler_flux(*left[:3, :1], gamma, out=left[3:, :1])
        right[:, -1] = right_edge[:, -1]
    else:  # outflow: ghost states copy the interior trace
        left[:, 0] = left_edge[:, 0]
        right[:, -1] = right_edge[:, -1]
    # Lax-Friedrichs: central flux 0.5 * (f_L + f_R) minus the dissipation
    # 0.5 * alpha * (w_R - w_L), (3, n_cells+1) each
    fluxes = np.add(left[3:], right[3:])
    fluxes *= 0.5
    jump = np.subtract(right[:3], left[:3])
    jump *= 0.5 * alpha
    fluxes -= jump
    del w, left, right, jump  # a smaller peak: freed before the volume term

    F = nodes[3:, :nq]
    F *= vol.weights[:, None]
    resid = np.einsum("vqc,qj->jvc", F, Dq,
                      out=np.empty((fld.degree + 1, 3, n)))
    lift = np.multiply(fluxes[:, 1:], phi_right)
    resid -= lift
    resid += np.multiply(fluxes[:, :-1], phi_left, out=lift)
    resid /= mesh.h
    return resid.T  # mode-major, as fld.coeffs
