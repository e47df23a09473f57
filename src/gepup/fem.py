"""Continuous Lagrange Q_k finite elements on uniform tensor-product grids.

Scalar Lagrange spaces of degree 1..4 with Gauss-Lobatto support points and
tensor Gauss-Legendre quadrature with (k+2)^2 points per element (exact
for the mass and stiffness integrands on affine cells).  Everything is
built from one cached 1D tabulation, ``basis_1d``: an ``Axis`` lays it out
along one axis of the grid (1D mass, stiffness and derivative factors,
support coordinates, Gauss points), and a ``FeSpace`` is the product of its
two axes, whose element dofs, support and quadrature points and element
tables are Kronecker products of the 1D ones (sum factorization, Orszag,
J. Comput. Phys. 37, 1980).  The module also holds the element quadrature
loads of the nonlinear term, nodal interpolation and error norms.  The
global matrices are never assembled: ``tensorops`` applies them, and the
boundary loads, as products on the axes.

Vector fields are represented as one coefficient array per component; all
components share the scalar space.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import StructuredQuadMesh

__all__ = [
    "ReferenceElement",
    "Axis",
    "FeSpace",
    "shape_eval",
    "build_space",
    "interpolate",
    "error_norms",
]

MAX_DEGREE = 4


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def gauss_lobatto_01(n_nodes: int) -> np.ndarray:
    """n_nodes Gauss-Lobatto points on [0, 1] (endpoints included)."""
    if n_nodes == 2:
        return np.array([0.0, 1.0])
    interior = np.polynomial.legendre.Legendre.basis(n_nodes - 1).deriv().roots()
    return np.concatenate([[-1.0], np.sort(interior), [1.0]]) / 2.0 + 0.5


def lagrange_1d(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the 1D Lagrange basis on ``nodes`` at ``x``.

    Returns arrays of shape (len(x), len(nodes)).
    """
    x = np.asarray(x, dtype=float)
    m = len(nodes)
    vals = np.ones((len(x), m))
    ders = np.zeros((len(x), m))
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            vals[:, i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
        for l in range(m):
            if l == i:
                continue
            term = np.full(len(x), 1.0 / (nodes[i] - nodes[l]))
            for j in range(m):
                if j == i or j == l:
                    continue
                term *= (x - nodes[j]) / (nodes[i] - nodes[j])
            ders[:, i] += term
    return vals, ders


class Basis1D(NamedTuple):
    """The 1D Lagrange basis of degree k on [0, 1] and its (k+2)-point Gauss rule.

    ``vals`` and ``ders`` are (k+2, k+1): basis values and derivatives at
    the Gauss ``points``.  ``node_vals`` and ``node_ders`` are (k+1, k+1),
    at the Gauss-Lobatto ``nodes``; the first and last rows of
    ``node_ders`` are the basis derivatives at 0 and 1.
    """

    nodes: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    vals: np.ndarray
    ders: np.ndarray
    node_vals: np.ndarray
    node_ders: np.ndarray


@functools.cache
def basis_1d(degree: int) -> Basis1D:
    """The one 1D tabulation every element table, axis factor and load is built from."""
    nodes = gauss_lobatto_01(degree + 1)
    q, w = gauss_legendre_01(degree + 2)
    vals, ders = lagrange_1d(nodes, np.concatenate([q, nodes]))
    n = len(q)
    return Basis1D(nodes, q, w, vals[:n], ders[:n], vals[n:], ders[n:])


def _tensor_tables(vx, dx, vy, dy) -> tuple[np.ndarray, np.ndarray]:
    """Values (npt, n_local) and gradients (npt, n_local, 2) of the tensor basis
    from 1D tables in x and in y; rows run over the point lattice (y slow)."""
    return np.kron(vy, vx), np.stack([np.kron(vy, dx), np.kron(dy, vx)], axis=-1)


class ReferenceElement:
    """Tensor-product Lagrange element of degree k on [0,1]^2.

    Local numbering is row-major over the (k+1)^2 node lattice (x fastest).
    Shape values ``phi`` and gradients ``dphi`` at the (k+2)^2 Gauss-Legendre
    quadrature points, and ``phi_nodes``, ``dphi_nodes`` at the nodes, are
    Kronecker products of the 1D tables of ``basis_1d``.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        self.degree = degree
        b = basis_1d(degree)
        self.nodes_1d = b.nodes
        self.n_local = (degree + 1) ** 2

        QX, QY = np.meshgrid(b.points, b.points, indexing="xy")
        self.quad_points = np.column_stack([QX.ravel(), QY.ravel()])
        self.quad_weights = np.kron(b.weights, b.weights)  # y slow, x fast
        self.n_quad = len(self.quad_weights)
        NX, NY = np.meshgrid(b.nodes, b.nodes, indexing="xy")
        self.node_points = np.column_stack([NX.ravel(), NY.ravel()])

        self.phi, self.dphi = _tensor_tables(b.vals, b.ders, b.vals, b.ders)
        self.phi_nodes, self.dphi_nodes = _tensor_tables(b.node_vals, b.node_ders, b.node_vals, b.node_ders)


@functools.cache
def reference_element(degree: int) -> ReferenceElement:
    return ReferenceElement(degree)


def shape_eval(degree: int, point) -> tuple[np.ndarray, np.ndarray]:
    """Shape values ((k+1)^2,) and gradients ((k+1)^2, 2) at one reference point."""
    ref = reference_element(degree)
    pt = np.atleast_2d(np.asarray(point, dtype=float))
    if pt.shape != (1, 2) or pt.min() < -1e-12 or pt.max() > 1.0 + 1e-12:
        raise ValueError(f"point must lie in the closed unit square, got {point}")
    phi, dphi = _tensor_tables(*lagrange_1d(ref.nodes_1d, pt[:, 0]), *lagrange_1d(ref.nodes_1d, pt[:, 1]))
    return phi[0], dphi[0]


class Axis:
    """One axis of the grid: n_cells uniform cells of width h from ``origin``, degree k.

    Holds the 1D mass, stiffness and derivative factors ``M``, ``K`` and
    ``C`` (C[i, j] = int phi_i phi_j'); the support coordinates ``nodes``
    (n,); the (k+2)-point Gauss points of each cell, ``points``
    (n_cells, k+2), with the weighted basis values that turn samples there
    into a 1D load (``load``); and the basis derivatives at the two ends,
    ``d0`` and ``d1``, so that d0 @ c is the end derivative of the 1D field
    with coefficients c.
    """

    def __init__(self, n_cells: int, h: float, degree: int, origin: float = 0.0):
        k = degree
        b = basis_1d(degree)
        cells = np.arange(n_cells)[:, None]
        self.n = k * n_cells + 1
        self.ends = (origin, origin + n_cells * h)
        self.cell_dofs = k * cells + np.arange(k + 1)[None, :]
        self.nodes = np.empty(self.n)
        self.nodes[self.cell_dofs] = origin + (cells + b.nodes[None, :]) * h  # shared nodes agree exactly
        self.points = origin + (cells + b.points[None, :]) * h
        self.weighted_basis = (b.weights * h)[:, None] * b.vals

        rows = np.repeat(self.cell_dofs, k + 1, axis=1).ravel()
        cols = np.tile(self.cell_dofs, (1, k + 1)).ravel()

        def assemble(local):
            data = np.tile(local.ravel(), n_cells)
            return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsr()

        w, vals, ders = b.weights[:, None], b.vals, b.ders
        self.M = assemble(vals.T @ (w * vals) * h)
        self.K = assemble(ders.T @ (w * ders) / h)
        self.C = assemble(vals.T @ (w * ders))

        self.d0 = np.zeros(self.n)
        self.d0[: k + 1] = b.node_ders[0] / h
        self.d1 = np.zeros(self.n)
        self.d1[-(k + 1):] = b.node_ders[-1] / h

    def load(self, values) -> np.ndarray:
        """1D load sum_q w_q v(x_q) phi_i(x_q) from samples v at ``points``."""
        v = np.broadcast_to(np.asarray(values, dtype=float), self.points.shape)
        contrib = v @ self.weighted_basis
        return np.bincount(self.cell_dofs.ravel(), weights=contrib.ravel(), minlength=self.n)


class FeSpace:
    """Scalar continuous Lagrange space of degree k over a structured mesh.

    Built from its two axes, ``axes`` = (x, y) ``Axis``: the global mass
    and stiffness matrices are My (x) Mx and My (x) Kx + Ky (x) Mx.  Element
    e = j*nx + i has the dofs ay.cell_dofs[j] (x) ax.cell_dofs[i] in local
    order, the support points are the grid of the axes' ``nodes`` and the
    quadrature points the grid of their Gauss ``points``.  The element tables
    are scaled to physical derivatives once: ``quad_phi``, ``quad_dx``,
    ``quad_dy`` (n_local, n_quad) at the quadrature points and ``node_dx``,
    ``node_dy`` (n_local, n_local) at the nodes, C-contiguous, so that
    coeffs[element_dofs] @ table evaluates a field on every element.  The
    load tables ``load_phi``, ``load_dx``, ``load_dy`` (n_quad, n_local) are
    their transposes with the quadrature weights folded in, so that
    values @ table integrates (n_elements, n_quad) samples against the basis.
    """

    def __init__(self, mesh: StructuredQuadMesh, degree: int):
        self.mesh = mesh
        self.degree = degree
        self.ref = ref = reference_element(degree)
        ox, oy = mesh.domain.origin
        self.axes = ax, ay = Axis(mesh.nx, mesh.hx, degree, ox), Axis(mesh.ny, mesh.hy, degree, oy)
        self.ndof_x, self.ndof_y = ax.n, ay.n
        self.n_dofs = ax.n * ay.n

        n_el = mesh.n_elements
        self.element_dofs = (ay.cell_dofs[:, None, :, None] * ax.n + ax.cell_dofs[None, :, None, :]).reshape(n_el, -1)
        X, Y = np.meshgrid(ax.nodes, ay.nodes, indexing="xy")
        self.support_points = np.column_stack([X.ravel(), Y.ravel()])
        grid = np.broadcast_arrays(ax.points[None, :, None, :], ay.points[:, None, :, None])
        self.quad_coords = np.stack(grid, axis=-1).reshape(n_el, ref.n_quad, 2)

        on_boundary = np.ones((ay.n, ax.n), dtype=bool)
        on_boundary[1:-1, 1:-1] = False
        self.boundary_dofs = np.flatnonzero(on_boundary)
        self.interior_dofs = np.flatnonzero(~on_boundary)

        self.wdet = ref.quad_weights * (mesh.hx * mesh.hy)
        self.inv_h = np.array([1.0 / mesh.hx, 1.0 / mesh.hy])
        self.quad_phi, self.quad_dx, self.quad_dy, self.node_dx, self.node_dy = (
            np.ascontiguousarray(T)
            for T in (
                ref.phi.T,
                ref.dphi[:, :, 0].T * self.inv_h[0],
                ref.dphi[:, :, 1].T * self.inv_h[1],
                ref.dphi_nodes[:, :, 0].T * self.inv_h[0],
                ref.dphi_nodes[:, :, 1].T * self.inv_h[1],
            )
        )
        self.load_phi, self.load_dx, self.load_dy = (
            np.ascontiguousarray(self.wdet[:, None] * T.T) for T in (self.quad_phi, self.quad_dx, self.quad_dy)
        )

    # ---- field evaluation --------------------------------------------------

    def values_at_quad(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_elements, n_quad) field values at the volume quadrature points."""
        return coeffs[self.element_dofs] @ self.quad_phi

    def grads_at_quad(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d/dx and d/dy of the field at the volume quadrature points."""
        local = coeffs[self.element_dofs]
        return local @ self.quad_dx, local @ self.quad_dy

    # ---- load assembly -----------------------------------------------------

    def assemble_load(self, quad_values: np.ndarray) -> np.ndarray:
        """Load vector with entries sum_q w_q v(x_q) eta_i(x_q) from (nE, nq) values."""
        contrib = quad_values @ self.load_phi
        return np.bincount(self.element_dofs.ravel(), weights=contrib.ravel(), minlength=self.n_dofs)

    def assemble_gradtest_load(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Load with entries sum_q w_q v(x_q) . grad eta_i(x_q)."""
        contrib = vx @ self.load_dx
        contrib += vy @ self.load_dy
        return np.bincount(self.element_dofs.ravel(), weights=contrib.ravel(), minlength=self.n_dofs)


def build_space(mesh: StructuredQuadMesh, degree: int) -> FeSpace:
    return FeSpace(mesh, degree)


def interpolate(space: FeSpace, fn, t: float = 0.0) -> np.ndarray:
    """Nodal interpolant: coefficient j = fn(x_j, y_j, t)."""
    pts = space.support_points
    return np.asarray(fn(pts[:, 0], pts[:, 1], t), dtype=float)


def error_norms(space: FeSpace, fields, exact, t: float, exact_grads=None) -> dict:
    """Errors of ``fields`` against ``exact``: {"L2", "Linf"} and, given ``exact_grads``, "H1".

    A vector field is a list of per-component coefficient arrays, with
    ``exact(x, y, t)`` returning its components and ``exact_grads(x, y, t)``
    one (d/dx, d/dy) pair per component; a scalar field is one array, with
    ``exact`` returning values and ``exact_grads`` one pair.  L2 and H1
    (full norm) sum the components in quadrature; Linf is the largest
    Euclidean magnitude of the error at the quadrature and support points.
    ``exact`` is evaluated once at each point set, ``exact_grads`` once at
    the quadrature points.
    """
    if isinstance(fields, np.ndarray):
        grads = None if exact_grads is None else (lambda x, y, tt: (exact_grads(x, y, tt),))
        return error_norms(space, [fields], lambda x, y, tt: (exact(x, y, tt),), t, grads)
    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    pts = space.support_points
    l2sq = 0.0
    quad_sq = nodal_sq = 0.0
    for f, e_quad, e_nodal in zip(fields, exact(x, y, t), exact(pts[:, 0], pts[:, 1], t)):
        diff = space.values_at_quad(f) - e_quad
        l2sq += float(np.sum(diff * diff @ space.wdet))
        quad_sq = quad_sq + diff * diff
        nodal_sq = nodal_sq + (f - e_nodal) ** 2
    out = {"L2": np.sqrt(l2sq), "Linf": float(np.sqrt(max(np.max(quad_sq), np.max(nodal_sq))))}
    if exact_grads is not None:
        h1sq = l2sq
        for f, (ex, ey) in zip(fields, exact_grads(x, y, t)):
            gx, gy = space.grads_at_quad(f)
            dxs = gx - ex
            dys = gy - ey
            h1sq += float(np.sum(dxs * dxs @ space.wdet) + np.sum(dys * dys @ space.wdet))
        out["H1"] = np.sqrt(h1sq)
    return out
