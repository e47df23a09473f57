"""Continuous Lagrange Q_k finite elements on structured quad meshes.

Scalar tensor-product Lagrange spaces of degree 1..4 with Gauss-Lobatto
support points, tensor Gauss-Legendre quadrature with (k+2)^2 points per
element (exact for the mass and stiffness integrands on affine cells),
element quadrature loads for the nonlinear term, nodal interpolation and
error norms.  The global matrices are never assembled: they are Kronecker
products of the 1D factors in ``tensorops``, which also carries the
boundary loads.

Vector fields are represented as one coefficient array per component; all
components share the scalar space.
"""

from __future__ import annotations

import numpy as np

from .mesh import StructuredQuadMesh

__all__ = [
    "ReferenceElement",
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


class ReferenceElement:
    """Tensor-product Lagrange element of degree k on [0,1]^2.

    Local numbering is row-major over the (k+1)^2 node lattice (x fastest).
    Tabulates shape values/gradients at the (k+2)^2 Gauss-Legendre volume
    quadrature points and at the nodes.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        self.degree = degree
        k = degree
        self.nodes_1d = gauss_lobatto_01(k + 1)
        self.n_local = (k + 1) ** 2

        q1, w1 = gauss_legendre_01(k + 2)
        QX, QY = np.meshgrid(q1, q1, indexing="xy")
        self.quad_points = np.column_stack([QX.ravel(), QY.ravel()])
        self.quad_weights = np.outer(w1, w1).ravel()  # y slow, x fast
        self.n_quad = len(self.quad_weights)

        self.phi, self.dphi = self._tabulate(self.quad_points)

        node_grid = np.column_stack(
            [np.tile(self.nodes_1d, k + 1), np.repeat(self.nodes_1d, k + 1)]
        )
        self.node_points = node_grid
        self.phi_nodes, self.dphi_nodes = self._tabulate(node_grid)

    def _tabulate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vx, dx = lagrange_1d(self.nodes_1d, points[:, 0])
        vy, dy = lagrange_1d(self.nodes_1d, points[:, 1])
        k1 = self.degree + 1
        npt = len(points)
        phi = np.empty((npt, self.n_local))
        dphi = np.empty((npt, self.n_local, 2))
        for b in range(k1):
            for a in range(k1):
                n = b * k1 + a
                phi[:, n] = vx[:, a] * vy[:, b]
                dphi[:, n, 0] = dx[:, a] * vy[:, b]
                dphi[:, n, 1] = vx[:, a] * dy[:, b]
        return phi, dphi


_REF_CACHE: dict[int, ReferenceElement] = {}


def reference_element(degree: int) -> ReferenceElement:
    if degree not in _REF_CACHE:
        _REF_CACHE[degree] = ReferenceElement(degree)
    return _REF_CACHE[degree]


def shape_eval(degree: int, point) -> tuple[np.ndarray, np.ndarray]:
    """Shape values ((k+1)^2,) and gradients ((k+1)^2, 2) at one reference point."""
    ref = reference_element(degree)
    pt = np.atleast_2d(np.asarray(point, dtype=float))
    if pt.shape != (1, 2) or pt.min() < -1e-12 or pt.max() > 1.0 + 1e-12:
        raise ValueError(f"point must lie in the closed unit square, got {point}")
    phi, dphi = ref._tabulate(pt)
    return phi[0], dphi[0]


class FeSpace:
    """Scalar continuous Lagrange space of degree k over a structured mesh."""

    def __init__(self, mesh: StructuredQuadMesh, degree: int):
        self.mesh = mesh
        self.degree = degree
        self.ref = reference_element(degree)
        k = degree
        self.ndof_x = k * mesh.nx + 1
        self.ndof_y = k * mesh.ny + 1
        self.n_dofs = self.ndof_x * self.ndof_y

        self.element_dofs = self._build_element_dofs()
        self.support_points = self._build_support_points()

        gx = np.arange(self.n_dofs) % self.ndof_x
        gy = np.arange(self.n_dofs) // self.ndof_x
        self.boundary_mask = (gx == 0) | (gx == self.ndof_x - 1) | (gy == 0) | (gy == self.ndof_y - 1)
        self.boundary_dofs = np.flatnonzero(self.boundary_mask)
        self.interior_dofs = np.flatnonzero(~self.boundary_mask)

        self.detJ = mesh.hx * mesh.hy
        self.wdet = self.ref.quad_weights * self.detJ
        self.inv_h = np.array([1.0 / mesh.hx, 1.0 / mesh.hy])
        self.quad_coords = self._build_quad_coords()

    def _build_element_dofs(self) -> np.ndarray:
        k = self.degree
        mesh = self.mesh
        i = np.arange(mesh.nx)
        j = np.arange(mesh.ny)
        I, J = np.meshgrid(i, j, indexing="xy")
        base = (k * J * self.ndof_x + k * I).ravel()  # dof at local (0,0)
        a = np.arange(k + 1)
        local = (a[None, :] + self.ndof_x * a[:, None]).ravel()  # row-major (k+1)^2 offsets
        return base[:, None] + local[None, :]

    def _build_support_points(self) -> np.ndarray:
        k = self.degree
        mesh = self.mesh
        nodes = self.ref.nodes_1d

        def axis_coords(n_cells, origin, h, ndof):
            g = np.arange(ndof)
            cell = np.minimum(g // k, n_cells - 1)
            a = g - k * cell
            return origin + (cell + nodes[a]) * h

        xs = axis_coords(mesh.nx, mesh.domain.origin[0], mesh.hx, self.ndof_x)
        ys = axis_coords(mesh.ny, mesh.domain.origin[1], mesh.hy, self.ndof_y)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def _build_quad_coords(self) -> np.ndarray:
        mesh = self.mesh
        e = np.arange(mesh.n_elements)
        ox = mesh.domain.origin[0] + (e % mesh.nx) * mesh.hx
        oy = mesh.domain.origin[1] + (e // mesh.nx) * mesh.hy
        pts = np.empty((mesh.n_elements, self.ref.n_quad, 2))
        pts[:, :, 0] = ox[:, None] + self.ref.quad_points[None, :, 0] * mesh.hx
        pts[:, :, 1] = oy[:, None] + self.ref.quad_points[None, :, 1] * mesh.hy
        return pts

    # ---- field evaluation --------------------------------------------------

    def values_at_quad(self, coeffs: np.ndarray) -> np.ndarray:
        """(n_elements, n_quad) field values at the volume quadrature points."""
        return coeffs[self.element_dofs] @ self.ref.phi.T

    def grads_at_quad(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d/dx and d/dy of the field at the volume quadrature points."""
        local = coeffs[self.element_dofs]
        gx = (local @ self.ref.dphi[:, :, 0].T) * self.inv_h[0]
        gy = (local @ self.ref.dphi[:, :, 1].T) * self.inv_h[1]
        return gx, gy

    # ---- load assembly -----------------------------------------------------

    def assemble_load(self, quad_values: np.ndarray) -> np.ndarray:
        """Load vector with entries sum_q w_q v(x_q) eta_i(x_q) from (nE, nq) values."""
        contrib = (quad_values * self.wdet[None, :]) @ self.ref.phi
        return np.bincount(self.element_dofs.ravel(), weights=contrib.ravel(), minlength=self.n_dofs)

    def assemble_gradtest_load(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Load with entries sum_q w_q v(x_q) . grad eta_i(x_q)."""
        contrib = (vx * self.wdet[None, :]) @ (self.ref.dphi[:, :, 0] * self.inv_h[0])
        contrib += (vy * self.wdet[None, :]) @ (self.ref.dphi[:, :, 1] * self.inv_h[1])
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
