"""Continuous Lagrange Q_k finite elements on structured quad meshes.

Scalar tensor-product Lagrange spaces of degree 1..4 with Gauss-Lobatto
support points, tensor Gauss-Legendre quadrature with (k+2)^2 points per
element (exact for the mass and stiffness integrands on affine cells),
quadrature loads on elements and boundary faces, nodal interpolation and
error norms.  The global matrices are never assembled: they are Kronecker
products of the 1D factors in ``tensorops``.

Vector fields are represented as one coefficient array per component; all
components share the scalar space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredQuadMesh

__all__ = [
    "ReferenceElement",
    "FeSpace",
    "shape_eval",
    "build_space",
    "interpolate",
    "error_norm",
    "vector_error_norm",
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
    quadrature points and at the (k+2)-point rules of the four edges
    (0 bottom, 1 right, 2 top, 3 left).
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        self.degree = degree
        k = degree
        self.nodes_1d = gauss_lobatto_01(k + 1)
        self.n_local = (k + 1) ** 2

        q1, w1 = gauss_legendre_01(k + 2)
        self.quad_1d = q1
        self.quad_w1d = w1
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

        self.face_phi = []
        self.face_dphi = []
        for side in range(4):
            pts = self._face_points(side, q1)
            fphi, fdphi = self._tabulate(pts)
            self.face_phi.append(fphi)
            self.face_dphi.append(fdphi)

    @staticmethod
    def _face_points(side: int, t: np.ndarray) -> np.ndarray:
        if side == 0:
            return np.column_stack([t, np.zeros_like(t)])
        if side == 1:
            return np.column_stack([np.ones_like(t), t])
        if side == 2:
            return np.column_stack([t, np.ones_like(t)])
        return np.column_stack([np.zeros_like(t), t])

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


@dataclass(frozen=True)
class FaceData:
    """Boundary quadrature tables for one side of the domain (shared by all faces there)."""

    side: int
    elements: np.ndarray        # element ids along this side
    normal: np.ndarray          # unit outward normal (2,)
    tangent: np.ndarray         # counterclockwise tangent (-ny, nx)
    weights: np.ndarray         # 1D quadrature weights * face length
    points: np.ndarray          # (n_faces, n_qf, 2) global quad coordinates
    phi: np.ndarray             # (n_qf, n_local) shape values on the face
    dphi: np.ndarray            # (n_qf, n_local, 2) reference gradients on the face


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
        self.faces = self._build_faces()

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

    def _build_faces(self) -> list[FaceData]:
        mesh = self.mesh
        q1 = self.ref.quad_1d
        w1 = self.ref.quad_w1d
        ox, oy = mesh.domain.origin
        ex, ey = mesh.domain.extent
        out = []
        for face in range(4):
            if face == 0:
                els = np.arange(mesh.nx)
                xq = ox + (np.arange(mesh.nx)[:, None] + q1[None, :]) * mesh.hx
                yq = np.full_like(xq, oy)
                length = mesh.hx
            elif face == 1:
                els = np.arange(mesh.ny) * mesh.nx + mesh.nx - 1
                yq = oy + (np.arange(mesh.ny)[:, None] + q1[None, :]) * mesh.hy
                xq = np.full_like(yq, ox + ex)
                length = mesh.hy
            elif face == 2:
                els = (mesh.ny - 1) * mesh.nx + np.arange(mesh.nx)
                xq = ox + (np.arange(mesh.nx)[:, None] + q1[None, :]) * mesh.hx
                yq = np.full_like(xq, oy + ey)
                length = mesh.hx
            else:
                els = np.arange(mesh.ny) * mesh.nx
                yq = oy + (np.arange(mesh.ny)[:, None] + q1[None, :]) * mesh.hy
                xq = np.full_like(yq, ox)
                length = mesh.hy
            normal = np.array(((0, -1), (1, 0), (0, 1), (-1, 0))[face], dtype=float)
            tangent = np.array([-normal[1], normal[0]])
            out.append(
                FaceData(
                    side=face,
                    elements=els,
                    normal=normal,
                    tangent=tangent,
                    weights=w1 * length,
                    points=np.stack([xq, yq], axis=-1),
                    phi=self.ref.face_phi[face],
                    dphi=self.ref.face_dphi[face],
                )
            )
        return out

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

    def grads_on_face(self, face: FaceData, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        local = coeffs[self.element_dofs[face.elements]]
        gx = (local @ face.dphi[:, :, 0].T) * self.inv_h[0]
        gy = (local @ face.dphi[:, :, 1].T) * self.inv_h[1]
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

    def add_face_load(self, load: np.ndarray, face: FaceData, face_values: np.ndarray, scale: float = 1.0):
        """Accumulate sum_q w_q v(x_q) eta_i(x_q) over one boundary side into ``load``."""
        contrib = (face_values * face.weights[None, :]) @ face.phi * scale
        rows = self.element_dofs[face.elements]
        np.add.at(load, rows.ravel(), contrib.ravel())

    def add_face_tangent_grad_load(self, load: np.ndarray, face: FaceData, face_values: np.ndarray, scale: float = 1.0):
        """Accumulate sum_q w_q v(x_q) (tangent . grad eta_i)(x_q) over one side."""
        tgrad = face.dphi[:, :, 0] * (face.tangent[0] * self.inv_h[0]) + face.dphi[:, :, 1] * (
            face.tangent[1] * self.inv_h[1]
        )
        contrib = (face_values * face.weights[None, :]) @ tgrad * scale
        rows = self.element_dofs[face.elements]
        np.add.at(load, rows.ravel(), contrib.ravel())


def build_space(mesh: StructuredQuadMesh, degree: int) -> FeSpace:
    return FeSpace(mesh, degree)


def interpolate(space: FeSpace, fn, t: float = 0.0) -> np.ndarray:
    """Nodal interpolant: coefficient j = fn(x_j, y_j, t)."""
    pts = space.support_points
    return np.asarray(fn(pts[:, 0], pts[:, 1], t), dtype=float)


def _as_diff_samples(space: FeSpace, field, exact, t):
    vals = space.values_at_quad(field)
    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    return vals - exact(x, y, t)


def error_norm(space: FeSpace, field: np.ndarray, exact, t: float, norm: str = "L2", exact_grad=None) -> float:
    """Error ||field - exact|| in the L2, H1 (full) or Linf norm.

    ``exact_grad(x, y, t) -> (dx, dy)`` is required for the H1 norm.  Linf is
    sampled at the quadrature and support points.
    """
    if norm == "Linf":
        diff = _as_diff_samples(space, field, exact, t)
        pts = space.support_points
        nodal = field - exact(pts[:, 0], pts[:, 1], t)
        return max(np.abs(diff).max(), np.abs(nodal).max())
    diff = _as_diff_samples(space, field, exact, t)
    l2sq = float(np.sum(diff * diff @ space.wdet))
    if norm == "L2":
        return np.sqrt(l2sq)
    if norm == "H1":
        if exact_grad is None:
            raise ValueError("H1 norm needs exact_grad")
        gx, gy = space.grads_at_quad(field)
        x = space.quad_coords[:, :, 0]
        y = space.quad_coords[:, :, 1]
        ex, ey = exact_grad(x, y, t)
        dxs = gx - ex
        dys = gy - ey
        h1sq = float(np.sum(dxs * dxs @ space.wdet) + np.sum(dys * dys @ space.wdet))
        return np.sqrt(l2sq + h1sq)
    raise ValueError(f"unknown norm {norm!r}")


def vector_error_norm(space: FeSpace, fields, exact_vec, t: float, norm: str = "L2", exact_grads=None) -> float:
    """Error norm of a vector field stored as per-component coefficient arrays.

    L2/H1 combine components in quadrature; Linf is the max Euclidean
    magnitude of the error over quadrature and support points.
    ``exact_grads(x, y, t)`` must return ((dux_dx, dux_dy), (duy_dx, duy_dy)).
    """
    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    ex = exact_vec(x, y, t)
    if norm == "Linf":
        magsq = 0.0
        for d, f in enumerate(fields):
            diff = space.values_at_quad(f) - ex[d]
            magsq = magsq + diff * diff
        pts = space.support_points
        en = exact_vec(pts[:, 0], pts[:, 1], t)
        nodsq = 0.0
        for d, f in enumerate(fields):
            diff = f - en[d]
            nodsq = nodsq + diff * diff
        return float(np.sqrt(max(magsq.max(), nodsq.max())))
    total = 0.0
    for d, f in enumerate(fields):
        diff = space.values_at_quad(f) - ex[d]
        total += float(np.sum(diff * diff @ space.wdet))
    if norm == "L2":
        return np.sqrt(total)
    if norm == "H1":
        if exact_grads is None:
            raise ValueError("H1 norm needs exact_grads")
        eg = exact_grads(x, y, t)
        for d, f in enumerate(fields):
            gx, gy = space.grads_at_quad(f)
            dxs = gx - eg[d][0]
            dys = gy - eg[d][1]
            total += float(np.sum(dxs * dxs @ space.wdet) + np.sum(dys * dys @ space.wdet))
        return np.sqrt(total)
    raise ValueError(f"unknown norm {norm!r}")


def normal_trace(face: FaceData, g, t: float) -> np.ndarray:
    """g . n at the quadrature points of one boundary side, (n_faces, n_qf)."""
    x = face.points[:, :, 0]
    y = face.points[:, :, 1]
    gx, gy = g(x, y, t)
    gn = np.broadcast_to(np.asarray(gx, dtype=float), x.shape) * face.normal[0]
    return gn + np.broadcast_to(np.asarray(gy, dtype=float), x.shape) * face.normal[1]


def boundary_flux(space: FeSpace, g, t: float) -> float:
    """Integral of g . n over the domain boundary by face quadrature."""
    return sum(float(np.sum(normal_trace(face, g, t) @ face.weights)) for face in space.faces)
