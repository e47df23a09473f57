"""Tensor-product structure of the global matrices and linear loads.

On a uniform structured grid with row-major numbering the global mass and
stiffness matrices factor as M = My (x) Mx and A = My (x) Kx + Ky (x) Mx,
where Mx, Kx, My, Ky are small 1D mass/stiffness matrices.  With the 1D
derivative factor C[i, j] = int phi_i phi_j' the loads of a partial
derivative factor the same way: (dq/dx, eta) = My Q Cx^T and
(dq/dy, eta) = Cy Q Mx^T for the coefficient array Q reshaped to
(ndof_y, ndof_x).  The boundary loads are 1D too: on a side of the
rectangle only one row or column of test functions is nonzero, so a flux
(g . n, eta) is a 1D quadrature load along that side, and the curl term
(curl u, tangent . grad eta) is a product of the 1D factors with the basis
derivatives at the axis ends.  Every product of the solver is applied
through these 1D axes: matvecs, linear and boundary loads and residuals,
and the generalized eigenpairs of the same factors diagonalize every solve
(see ``linsolve``).  No 2D matrix is assembled.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .fem import FeSpace, gauss_legendre_01, gauss_lobatto_01, lagrange_1d

__all__ = [
    "Axis",
    "one_dimensional_factors",
    "boundary_normal_load",
    "curl_boundary_load",
    "TensorOperator",
    "TensorGradient",
]


@functools.cache
def _basis_1d(degree: int):
    """(k+2)-point Gauss rule on [0, 1], the Lagrange basis values and derivatives
    at its points, and the basis derivatives at 0 and 1.

    Cached because every ``check_boundary_compatibility`` call builds axes.
    """
    q, w = gauss_legendre_01(degree + 2)
    vals, ders = lagrange_1d(gauss_lobatto_01(degree + 1), np.concatenate([q, [0.0, 1.0]]))
    return q, w, vals[:-2], ders[:-2], ders[-2:]


class Axis:
    """One axis of the grid: n_cells uniform cells of width h from ``origin``, degree k.

    Holds the 1D mass, stiffness and derivative factors ``M``, ``K`` and
    ``C`` (C[i, j] = int phi_i phi_j'); the (k+2)-point Gauss points of each
    cell, ``points`` (n_cells, k+2), with the weighted basis values that turn
    samples there into a 1D load (``load``); and the basis derivatives at the
    two ends, ``d0`` and ``d1``, so that d0 @ c is the end derivative of the
    1D field with coefficients c.
    """

    def __init__(self, n_cells: int, h: float, degree: int, origin: float = 0.0):
        k = degree
        q, w, vals, ders, end_ders = _basis_1d(degree)
        self.n = k * n_cells + 1
        self.ends = (origin, origin + n_cells * h)
        self.cell_dofs = k * np.arange(n_cells)[:, None] + np.arange(k + 1)[None, :]
        self.points = origin + (np.arange(n_cells)[:, None] + q[None, :]) * h
        self.weighted_basis = (w * h)[:, None] * vals

        rows = np.repeat(self.cell_dofs, k + 1, axis=1).ravel()
        cols = np.tile(self.cell_dofs, (1, k + 1)).ravel()

        def assemble(local):
            data = np.tile(local.ravel(), n_cells)
            return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsr()

        self.M = assemble(vals.T @ (w[:, None] * vals) * h)
        self.K = assemble(ders.T @ (w[:, None] * ders) / h)
        self.C = assemble(vals.T @ (w[:, None] * ders))

        self.d0 = np.zeros(self.n)
        self.d0[: k + 1] = end_ders[0] / h
        self.d1 = np.zeros(self.n)
        self.d1[-(k + 1):] = end_ders[1] / h

    def load(self, values) -> np.ndarray:
        """1D load sum_q w_q v(x_q) phi_i(x_q) from samples v at ``points``."""
        v = np.broadcast_to(np.asarray(values, dtype=float), self.points.shape)
        contrib = v @ self.weighted_basis
        return np.bincount(self.cell_dofs.ravel(), weights=contrib.ravel(), minlength=self.n)


def one_dimensional_factors(space: FeSpace) -> tuple[Axis, Axis]:
    """The x and y axes of the space's grid, with M2D = My (x) Mx and A2D = My (x) Kx + Ky (x) Mx."""
    mesh = space.mesh
    ox, oy = mesh.domain.origin
    return Axis(mesh.nx, mesh.hx, space.degree, ox), Axis(mesh.ny, mesh.hy, space.degree, oy)


def boundary_normal_load(axes, g, t: float) -> np.ndarray:
    """(g . n, eta_i) over the four sides of the rectangle the axes (x, y) span.

    Returns an (ndof_y, ndof_x) array that is zero off the boundary ring.
    Each side is integrated with the Gauss points of the axis it runs along;
    ``g(x, y, t)`` returns the components (g_x, g_y).
    """
    ax, ay = axes
    load = np.zeros((ay.n, ax.n))
    for row, y, sign in ((0, ay.ends[0], -1.0), (-1, ay.ends[1], 1.0)):  # bottom, top: n = (0, sign)
        load[row, :] += sign * ax.load(g(ax.points, np.full_like(ax.points, y), t)[1])
    for col, x, sign in ((0, ax.ends[0], -1.0), (-1, ax.ends[1], 1.0)):  # left, right: n = (sign, 0)
        load[:, col] += sign * ay.load(g(np.full_like(ay.points, x), ay.points, t)[0])
    return load


def curl_boundary_load(axes, U) -> np.ndarray:
    """(curl u, tau . grad eta_i) over the boundary, tau the counterclockwise tangent.

    Returns an (ndof_y, ndof_x) array that is zero off the boundary ring.
    With Ux, Uy the components reshaped to (ndof_y, ndof_x), the bottom row
    is Kx Uy[0] - Cx^T (d0y Ux): curl u = du_y/dx - du_x/dy on y = y0,
    tested against the x derivative of the row's basis.  The top row flips
    the sign of the tangent, and the columns follow in y.  Exact: no
    quadrature is involved beyond that of the 1D factors.
    """
    ax, ay = axes
    Ux, Uy = (u.reshape(ay.n, ax.n) for u in U)
    load = np.zeros((ay.n, ax.n))
    for row, d, sign in ((0, ay.d0, 1.0), (-1, ay.d1, -1.0)):  # bottom, top: tau = (sign, 0)
        load[row, :] += sign * (ax.K @ Uy[row] - ax.C.T @ (d @ Ux))
    for col, d, sign in ((0, ax.d0, -1.0), (-1, ax.d1, 1.0)):  # left, right: tau = (0, sign)
        load[:, col] += sign * (ay.C.T @ (Uy @ d) - ay.K @ Ux[:, col])
    return load


def _abs_row_sums(F) -> np.ndarray:
    return np.asarray(abs(F).sum(axis=1)).ravel()


def _times_transpose(X: np.ndarray, F: sp.csr_matrix) -> np.ndarray:
    """X @ F^T as the sparse-times-dense product (F @ X^T)^T, C-contiguous."""
    return (F @ np.ascontiguousarray(X.T)).T.copy()


class TensorOperator:
    """alpha * mass + beta * stiffness applied through sparse 1D factors (Mx, Kx, My, Ky).

    Acts on row-major vectors over the (ndof_y, ndof_x) grid the factors
    span (for the interior block, pass the factors with their first and last
    rows and columns removed).  ``norm_bound`` is an upper bound on the
    operator's infinity norm, hence on its 2-norm (the operator is
    symmetric), from the absolute row sums of the factors.
    """

    def __init__(self, factors, alpha: float, beta: float):
        Mx, Kx, My, Ky = factors
        self.Mx, self.Kx, self.My, self.Ky = Mx, Kx, My, Ky
        self.alpha = alpha
        self.beta = beta
        self.grid = (My.shape[0], Mx.shape[0])
        n = self.grid[0] * self.grid[1]
        self.shape = (n, n)
        rmx, rkx, rmy, rky = (_abs_row_sums(F) for F in (Mx, Kx, My, Ky))
        rows = abs(alpha) * np.outer(rmy, rmx) + abs(beta) * (np.outer(rmy, rkx) + np.outer(rky, rmx))
        self.norm_bound = float(rows.max()) if rows.size else 0.0

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        XT = np.ascontiguousarray(x.reshape(self.grid).T)
        P1 = (self.Mx @ XT).T.copy()  # X Mx^T: the (My (x) Mx) building block
        if self.beta == 0.0:
            return (self.alpha * (self.My @ P1)).ravel()
        P2 = (self.Kx @ XT).T.copy()
        return (self.My @ (self.alpha * P1 + self.beta * P2) + self.beta * (self.Ky @ P1)).ravel()


class TensorGradient:
    """Loads of partial derivatives through the 1D factors of the axes (x, y).

    ``apply(q, d)`` is the load (dq/dx_d, eta_i) of a field q, and
    ``apply_transpose(w, d)`` the load (w, d eta_i/dx_d); both equal the
    (k+2)-point quadrature loads to rounding, since the rule integrates
    every product of two basis functions and a derivative exactly.
    """

    def __init__(self, axes):
        ax, ay = axes
        self.Mx, self.Cx, self.My, self.Cy = ax.M, ax.C, ay.M, ay.C
        self.CxT = sp.csr_matrix(self.Cx.T)
        self.CyT = sp.csr_matrix(self.Cy.T)
        self.grid = (self.My.shape[0], self.Mx.shape[0])

    def apply(self, q: np.ndarray, d: int) -> np.ndarray:
        Q = q.reshape(self.grid)
        if d == 0:
            return (self.My @ _times_transpose(Q, self.Cx)).ravel()
        return _times_transpose(self.Cy @ Q, self.Mx).ravel()

    def apply_transpose(self, w: np.ndarray, d: int) -> np.ndarray:
        W = w.reshape(self.grid)
        if d == 0:
            return (self.My @ _times_transpose(W, self.CxT)).ravel()
        return _times_transpose(self.CyT @ W, self.Mx).ravel()
