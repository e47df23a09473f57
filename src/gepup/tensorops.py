"""Products on the 1D axes: a field's 2D products, linear loads and boundary loads.

On a uniform structured grid with row-major numbering the global mass and
stiffness matrices factor as M = My (x) Mx and A = My (x) Kx + Ky (x) Mx,
where Mx, Kx, My, Ky are the 1D mass/stiffness factors of the space's two
``fem.Axis`` objects.  With the 1D derivative factor C[i, j] = int phi_i
phi_j' the loads of a partial derivative factor the same way:
(dq/dx, eta) = My Q Cx^T and (dq/dy, eta) = Cy Q Mx^T for the coefficient
array Q reshaped to (ndof_y, ndof_x), and a mass solve of such a load
cancels the mass factor: M^{-1} (dq/dx, eta) = Q (Mx^{-1} Cx)^T and
M^{-1} (dq/dy, eta) = (My^{-1} Cy) Q.  The boundary loads are 1D too: on a
side of the rectangle only one row or column of test functions is nonzero,
so a flux (g . n, eta) is a 1D quadrature load along that side, and the
curl term (curl u, tangent . grad eta) is a product of the 1D factors with
the basis derivatives at the axis ends; both are added in place onto the
boundary rows and columns of a load.  Every product of the solver is
applied here, on the axes: every 2D product of a field goes through the
field's ``XPass`` (mass, stiffness, the derivative loads and the
projection's mass-solved gradients), and the boundary loads through the
1D factors of one side; the generalized eigenpairs of the same
factors diagonalize every 2D solve (see ``linsolve``).  No 2D matrix is
assembled.  A field the scheme goes on using after its solve gets one
``XPass``: its products with the x factors are taken once and shared by
every product of that field.  ``norm_bound`` bounds the 2D operators'
norms for the solves' backward-error checks.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "add_normal_load",
    "add_curl_load",
    "norm_bound",
    "XPass",
]


def add_normal_load(axes, g, t: float, scale: float, load: np.ndarray):
    """load += scale * (g . n, eta_i) over the four sides of the rectangle the axes (x, y) span.

    ``load`` is an (ndof_y, ndof_x) array; only its boundary rows and
    columns change (``_add_ring``).  ``g(x, y, t)`` returns the components
    (g_x, g_y); it is called once, on the Gauss points of all four sides
    (bottom, top, left, right, each with the points of the axis it runs
    along), stacked as the rows of one (2 n_cells_x + 2 n_cells_y, k + 2)
    array.
    """
    ax, ay = axes
    nx, ny = len(ax.points), len(ay.points)
    x = np.concatenate([ax.points, ax.points, np.full_like(ay.points, ax.ends[0]), np.full_like(ay.points, ax.ends[1])])
    y = np.concatenate([np.full_like(ax.points, ay.ends[0]), np.full_like(ax.points, ay.ends[1]), ay.points, ay.points])
    gx, gy = (np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in g(x, y, t))
    rows = [-ax.load(gy[:nx]), ax.load(gy[nx : 2 * nx])]  # bottom, top: n = (0, -+1)
    cols = [-ay.load(gx[2 * nx : 2 * nx + ny]), ay.load(gx[2 * nx + ny :])]  # left, right: n = (-+1, 0)
    _add_ring(load, scale, rows, cols)


def add_curl_load(axes, U, scale: float, load: np.ndarray):
    """load += scale * (curl u, tau . grad eta_i) over the boundary, tau the counterclockwise tangent.

    ``load`` is an (ndof_y, ndof_x) array; only its boundary rows and
    columns change (``_add_ring``).  With Ux, Uy the components reshaped to
    (ndof_y, ndof_x), the bottom row gains Kx Uy[0] - Cx^T (d0y Ux): curl u
    = du_y/dx - du_x/dy on y = y0, tested against the x derivative of the
    row's basis.  The top row flips the sign of the tangent, and the
    columns follow in y.  Exact: no quadrature is involved beyond that of
    the 1D factors.
    """
    ax, ay = axes
    Ux, Uy = (u.reshape(ay.n, ax.n) for u in U)
    rows = [sign * (ax.K @ Uy[row] - ax.CT @ (d @ Ux)) for row, d, sign in ((0, ay.d0, 1.0), (-1, ay.d1, -1.0))]
    cols = [sign * (ay.CT @ (Uy @ d) - ay.K @ Ux[:, col]) for col, d, sign in ((0, ax.d0, -1.0), (-1, ax.d1, 1.0))]
    _add_ring(load, scale, rows, cols)


def _add_ring(load: np.ndarray, scale: float, rows, cols):
    """load += scale * ring for the ring data of one boundary load: ``rows`` the
    bottom and top rows, ``cols`` the left and right columns.  Each side is
    added whole, so a corner sums the entries of the row and the column that
    meet there.
    """
    (bottom, top), (left, right) = rows, cols
    load[0] += scale * bottom
    load[-1] += scale * top
    load[:, 0] += scale * left
    load[:, -1] += scale * right


def norm_bound(x_sums, y_sums, alpha: float, beta: float) -> float:
    """An upper bound on the 2-norm of alpha * mass + beta * stiffness from the
    absolute row sums (of M, of K) of the x and the y axis (``Axis.row_sums``).

    The bound is the operator's infinity norm bounded through the absolute
    row sums of the factors; it bounds the 2-norm because the operator is
    symmetric.
    """
    (rmx, rkx), (rmy, rky) = x_sums, y_sums
    rows = abs(alpha) * np.outer(rmy, rmx) + abs(beta) * (np.outer(rmy, rkx) + np.outer(rky, rmx))
    return float(rows.max()) if rows.size else 0.0


class XPass:
    """One field x over the grid of the axes (x, y) and its products through their 1D factors.

    Every mass, stiffness and derivative product of the field starts with a
    product of its (ndof_y, ndof_x) array X with one x factor, X F^T
    (``fem.BandedFactor.times_t``), and X Mx^T starts four of them.  The
    pass keeps X Mx^T, so that a solve's backward-error check, the scheme's
    products and the linear loads of one field share its x-direction work:

        mass                   M x                = My (X Mx^T)
        stiffness              A x                = My (X Kx^T) + Ky (X Mx^T)
        gradient(0)            (dx/dx, eta_i)     = My (X Cx^T)
        gradient(1)            (dx/dy, eta_i)     = Cy (X Mx^T)
        gradient_transpose(0)  (x, d eta_i/dx)    = My (X Cx)
        gradient_transpose(1)  (x, d eta_i/dy)    = Cy^T (X Mx^T)
        l2_projection(0)       M^{-1} (dx/dx, eta_i)  = X Dx^T
        l2_projection(1)       M^{-1} (dx/dy, eta_i)  = Dy X

    Dx = Mx^{-1} Cx and Dy = My^{-1} Cy are the axes' dense ``Axis.D``: the
    2D mass solve of a derivative load cancels against its mass factor.
    The loads equal the (k+2)-point quadrature loads to rounding, since the
    rule integrates every product of two basis functions and a derivative
    exactly.  Each product is taken on first use; ``mass`` and
    ``stiffness``, which a solve's check and the scheme both read, are kept.
    ``x`` is the field (row-major, not copied).
    """

    def __init__(self, axes, x: np.ndarray):
        self.x = x
        self._ax, self._ay = axes
        self.grid = (self._ay.n, self._ax.n)

    def _times(self, F) -> np.ndarray:
        return F.times_t(self.x.reshape(self.grid))

    @functools.cached_property
    def _XMt(self) -> np.ndarray:
        return self._times(self._ax.M)

    @functools.cached_property
    def mass(self) -> np.ndarray:
        return (self._ay.M @ self._XMt).ravel()

    @functools.cached_property
    def stiffness(self) -> np.ndarray:
        return (self._ay.M @ self._times(self._ax.K) + self._ay.K @ self._XMt).ravel()

    def gradient(self, d: int) -> np.ndarray:
        return (self._ay.M @ self._times(self._ax.C) if d == 0 else self._ay.C @ self._XMt).ravel()

    def gradient_transpose(self, d: int) -> np.ndarray:
        return (self._ay.M @ self._times(self._ax.CT) if d == 0 else self._ay.CT @ self._XMt).ravel()

    def l2_projection(self, d: int) -> np.ndarray:
        X = self.x.reshape(self.grid)
        return (X @ self._ax.D.T if d == 0 else self._ay.D @ X).ravel()
