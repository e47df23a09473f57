"""Products on the 1D axes: matvecs, linear loads and boundary loads.

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
the basis derivatives at the axis ends.  Every product of the solver is
applied here, on the axes: matvecs (``TensorOperator``), a field's
mass, stiffness and derivative products (``XPass``), the projection's
mass-solved gradients (``TensorGradient``) and boundary loads; the
generalized eigenpairs of the same factors diagonalize every 2D solve
(see ``linsolve``).  No 2D matrix is assembled.  A field the
scheme goes on using after its solve gets one ``XPass``: its products with
the x factors are taken once and shared by every product of that field.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import scipy.sparse as sp

__all__ = [
    "boundary_normal_load",
    "curl_boundary_load",
    "TensorOperator",
    "TensorGradient",
    "XPass",
]


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
        load[row, :] += sign * (ax.K @ Uy[row] - ax.CT @ (d @ Ux))
    for col, d, sign in ((0, ax.d0, -1.0), (-1, ax.d1, 1.0)):  # left, right: tau = (0, sign)
        load[:, col] += sign * (ay.CT @ (Uy @ d) - ay.K @ Ux[:, col])
    return load


def _abs_row_sums(F: sp.csr_matrix) -> np.ndarray:
    sums = np.zeros(F.shape[0])
    rows = np.flatnonzero(np.diff(F.indptr))
    sums[rows] = np.add.reduceat(np.abs(F.data), F.indptr[rows])
    return sums


class TensorOperator:
    """alpha * mass + beta * stiffness applied through sparse 1D factors (Mx, Kx, My, Ky).

    Acts on row-major vectors over the (ndof_y, ndof_x) grid the factors
    span (for the interior block, pass the factors with their first and last
    rows and columns removed).  ``norm_bound`` is an upper bound on the
    operator's infinity norm, hence on its 2-norm (the operator is
    symmetric), from the absolute row sums of the factors.  Those row sums
    are taken once; ``with_coefficients`` gives the operator for another
    (alpha, beta) on the same factors without taking them again.
    """

    def __init__(self, factors, alpha: float, beta: float):
        Mx, Kx, My, Ky = factors
        self.Mx, self.Kx, self.My, self.Ky = Mx, Kx, My, Ky
        self.grid = (My.shape[0], Mx.shape[0])
        n = self.grid[0] * self.grid[1]
        self.shape = (n, n)
        rmx, rkx, rmy, rky = (_abs_row_sums(F) for F in (Mx, Kx, My, Ky))
        self._mass_rows = np.outer(rmy, rmx)
        self._stiffness_rows = np.outer(rmy, rkx) + np.outer(rky, rmx)
        self._set_coefficients(alpha, beta)

    def _set_coefficients(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        rows = abs(alpha) * self._mass_rows + abs(beta) * self._stiffness_rows
        self.norm_bound = float(rows.max()) if rows.size else 0.0

    def with_coefficients(self, alpha: float, beta: float) -> "TensorOperator":
        """alpha * mass + beta * stiffness on the same factors and row sums."""
        op = copy.copy(self)
        op._set_coefficients(alpha, beta)
        return op

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        XT = np.ascontiguousarray(x.reshape(self.grid).T)
        P1 = (self.Mx @ XT).T.copy()  # X Mx^T: the (My (x) Mx) building block
        if self.beta == 0.0:
            return (self.alpha * (self.My @ P1)).ravel()
        P2 = (self.Kx @ XT).T.copy()
        return (self.My @ (self.alpha * P1 + self.beta * P2) + self.beta * (self.Ky @ P1)).ravel()


class TensorGradient:
    """Mass-solved partial derivatives through the 1D factors of the axes (x, y).

    ``l2_projection(q, d)`` is M^{-1} (dq/dx_d, eta_i): with M = My (x) Mx
    the 2D mass solve cancels against the mass factor of the load, leaving
    the dense 1D factors Dx = Mx^{-1} Cx and Dy = My^{-1} Cy, the axes' own
    ``Axis.D``.  The loads (dq/dx_d, eta_i) and (w, d eta_i/dx_d) themselves
    are a field's ``XPass.gradient(d)`` and ``gradient_transpose(d)``; both
    equal the (k+2)-point quadrature loads to rounding, since the rule
    integrates every product of two basis functions and a derivative exactly.
    """

    def __init__(self, axes):
        ax, ay = axes
        self.Dx, self.Dy = ax.D, ay.D
        self.grid = (ay.n, ax.n)

    def l2_projection(self, q: np.ndarray, d: int) -> np.ndarray:
        """M^{-1} (dq/dx_d, eta_i): Q Dx^T for d = 0, Dy Q for d = 1, one dense matmul."""
        Q = q.reshape(self.grid)
        return (Q @ self.Dx.T if d == 0 else self.Dy @ Q).ravel()


class XPass:
    """One field x over the grid of the axes (x, y) and its products through their 1D factors.

    Every mass, stiffness and derivative product of the field starts with a
    product of its (ndof_y, ndof_x) array X with one x factor, and X Mx^T
    starts four of them.  The pass transposes X once and keeps X Mx^T, so
    that a solve's backward-error check, the scheme's products and the
    linear loads of one field share its x-direction work:

        mass                   M x                = My (X Mx^T)
        stiffness              A x                = My (X Kx^T) + Ky (X Mx^T)
        gradient(0)            (dx/dx, eta_i)     = My (X Cx^T)
        gradient(1)            (dx/dy, eta_i)     = Cy (X Mx^T)
        gradient_transpose(0)  (x, d eta_i/dx)    = My (X Cx)
        gradient_transpose(1)  (x, d eta_i/dy)    = Cy^T (X Mx^T)

    Each product is taken on first use; ``mass`` and ``stiffness``, which
    a solve's check and the scheme both read, are kept.  They equal the
    ``TensorOperator`` and ``TensorGradient`` products to rounding.  ``x``
    is the field (row-major, not copied).
    """

    def __init__(self, axes, x: np.ndarray):
        self.x = x
        self._ax, self._ay = axes
        self.grid = (self._ay.n, self._ax.n)

    @functools.cached_property
    def _XT(self) -> np.ndarray:
        return np.ascontiguousarray(self.x.reshape(self.grid).T)

    def _times(self, F: sp.csr_matrix) -> np.ndarray:
        return (F @ self._XT).T.copy()  # X F^T, C-contiguous

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
