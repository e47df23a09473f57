"""Tensor-product structure of the global matrices and linear loads.

On a uniform structured grid with row-major numbering the global mass and
stiffness matrices factor as M = My (x) Mx and A = My (x) Kx + Ky (x) Mx,
where Mx, Kx, My, Ky are small 1D mass/stiffness matrices.  With the 1D
derivative factor C[i, j] = int phi_i phi_j' the loads of a partial
derivative factor the same way: (dq/dx, eta) = My Q Cx^T and
(dq/dy, eta) = Cy Q Mx^T for the coefficient array Q reshaped to
(ndof_y, ndof_x).  Every product of the solver is applied through these
1D factors: matvecs, linear loads and residuals, and the generalized
eigenpairs of the same factors diagonalize every solve (see ``linsolve``).
No 2D matrix is assembled.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import FeSpace, gauss_legendre_01, lagrange_1d, reference_element

__all__ = ["one_dimensional_factors", "derivative_factors", "TensorOperator", "TensorGradient"]


def _global_1d(n_cells: int, h: float, degree: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """1D mass, stiffness and derivative (int phi_i phi_j') on n_cells uniform cells of width h."""
    ref = reference_element(degree)
    q, w = gauss_legendre_01(degree + 2)
    vals, ders = lagrange_1d(ref.nodes_1d, q)
    M1 = vals.T @ (w[:, None] * vals) * h
    K1 = ders.T @ (w[:, None] * ders) / h
    C1 = vals.T @ (w[:, None] * ders)
    k = degree
    n = k * n_cells + 1
    cell_dofs = k * np.arange(n_cells)[:, None] + np.arange(k + 1)[None, :]
    rows = np.repeat(cell_dofs, k + 1, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, k + 1)).ravel()

    def assemble(local):
        data = np.tile(local.ravel(), n_cells)
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    return assemble(M1), assemble(K1), assemble(C1)


def _axes(space: FeSpace):
    mesh = space.mesh
    return _global_1d(mesh.nx, mesh.hx, space.degree), _global_1d(mesh.ny, mesh.hy, space.degree)


def one_dimensional_factors(space: FeSpace):
    """(Mx, Kx, My, Ky) with M2D = My (x) Mx and A2D = My (x) Kx + Ky (x) Mx."""
    (Mx, Kx, _), (My, Ky, _) = _axes(space)
    return Mx, Kx, My, Ky


def derivative_factors(space: FeSpace):
    """(Cx, Cy) with C[i, j] = int phi_i phi_j' along each axis."""
    (_, _, Cx), (_, _, Cy) = _axes(space)
    return Cx, Cy


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
    """Loads of partial derivatives through the 1D factors.

    ``apply(q, d)`` is the load (dq/dx_d, eta_i) of a field q, and
    ``apply_transpose(w, d)`` the load (w, d eta_i/dx_d); both equal the
    (k+2)-point quadrature loads to rounding, since the rule integrates
    every product of two basis functions and a derivative exactly.
    """

    def __init__(self, factors, derivative):
        self.Mx, _, self.My, _ = factors
        self.Cx, self.Cy = derivative
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
