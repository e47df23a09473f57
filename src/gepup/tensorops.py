"""Tensor-product structure of the global mass and stiffness matrices.

On a uniform structured grid with row-major numbering the global mass and
stiffness matrices factor as M = My (x) Mx and A = My (x) Kx + Ky (x) Mx,
where Mx, Kx, My, Ky are small 1D mass/stiffness matrices.  Applying the
1D factors to the coefficient array reshaped to (ndof_y, ndof_x) touches a
fraction of the memory a 2D CSR matvec moves; the solvers use it to form
residuals, and the generalized eigenpairs of the same factors diagonalize
every solve (see ``linsolve``).  Results agree with the assembled CSR
operators to rounding; the CSR matrices remain the assembled artifact (and
the reference in tests).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import FeSpace, gauss_legendre_01, lagrange_1d, reference_element

__all__ = ["one_dimensional_factors", "TensorOperator"]


def _global_1d(n_cells: int, h: float, degree: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """1D mass and stiffness on n_cells uniform cells of width h."""
    ref = reference_element(degree)
    q, w = gauss_legendre_01(degree + 2)
    vals, ders = lagrange_1d(ref.nodes_1d, q)
    M1 = vals.T @ (w[:, None] * vals) * h
    K1 = ders.T @ (w[:, None] * ders) / h
    k = degree
    n = k * n_cells + 1
    cell_dofs = k * np.arange(n_cells)[:, None] + np.arange(k + 1)[None, :]
    rows = np.repeat(cell_dofs, k + 1, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, k + 1)).ravel()

    def assemble(local):
        data = np.tile(local.ravel(), n_cells)
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    return assemble(M1), assemble(K1)


def one_dimensional_factors(space: FeSpace):
    """(Mx, Kx, My, Ky) with M2D = My (x) Mx and A2D = My (x) Kx + Ky (x) Mx."""
    mesh = space.mesh
    Mx, Kx = _global_1d(mesh.nx, mesh.hx, space.degree)
    My, Ky = _global_1d(mesh.ny, mesh.hy, space.degree)
    return Mx, Kx, My, Ky


def _abs_row_sums(F) -> np.ndarray:
    return np.asarray(abs(F).sum(axis=1)).ravel()


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
        self.MxT = sp.csr_matrix(Mx.T)
        self.KxT = sp.csr_matrix(Kx.T)
        self.grid = (My.shape[0], Mx.shape[0])
        n = self.grid[0] * self.grid[1]
        self.shape = (n, n)
        rmx, rkx, rmy, rky = (_abs_row_sums(F) for F in (Mx, Kx, My, Ky))
        rows = abs(alpha) * np.outer(rmy, rmx) + abs(beta) * (np.outer(rmy, rkx) + np.outer(rky, rmx))
        self.norm_bound = float(rows.max()) if rows.size else 0.0

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(self.grid)
        P1 = X @ self.MxT  # (My (x) Mx) building block
        if self.beta != 0.0:
            P2 = X @ self.KxT
            out = self.My @ (self.alpha * P1 + self.beta * P2) + self.beta * (self.Ky @ P1)
        else:
            out = self.alpha * (self.My @ P1)
        return np.asarray(out).ravel()
