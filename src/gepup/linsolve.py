"""Direct solves by fast diagonalization, with a backward-error check.

On a uniform tensor-product grid every system the scheme solves is
alpha * M + beta * A with M = My (x) Mx and A = My (x) Kx + Ky (x) Mx.
The generalized 1D eigenpairs K S = M S diag(lam), S^T M S = I of each
axis diagonalize it exactly (Lynch, Rice & Thomas, Numer. Math. 6, 1964):

    (alpha M + beta A)^{-1} = S diag(1 / (alpha + beta (lam_y_i + lam_x_j))) S^T,

with S = Sy (x) Sx.  One solve is therefore four dense matmuls on the
(ndof_y, ndof_x) coefficient array and an elementwise scale.  Every solve
is followed by a normwise backward-error check, so that a wrong or
non-finite result raises instead of propagating.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = ["SolverError", "FastDiagonalization", "check_backward_error"]


class SolverError(Exception):
    pass


class FastDiagonalization:
    """Generalized eigenpairs of the 1D (stiffness, mass) factors of one grid.

    ``factors`` is (Mx, Kx, My, Ky).  ``lam`` holds the eigenvalues of A
    relative to M on the (ndof_y, ndof_x) grid, in ascending order along
    each axis.  ``neumann_scale`` is the pseudo-inverse of that spectrum
    for a pure-Neumann A, whose nullspace, the constants, is the first mode.
    """

    def __init__(self, factors):
        Mx, Kx, My, Ky = (F.toarray() if sp.issparse(F) else np.asarray(F, dtype=float) for F in factors)
        lam_x, self.Sx = scipy.linalg.eigh(Kx, Mx)
        lam_y, self.Sy = scipy.linalg.eigh(Ky, My)
        self.lam = lam_y[:, None] + lam_x[None, :]
        self.neumann_scale = np.zeros_like(self.lam)
        self.neumann_scale.flat[1:] = 1.0 / self.lam.flat[1:]

    def apply(self, b: np.ndarray, scale) -> np.ndarray:
        """S diag(scale) S^T b for a row-major vector b over the grid."""
        Y = self.Sy.T @ b.reshape(self.lam.shape) @ self.Sx
        Y *= scale
        return (self.Sy @ Y @ self.Sx.T).ravel()

    def solve_neumann(self, b: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the singular A x = b (constant nullspace) with weights @ x = 0.

        The right-hand side is first projected onto the range of A (its
        Euclidean mean removed: compatibility enforcement); the returned x
        satisfies sum_j weights_j x_j = 0, the discrete zero-integral
        condition when weights = M @ 1.  Returns x and the projected b.
        """
        bc = b - b.mean()
        x = self.apply(bc, self.neumann_scale)
        x -= float(weights @ x) / float(weights.sum())
        return x, bc


def check_backward_error(name: str, b: np.ndarray, Kx: np.ndarray, x: np.ndarray, norm_K: float, rel_tol: float) -> float:
    """Normwise backward error ||b - Kx|| / (||b|| + ||K|| ||x||) of a solve.

    Raises SolverError naming the solve when it exceeds ``rel_tol``; a NaN or
    infinite value anywhere fails the check.
    """
    res = float(np.linalg.norm(b - Kx))
    scale = float(np.linalg.norm(b)) + norm_K * float(np.linalg.norm(x))
    if not (res <= rel_tol * scale and scale < np.inf):
        value = res / scale if scale else res
        raise SolverError(f"{name} solve: backward error {value:.3e} exceeds rel_tol {rel_tol:g}")
    return res / scale if scale else 0.0
