"""Direct solves by fast diagonalization, with a backward-error check.

On a uniform tensor-product grid every system the scheme solves is
alpha * M + beta * A with M = My (x) Mx and A = My (x) Kx + Ky (x) Mx.
The generalized 1D eigenpairs K S = M S diag(lam), S^T M S = I of each
axis diagonalize it exactly (Lynch, Rice & Thomas, Numer. Math. 6, 1964):

    (alpha M + beta A)^{-1} = S diag(1 / (alpha + beta (lam_y_i + lam_x_j))) S^T,

with S = Sy (x) Sx.  One solve is therefore four dense matmuls on the
(ndof_y, ndof_x) coefficient array and an elementwise scale.  The 1D pairs
come from ``eigenpairs``, the only caller of ``scipy.linalg.eigh``: every
axis is symmetric about its midpoint, so it solves the even and the odd
half-size pencil of each 1D pencil and mirrors their vectors back; each
``fem.Axis`` computes them once for its full and interior blocks and keeps
them, so a ``FastDiagonalization`` only combines the pairs of two axes into
its own 2D spectrum.  Every solve is followed by a normwise backward-error
check, so that a wrong or non-finite result raises instead of propagating.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = ["SolverError", "eigenpairs", "FastDiagonalization", "REL_TOL", "check_backward_error"]


class SolverError(Exception):
    """A solve that failed its backward-error check, a non-finite state, or a
    collapsed step size.

    The time loop fills in where it happened as the error passes through:
    ``phase`` (the Runge-Kutta stage, or the end-of-step projection) and its
    time ``t`` in ``advance_step``, the ``step`` number in ``run_simulation``.
    A collapsed Courant step is raised by ``run_simulation`` with the phase
    "step size".  The message puts them in front of the reason.
    """

    def __init__(self, reason: str, step: int | None = None, phase: str | None = None, t: float | None = None):
        super().__init__(reason)
        self.reason = reason
        self.step = step
        self.phase = phase
        self.t = t

    def __str__(self) -> str:
        where = [f"step {self.step}"] if self.step is not None else []
        if self.phase is not None:
            where.append(self.phase)
        if self.t is not None:
            where.append(f"t = {self.t:.9g}")
        return f"{', '.join(where)}: {self.reason}" if where else self.reason


MIRROR_TOL = 1e-13  # allowed departure of J F J from F, relative to F's largest entry


def _fold(F: np.ndarray, size: int, sign: float) -> np.ndarray:
    """F[i, j] + sign * F[i, n-1-j] for i, j < size: the even (+) or odd (-) half of F."""
    return F[:size, :size] + sign * F[:size, ::-1][:, :size]


def eigenpairs(K, M) -> tuple[np.ndarray, np.ndarray]:
    """Generalized eigenpairs (lam, S) of a 1D stiffness factor K and mass factor M:
    K S = M S diag(lam), S^T M S = I, lam ascending.  Sparse factors are
    made dense first.

    Both factors must be mirror symmetric, J F J = F for the reflection
    J: i -> n-1-i, as on every axis of a uniform grid; otherwise ValueError.
    The eigenvectors then split into an even (J v = v) and an odd
    (J v = -v) family (Solomonoff, J. Comput. Phys. 98, 1992).  On the
    basis e_j + sign * e_{n-1-j} of each family the pencil is 2 * _fold,
    so each family comes from one half-size ``eigh`` of the folded K and M,
    and its vectors are the half-size ones, mirrored and scaled by 1/sqrt(2).
    """
    K, M = (F.toarray() if sp.issparse(F) else np.asarray(F, dtype=float) for F in (K, M))
    for name, F in (("K", K), ("M", M)):
        if np.abs(F[::-1, ::-1] - F).max(initial=0.0) > MIRROR_TOL * np.abs(F).max(initial=0.0):
            raise ValueError(f"eigenpairs needs a mirror-symmetric pencil; {name} is not")
    n = len(K)
    m, c = n // 2, n - n // 2  # sizes of the odd and the even family
    lam_e, Ye = scipy.linalg.eigh(_fold(K, c, 1.0), _fold(M, c, 1.0))
    lam_o, Yo = scipy.linalg.eigh(_fold(K, m, -1.0), _fold(M, m, -1.0))
    S = np.zeros((n, n))
    S[:c, :c] = Ye
    S[c:, :c] = Ye[:m][::-1]
    S[:m, c:] = Yo
    S[c:, c:] = -Yo[::-1]
    S *= np.sqrt(0.5)
    if n % 2:  # the middle dof is its own mirror: 2 e_c in the even basis, zero in the odd one
        S[m, :c] *= 2.0
    lam = np.concatenate([lam_e, lam_o])
    order = np.argsort(lam, kind="stable")
    return lam[order], S[:, order]


class FastDiagonalization:
    """The 2D fast-diagonalization solver of one grid from the 1D eigenpairs of its axes.

    ``x_pairs`` and ``y_pairs`` are (lam, S) from ``eigenpairs`` of the x
    and y (stiffness, mass) factors; S is only read.  ``lam`` holds the
    eigenvalues of A relative to M on the (ndof_y, ndof_x) grid, in
    ascending order along each axis.  ``neumann_scale`` is the
    pseudo-inverse of that spectrum for a pure-Neumann A, whose nullspace,
    the constants, is the first mode.  Both are this object's own.
    """

    def __init__(self, x_pairs, y_pairs):
        lam_x, self.Sx = x_pairs
        lam_y, self.Sy = y_pairs
        self.lam = lam_y[:, None] + lam_x[None, :]
        self.neumann_scale = np.zeros_like(self.lam)
        self.neumann_scale.ravel()[1:] = 1.0 / self.lam.ravel()[1:]

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


REL_TOL = 1e-12  # bound on every solve's normwise backward error


def check_backward_error(name: str, b: np.ndarray, Kx: np.ndarray, x: np.ndarray, norm_K: float) -> float:
    """Normwise backward error ||b - Kx|| / (||b|| + ||K|| ||x||) of a solve.

    Raises SolverError naming the solve when it exceeds ``REL_TOL``; a NaN or
    infinite value anywhere fails the check.
    """
    res = float(np.linalg.norm(b - Kx))
    scale = float(np.linalg.norm(b)) + norm_K * float(np.linalg.norm(x))
    if not (res <= REL_TOL * scale and scale < np.inf):
        value = res / scale if scale else res
        raise SolverError(f"{name} solve: backward error {value:.3e} exceeds {REL_TOL:g}")
    return res / scale if scale else 0.0
