"""The dense oracle of the 1D generalized eigenpairs, which the package
builds by cell frequency instead (``fem.cell_eigenbasis``).

``dense_eigenpairs`` takes any dense mirror-symmetric pencil, J F J = F for
the reflection J: i -> n-1-i, so it also serves the generic-pencil tests of
the fast-diagonalization apply.  Its eigenvectors split into an even
(J v = v) and an odd (J v = -v) family (Solomonoff, J. Comput. Phys. 98,
1992).  On the basis e_j + sign * e_{n-1-j} of each family the pencil is
2 * ``fold``, so each family comes from one half-size pencil of the folded
K and M, solved by Cholesky reduction (``pencil_eigh``); its vectors,
scaled by 1/sqrt(2), are the ``Eigenbasis`` halves.
"""

import numpy as np

from gepup.linsolve import Eigenbasis


def fold(F, size, sign):
    """F[i, j] + sign * F[i, n-1-j] for i, j < size: the even (+) or odd (-) half of F."""
    return F[:size, :size] + sign * F[:size, ::-1][:, :size]


def pencil_eigh(K, M):
    """The ascending pairs of the symmetric-definite pencil K y = lam M y, y^T M y = 1,
    by Cholesky reduction: M = L L^T, V the eigenvectors of L^{-1} K L^{-T}, Y = L^{-T} V."""
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    lam, V = np.linalg.eigh(L_inv @ K @ L_inv.T)
    return lam, L_inv.T @ V


def dense_eigenpairs(K, M):
    """The ``Eigenbasis`` of the dense mirror-symmetric pencil (K, M) from its two half-size pencils."""
    for F in (K, M):
        assert np.abs(F[::-1, ::-1] - F).max(initial=0.0) <= 1e-13 * np.abs(F).max(initial=0.0)
    n = len(K)
    m, c = n // 2, n - n // 2  # sizes of the odd and the even family
    lam_e, Ye = pencil_eigh(fold(K, c, 1.0), fold(M, c, 1.0))
    lam_o, Yo = pencil_eigh(fold(K, m, -1.0), fold(M, m, -1.0))
    return Eigenbasis(lam_e, Ye * np.sqrt(0.5), lam_o, Yo * np.sqrt(0.5))
