"""Direct solves by fast diagonalization, with a backward-error check.

On a uniform tensor-product grid every system the scheme solves is
alpha * M + beta * A with M = My (x) Mx and A = My (x) Kx + Ky (x) Mx.
The generalized 1D eigenpairs K S = M S diag(lam), S^T M S = I of each
axis diagonalize it exactly (Lynch, Rice & Thomas, Numer. Math. 6, 1964):

    (alpha M + beta A)^{-1} = S diag(1 / (alpha + beta (lam_y_i + lam_x_j))) S^T,

with S = Sy (x) Sx.  One solve is therefore four dense 1D transforms of the
(ndof_y, ndof_x) coefficient array, two per axis, and an elementwise scale.
The 1D pairs come from ``fem.cell_eigenbasis``: the cells of an axis are
uniform and mirror symmetric, so sums over the cell index split each 1D
pencil into blocks of at most k by k, one per frequency, with no dense
eigensolve.  Every mode is even or odd about the axis's midpoint, and an
``Eigenbasis`` keeps the first half of the rows of each family, which it
transforms through (a fold and two half-size GEMMs) or, below
``FOLD_MIN_DOFS``, through the full S mirrored back from them.  The modes
are laid out even block first, then odd block, so no spectrum here is in
ascending order.  Each ``fem.Axis`` computes its bases once for its full
and interior blocks and keeps them, so a ``FastDiagonalization`` only
combines the bases of two axes into its own 2D spectrum; the solvers of
one grid share one pair of work arrays.  Every solve is followed by a
normwise backward-error check, so that a wrong or non-finite result
raises instead of propagating.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "SolverError",
    "Eigenbasis",
    "mirrored_basis",
    "FastDiagonalization",
    "REL_TOL",
    "check_backward_error",
]


class SolverError(Exception):
    """A solve that failed its backward-error check, a non-finite state, or a
    collapsed step size.

    The attributes of where it happened start as None, and the time loop
    fills them in as the error passes through: ``phase`` (the Runge-Kutta
    stage, or the end-of-step projection) and its time ``t`` in
    ``advance_step``, the ``step`` number in ``run_simulation``.  A
    collapsed Courant step is raised by ``run_simulation`` with the phase
    "step size".  The message puts them in front of the reason.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
        self.step = self.phase = self.t = None

    def __str__(self) -> str:
        where = [f"step {self.step}"] if self.step is not None else []
        if self.phase is not None:
            where.append(self.phase)
        if self.t is not None:
            where.append(f"t = {self.t:.9g}")
        return f"{', '.join(where)}: {self.reason}" if where else self.reason


# Axes of at least this many dofs transform through their even and odd halves,
# smaller ones through the full S: below it the fold's numpy call overhead
# costs more than the half of the flops it saves (crossover table: ROADMAP item 7).
FOLD_MIN_DOFS = 110


def mirrored_basis(Ye: np.ndarray, Yo: np.ndarray) -> np.ndarray:
    """The full-size S = [P_e Ye, P_o Yo] of an ``Eigenbasis``'s halves, even columns first."""
    c, m = len(Ye), len(Yo)
    F = np.zeros((c + m, c + m))
    F[:c, :c] = Ye
    F[c:, c:] = Yo
    return _unfold(F, np.empty_like(F))


class Eigenbasis:
    """The generalized eigenpairs of one mirror-symmetric 1D pencil, as its even
    and odd halves, and the transforms of one axis of a 2D solve.

    ``lam_e``, ``Ye`` are the c = n - n//2 even pairs (J v = v for the
    reflection J: i -> n-1-i) and ``lam_o``, ``Yo`` the m = n//2 odd ones
    (J v = -v), each ascending, Ye and Yo the first c and m rows of their
    eigenvectors, with the middle dof of an odd n halved.  The full-size
    eigenvectors are S = [P_e Ye, P_o Yo]: (P_e y)_i = (P_e y)_{n-1-i} = y_i
    and (P_o y)_i = -(P_o y)_{n-1-i} = y_i for i < m, and the middle dof of
    an odd n is 2 y_m in the even family.  ``lam`` and the columns of S are
    laid out even block first, then odd block, so ``lam`` is not ascending;
    the lowest even mode, the constants of a pure-Neumann pencil, comes
    first.  An axis of at least ``FOLD_MIN_DOFS`` dofs transforms through
    the halves: a fold, or unfold, by index and two half-size GEMMs, half
    the flops of one full-size GEMM.  Every fold and unfold computes with
    forward operands only, and the reversed rows are copied once, in or out
    of work space: a ufunc with a reversed operand runs through numpy's
    buffered iteration, which allocates scratch and runs slower than that
    copy.  A smaller axis keeps the full ``S``, assembled once from the
    halves, and transforms with one GEMM; ``S`` is None on a folding axis.
    Every array is read-only.
    """

    def __init__(self, lam_e: np.ndarray, Ye: np.ndarray, lam_o: np.ndarray, Yo: np.ndarray):
        self.lam_e, self.Ye, self.lam_o, self.Yo = lam_e, Ye, lam_o, Yo
        self.lam = np.concatenate([lam_e, lam_o])
        self.S = mirrored_basis(Ye, Yo) if len(self.lam) < FOLD_MIN_DOFS else None
        applied = (Ye, Yo) if self.S is None else (self.S,)
        # C-contiguous right operands of ``to_nodes_t``: a GEMM runs slower on a transposed one
        self._right = tuple(np.ascontiguousarray(Y.T) for Y in applied)
        for a in (lam_e, Ye, lam_o, Yo, self.lam, *applied, *self._right):
            a.flags.writeable = False

    def to_modes(self, X: np.ndarray, spare: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = X^T S = (S^T X)^T for an (n, k) X; returns out, (k, n).

        ``spare`` is (n, k) work space; X, spare and out are three distinct
        arrays.  The fold copies X's reversed rows into out before the GEMMs
        write it.
        """
        if self.S is not None:
            return np.matmul(X.T, self.S, out=out)
        c, m = len(self.lam_e), len(self.lam_o)
        k = X.shape[1]
        reversed_rows = out.reshape(-1)[: c * k].reshape(c, k)
        np.copyto(reversed_rows, X[::-1][:c])
        np.add(X[:c], reversed_rows, out=spare[:c])
        np.subtract(X[:m], reversed_rows[:m], out=spare[c:])
        np.matmul(spare[:c].T, self.Ye, out=out[:, :c])
        np.matmul(spare[c:].T, self.Yo, out=out[:, c:])
        return out

    def to_nodes(self, Z: np.ndarray, spare: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = S Z for an (n, k) Z of mode coefficients; returns out.

        ``spare`` is (n, k) work space; Z, spare and out are three distinct arrays.
        """
        if self.S is not None:
            return np.matmul(self.S, Z, out=out)
        c = len(self.lam_e)
        np.matmul(self.Ye, Z[:c], out=spare[:c])
        np.matmul(self.Yo, Z[c:], out=spare[c:])
        return _unfold(spare, out)

    def to_nodes_t(self, Z: np.ndarray, spare: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = Z S^T for a (k, n) Z of mode coefficients; returns out.

        ``spare`` is (k, n) work space; Z, spare and out are three distinct
        arrays, and Z is overwritten.  The folded path unfolds along the
        columns without a ufunc on column slices, which numpy would buffer:
        the even half E = Z_e Ye^T goes to spare and the odd half O = Z_o Yo^T
        to out, both contiguous (k, c) blocks (O padded, for an odd n, with
        E's middle column, so that E + O there is the middle node's 2 E);
        E + O goes to Z and E - O to spare, and both are copied into out's
        columns, the second reversed.
        """
        if self.S is not None:
            return np.matmul(Z, self._right[0], out=out)
        c, m = len(self.lam_e), len(self.lam_o)
        k = len(Z)
        E, O, plus = (a.reshape(-1)[: k * c].reshape(k, c) for a in (spare, out, Z))
        np.matmul(Z[:, :c], self._right[0], out=E)
        np.matmul(Z[:, c:], self._right[1], out=O[:, :m])
        if c > m:  # the middle dof is its own mirror
            np.copyto(O[:, m], E[:, m])
        np.add(E, O, out=plus)
        np.subtract(E, O, out=E)
        np.copyto(out[:, :c], plus)
        np.copyto(out[:, c:], E[:, :m][:, ::-1])
        return out


def _unfold(F: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = P_e F[:c] + P_o F[c:] along the first axis: the node values of the
    even (first c rows) and odd (last m rows) mode sums of an ``Eigenbasis``.

    The mirrored half is formed forward in F's odd rows, which it
    overwrites, and copied to out's last m rows in reverse.  F and out may
    be transposed views (an unfold along the columns).
    """
    m, c = len(F) // 2, len(F) - len(F) // 2
    np.add(F[:m], F[c:], out=out[:m])
    np.subtract(F[:m], F[c:], out=F[c:])
    np.copyto(out[c:], F[c:][::-1])
    if c > m:  # the middle dof is its own mirror
        np.multiply(F[m], 2.0, out=out[m])
    return out


class FastDiagonalization:
    """The 2D fast-diagonalization solver of one grid from the 1D eigenpairs of its axes.

    ``x_basis`` and ``y_basis`` are the ``Eigenbasis`` of the x and y
    (stiffness, mass) factors; they are only read.  ``lam`` holds the
    eigenvalues of A relative to M on the (ndof_y, ndof_x) grid, in the
    axes' mode order (even block first, then odd, along each axis).
    ``neumann_scale`` is the pseudo-inverse of that spectrum for a
    pure-Neumann A, whose nullspace, the constants, is the first mode; it
    is formed by the first ``solve_neumann``, so a solver that never makes
    one (the interior solver) holds none.  Both are this object's own.
    ``apply`` works in two arrays of ``lam.size`` entries, this object's own
    unless ``work_owner`` is set to a solver of at least that size whose
    applies never overlap this one's: then the leading entries of its two.
    """

    def __init__(self, x_basis: Eigenbasis, y_basis: Eigenbasis):
        self.x, self.y = x_basis, y_basis
        self.lam = y_basis.lam[:, None] + x_basis.lam[None, :]
        self.work_owner = None

    @functools.cached_property
    def neumann_scale(self) -> np.ndarray:
        scale = np.zeros_like(self.lam)
        scale.ravel()[1:] = 1.0 / self.lam.ravel()[1:]
        return scale

    def apply(self, b: np.ndarray, scale) -> np.ndarray:
        """S diag(scale) S^T b for a row-major vector b over the grid, S = Sy (x) Sx.

        The two forward transforms write their outputs transposed, so that
        both folds run along contiguous rows; the way back takes y along the
        rows, then x along the columns.  Beside the result, the apply works
        in the two work arrays only.
        """
        ny, nx = self.lam.shape
        spare, half = self._work
        spare = spare.reshape(ny, nx)
        out = np.empty((ny, nx))
        T = self.y.to_modes(b.reshape(ny, nx), spare, half.reshape(nx, ny))  # B^T Sy
        Y = self.x.to_modes(T, spare.reshape(nx, ny), out)  # Sy^T B Sx
        Y *= scale
        V = self.y.to_nodes(Y, spare, half.reshape(ny, nx))  # Sy Y
        return self.x.to_nodes_t(V, spare, out).ravel()  # Sy Y Sx^T

    @functools.cached_property
    def _work(self) -> np.ndarray:
        # allocated at the first apply: allocated with the object, the two arrays
        # cost a set-up thousands of minor page faults (tg-q3-l6)
        if self.work_owner is not None:
            return self.work_owner._work[:, : self.lam.size]
        return np.empty((2, self.lam.size))

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
