"""Continuous Lagrange Q_k finite elements on uniform tensor-product grids.

The grid is a ``RectDomain`` cut into nx-by-ny equal cells; it has no
object of its own, because its two ``Axis`` objects hold the cell counts,
widths and origins.  Scalar Lagrange spaces of degree 1..4 with
Gauss-Lobatto support points and tensor Gauss-Legendre quadrature with
(k+2)^2 points per element (exact for the mass and stiffness integrands on
affine cells).  Everything is
built from one cached 1D tabulation, ``basis_1d``: an ``Axis`` lays it out
along one axis of the grid (1D mass, stiffness and derivative factors,
kept as the dense row panels of a ``BandedFactor``, support coordinates,
Gauss points), and a ``FeSpace`` is the product of its two axes, whose
element dofs, support and quadrature points and element tables are
Kronecker products of the 1D ones (sum factorization, Orszag,
J. Comput. Phys. 37, 1980).  The axis also owns what the solver derives
from its factors: the row sums behind the solves' norm bounds, the
generalized eigenpairs of its full and interior blocks (as even and odd
halves, modes in that order, not ascending; ``cell_eigenbasis`` builds
them from one cell's blocks by cell frequency, with no dense
eigensolve), the dense M^{-1} C and C^T and the end columns of M and K (the
Dirichlet lift of a momentum solve), each computed once, on first use.
The two axes of a square grid are one object, so they compute all of it
once; everything an axis holds is read-only.  The module also holds the
element tables, the one walk over the elements of every quadrature pass
(``FeSpace.element_bands``: bands of whole element rows, about
``BLOCK_ELEMENTS`` elements each) and the error norms.
A case callback is only ever sampled on the axes: at the quadrature points
on the ``quad_axes``, one band of rows at a time (the nonlinear term's pass
in ``operators`` and the error norms), and at the nodes on the
``node_axes``; ``FeSpace.quad_order`` and ``node_order`` lay the samples
out, so no (n_dofs, 2) list of point coordinates is built (the boundary
data take 1D coordinates of the sides from the axes, and a VTK frame the
node arrays).  The global
matrices are never assembled: ``tensorops`` applies them, and the boundary
loads, as products on the axes.

Vector fields are represented as one coefficient array per component; all
components share the scalar space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linsolve import Eigenbasis

__all__ = [
    "RectDomain",
    "UNIT_SQUARE",
    "Axis",
    "BandedFactor",
    "FeSpace",
    "build_space",
    "error_norms",
]

MAX_DEGREE = 4
# elements, about, per band of ``FeSpace.element_bands``, the walk of every
# quadrature pass: at Q3 one band's buffers take about 0.6 MB, so they stay
# in a core's L2 cache between the band's products
BLOCK_ELEMENTS = 512


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle given by its lower-left corner and side lengths."""

    origin: tuple[float, float]
    extent: tuple[float, float]

    def __post_init__(self):
        if self.extent[0] <= 0.0 or self.extent[1] <= 0.0:
            raise ValueError(f"domain extent must be positive, got {self.extent}")


UNIT_SQUARE = RectDomain((0.0, 0.0), (1.0, 1.0))


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


class Basis1D(NamedTuple):
    """The 1D Lagrange basis of degree k on [0, 1] and its (k+2)-point Gauss rule.

    ``vals`` and ``ders`` are (k+2, k+1): basis values and derivatives at
    the Gauss ``points``.  ``node_vals`` and ``node_ders`` are (k+1, k+1),
    at the Gauss-Lobatto ``nodes``; the first and last rows of
    ``node_ders`` are the basis derivatives at 0 and 1.
    """

    nodes: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    vals: np.ndarray
    ders: np.ndarray
    node_vals: np.ndarray
    node_ders: np.ndarray


@functools.cache
def basis_1d(degree: int) -> Basis1D:
    """The one 1D tabulation every element table, axis factor and load is built from."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    nodes = gauss_lobatto_01(degree + 1)
    q, w = gauss_legendre_01(degree + 2)
    vals, ders = lagrange_1d(nodes, np.concatenate([q, nodes]))
    n = len(q)
    return Basis1D(nodes, q, w, vals[:n], ders[:n], vals[n:], ders[n:])


def _tensor_tables(vx, dx, vy, dy) -> tuple[np.ndarray, np.ndarray]:
    """Values (npt, n_local) and gradients (npt, n_local, 2) of the tensor basis
    from 1D tables in x and in y; rows run over the point lattice (y slow)."""
    return np.kron(vy, vx), np.stack([np.kron(vy, dx), np.kron(dy, vx)], axis=-1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# rows per panel of a ``BandedFactor``: a Q4 panel is 32 by 40 doubles (10 KB),
# small enough for a core's L1 cache; 48 and 64 rows measured slower per product
PANEL_ROWS = 32


class BandedFactor:
    """A read-only n-by-n 1D factor F of half-bandwidth k (F[i, j] = 0 for
    |i - j| > k), kept as its dense row panels.

    Panel p holds rows r0 = p * ``PANEL_ROWS`` up to r0 + ``PANEL_ROWS`` of F
    on the columns r0 - k up to r0 + ``PANEL_ROWS`` + k (both cut to 0..n),
    which hold every nonzero of those rows: ``panels`` lists (rows, cols,
    block, block^T) with the two index ranges as slices and both blocks
    C-contiguous (a GEMM runs slower on a transposed operand).  ``F @ Z``
    (the y side of a 2D product, Z of shape (n,) or (n, m)) and
    ``times_t(X)`` = X F^T (the x side, X of shape (n,) or (m, n)) take one
    GEMM per panel, each writing its rows (or columns) of a new
    C-contiguous result; operands may be strided views.  Every block is
    read-only.
    """

    def __init__(self, dense: np.ndarray, k: int):
        self.n = n = len(dense)
        self.bandwidth = k
        panels = []
        for r0 in range(0, n, PANEL_ROWS):
            rows = slice(r0, min(r0 + PANEL_ROWS, n))
            cols = slice(max(0, r0 - k), min(n, r0 + PANEL_ROWS + k))
            block = dense[rows, cols].copy()
            panels.append((rows, cols, _frozen(block), _frozen(block.T.copy())))
        self.panels = tuple(panels)

    def __matmul__(self, Z: np.ndarray) -> np.ndarray:
        out = np.empty((self.n, *Z.shape[1:]))
        for rows, cols, block, _ in self.panels:
            np.matmul(block, Z[cols], out=out[rows])
        return out

    def times_t(self, X: np.ndarray) -> np.ndarray:
        """X F^T."""
        out = np.empty((*X.shape[:-1], self.n))
        for rows, cols, _, block_t in self.panels:
            np.matmul(X[..., cols], block_t, out=out[..., rows])
        return out

    def toarray(self) -> np.ndarray:
        F = np.zeros((self.n, self.n))
        for rows, cols, block, _ in self.panels:
            F[rows, cols] = block
        return F

    def abs_row_sums(self) -> np.ndarray:
        """The absolute row sums of F (``tensorops.norm_bound``)."""
        return np.concatenate([np.abs(block).sum(axis=1) for _, _, block, _ in self.panels])


MIRROR_TOL = 1e-13  # allowed departure of a cell block from its mirror image, relative to its largest entry


def cell_eigenbasis(K_cell: np.ndarray, M_cell: np.ndarray, n_cells: int, interior: bool) -> Eigenbasis:
    """The generalized eigenpairs K S = M S diag(lam), S^T M S = I of the 1D
    factors K and M assembled from ``n_cells`` equal (k+1, k+1) cell blocks
    ``K_cell`` and ``M_cell`` (with their end rows and columns removed when
    ``interior``), as an ``Eigenbasis``.

    Both cell blocks must be mirror symmetric, J A J = A for the local
    reflection J: a -> k - a, as on every axis of a uniform grid; otherwise
    ValueError.  Then sums of cosines and sines over the cell index c
    block-diagonalize the pencil by frequency j = 0..n_cells, theta_j =
    pi j / n_cells, into blocks of at most k modes, one per cell pattern
    (a column of P below): the vertices take cos(theta_j c); a mirror pair
    (l, k - l) of bubble nodes takes cos(theta_j (c + 1/2)) on both nodes
    and sin(theta_j (c + 1/2)) with opposite signs; a self-mirror bubble
    node takes cos(theta_j (c + 1/2)).  The interior block swaps sin and
    cos.  A mode's values on cell c are Re(exp(i theta_j c) u) for a fixed
    u on the cell's nodes, so the block of a cell block A is (n_cells / 2)
    Re(U^H A U) for the modes U of frequency j, plus (n_cells / 2)
    Re(U^T A U) at j = 0 and n_cells, the two frequencies at which the sum
    of exp(2 i theta_j c) over the cells does not vanish; a mode that is
    zero at every node (a sine at j = 0; at j = n_cells, a sine on the
    vertices or a cosine on the bubbles) is left out.  Each block pencil is
    solved by whitening, M_j = Q diag(d) Q^T and W = Q diag(d)^(-1/2), and
    the eigenpairs of W^T K_j W: one stacked pair of ``numpy.linalg.eigh``
    calls for the inner frequencies and one for each end, every matrix at
    most k by k.

    Every mode of block j has the mirror parity (-1)^j, or (-1)^(j + 1) in
    the interior block (Solomonoff, J. Comput. Phys. 98, 1992, gives the
    parity split this extends).  The halves of the ``Eigenbasis`` are the
    first rows of the even and of the odd modes, each family sorted
    ascending, with the middle dof of an odd n halved in ``Ye``; the full
    block's constant mode, of eigenvalue 0, comes first.  The work is
    O(n_cells k^3) for the blocks and O(n^2) for the halves.
    """
    for name, F in (("K", K_cell), ("M", M_cell)):
        if np.abs(F[::-1, ::-1] - F).max() > MIRROR_TOL * np.abs(F).max():
            raise ValueError(f"cell_eigenbasis needs a mirror-symmetric pencil; {name} is not")
    k = len(K_cell) - 1
    P = np.zeros((k + 1, k))  # the vertices, then per bubble pair its sum and difference, then a middle node
    P[[0, k], 0] = 1.0
    odd = np.zeros(k, dtype=bool)  # the patterns that the cell's mirror negates
    for l in range(1, (k + 1) // 2):
        P[[l, k - l], 2 * l - 1] = 1.0
        P[[l, k - l], 2 * l] = 1.0, -1.0
        odd[2 * l] = True
    if k % 2 == 0:
        P[k // 2, k - 1] = 1.0
    sine = odd != interior
    freq = np.arange(n_cells + 1)
    offset = np.full(k + 1, 0.5)  # each node's phase in cells: the bubble nodes take the cell's centre
    offset[[0, k]] = 0.0, 1.0
    U = np.exp(1j * np.pi / n_cells * np.multiply.outer(freq, offset))[:, :, None] * np.where(sine, -1j, 1.0) * P
    UH, UT = U.conj().transpose(0, 2, 1), U.transpose(0, 2, 1)
    ends = (freq % n_cells == 0)[:, None, None]
    K_b, M_b = (0.5 * n_cells * ((UH @ A @ U).real + ends * (UT @ A @ U).real) for A in (K_cell, M_cell))
    lam, mode_freq, V = [], [], []
    for j, present in (
        (slice(1, n_cells), np.ones(k, dtype=bool)),
        (slice(0, 1), ~sine),
        (slice(n_cells, None), sine != (np.arange(k) == 0)),
    ):
        Kj, Mj = (B[j][:, present][:, :, present] for B in (K_b, M_b))
        d, Q = np.linalg.eigh(Mj)
        W = Q / np.sqrt(d)[:, None, :]
        mu, Z = np.linalg.eigh(W.transpose(0, 2, 1) @ Kj @ W)
        lam.append(mu.ravel())
        mode_freq.append(np.repeat(freq[j], mu.shape[1]))
        # each mode's u on a cell's first k nodes, which hold every dof of the first half
        V.append((U[j][:, :k, present] @ (W @ Z)).transpose(0, 2, 1).reshape(-1, k))
    lam, mode_freq, V = (np.concatenate(a) for a in (lam, mode_freq, V))
    n = k * n_cells + 1 - 2 * interior
    cells = np.arange(-(-(n - n // 2 + interior) // k))  # the cells that hold the first half
    # exp(i theta_j c) = table[j c mod 2 n_cells]: the phases need no trigonometry per entry
    table = np.exp(1j * np.pi / n_cells * np.arange(2 * n_cells))
    halves = []
    for parity, size in ((0, n - n // 2), (1, n // 2)):
        modes = np.flatnonzero((mode_freq + interior) % 2 == parity)
        modes = modes[np.argsort(lam[modes], kind="stable")]
        phase = table[np.multiply.outer(cells, mode_freq[modes]) % (2 * n_cells)][:, None, :]
        Y = phase.real * V[modes].real.T
        Y -= phase.imag * V[modes].imag.T
        halves += [lam[modes], Y.reshape(k * len(cells), len(modes))[interior : interior + size]]
    if n % 2:  # the middle dof is its own mirror
        halves[1][n // 2] *= 0.5
    return Eigenbasis(*halves)


class Axis:
    """One axis of the grid: ``n_cells`` uniform cells of width ``h`` = length / n_cells
    from ``origin``, degree k.

    Holds the 1D mass, stiffness and derivative factors ``M``, ``K`` and
    ``C`` (C[i, j] = int phi_i phi_j'), each a ``BandedFactor``; the
    support coordinates ``nodes`` (n,); the (k+2)-point Gauss points of
    each cell, ``points`` (n_cells, k+2), with the weighted basis values
    that turn samples there into a 1D load (``load``); and the basis derivatives at the two ends,
    ``d0`` and ``d1``, so that d0 @ c is the end derivative of the 1D field
    with coefficients c.  The factors and the solver's 1D quantities are
    computed on first use and kept, so that an axis that only integrates
    loads never assembles them: the absolute row sums ``row_sums`` of M and
    K, the generalized eigenpairs ``eig`` and ``interior_eig`` of the full
    (K, M) blocks and of those without the two end dofs (each a
    ``linsolve.Eigenbasis`` of the even and odd halves, its modes even
    block first, which also keeps the full-size S below
    ``linsolve.FOLD_MIN_DOFS`` dofs), built by ``cell_eigenbasis`` from the
    blocks of M and K on one cell, the
    dense ``D`` = M^{-1} C, formed from ``eig``, the ``BandedFactor`` ``CT``
    = C^T and the ``end_columns`` of M and K, their first and last columns
    on the interior dofs (the Dirichlet lift of a momentum solve).
    Every array, the factors' panels included, is read-only, because one
    axis serves as both axes of a square grid.
    """

    def __init__(self, n_cells: int, length: float, degree: int, origin: float):
        if n_cells < 1:
            raise ValueError(f"cell counts must be positive, got {n_cells}")
        k = degree
        b = basis_1d(degree)
        self.n_cells = n_cells
        self.h = h = length / n_cells
        cells = np.arange(n_cells)[:, None]
        self.n = k * n_cells + 1
        self.ends = (origin, origin + n_cells * h)
        self.cell_dofs = k * cells + np.arange(k + 1)[None, :]
        self.nodes = np.empty(self.n)
        self.nodes[self.cell_dofs] = origin + (cells + b.nodes[None, :]) * h  # shared nodes agree exactly
        self.points = origin + (cells + b.points[None, :]) * h
        self.weighted_basis = (b.weights * h)[:, None] * b.vals
        self.d0 = np.zeros(self.n)
        self.d0[: k + 1] = b.node_ders[0] / h
        self.d1 = np.zeros(self.n)
        self.d1[-(k + 1):] = b.node_ders[-1] / h
        for a in (self.cell_dofs, self.nodes, self.points, self.weighted_basis, self.d0, self.d1):
            _frozen(a)
        self._basis = b

    def _assembled(self, local: np.ndarray) -> BandedFactor:
        """The 1D factor whose every cell block is the (k+1, k+1) ``local``."""
        F = np.zeros((self.n, self.n))
        np.add.at(F, (self.cell_dofs[:, :, None], self.cell_dofs[:, None, :]), local)
        return BandedFactor(F, len(local) - 1)

    @functools.cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (k+1, k+1) blocks of M, K and C on one cell, which every cell shares."""
        b = self._basis
        return (
            _frozen(b.vals.T @ (b.weights[:, None] * b.vals) * self.h),
            _frozen(b.ders.T @ (b.weights[:, None] * b.ders) / self.h),
            _frozen(b.vals.T @ (b.weights[:, None] * b.ders)),
        )

    @functools.cached_property
    def M(self) -> BandedFactor:
        return self._assembled(self._cells[0])

    @functools.cached_property
    def K(self) -> BandedFactor:
        return self._assembled(self._cells[1])

    @functools.cached_property
    def C(self) -> BandedFactor:
        return self._assembled(self._cells[2])

    @functools.cached_property
    def row_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The absolute row sums of M and K (``tensorops.norm_bound``)."""
        return _frozen(self.M.abs_row_sums()), _frozen(self.K.abs_row_sums())

    @functools.cached_property
    def eig(self) -> Eigenbasis:
        """The even and odd eigenpairs of (K, M): K S = M S diag(lam), S^T M S = I."""
        M, K, _ = self._cells
        return cell_eigenbasis(K, M, self.n_cells, False)

    @functools.cached_property
    def interior_eig(self) -> Eigenbasis:
        """The ``eig`` of K and M without their end rows and columns (the Dirichlet-eliminated block)."""
        M, K, _ = self._cells
        return cell_eigenbasis(K, M, self.n_cells, True)

    @functools.cached_property
    def D(self) -> np.ndarray:
        """The dense M^{-1} C = S S^T C, since M^{-1} = S S^T for the pairs of ``eig``."""
        spare, CtS = np.empty((2, self.n, self.n))
        self.eig.to_modes(self.C.toarray(), spare, CtS)
        return _frozen(self.eig.to_nodes(CtS.T, spare, np.empty((self.n, self.n))))

    @functools.cached_property
    def CT(self) -> BandedFactor:
        return BandedFactor(self.C.toarray().T, self.C.bandwidth)

    @functools.cached_property
    def end_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The first and last columns of M and of K on the interior dofs, where they
        are nonzero: per factor a (2, m) array, m = min(k, n - 2), whose row 0 is
        the first column on interior dofs 0..m-1 and row 1 the last column on the
        last m.  They are the end columns of the cell blocks without the end dof
        itself (rows 1..k-1 on a one-cell axis)."""
        k = self.cell_dofs.shape[1] - 1
        m = min(k, self.n - 2)
        return tuple(_frozen(np.stack([F[1 : 1 + m, 0], F[k - m : k, k]])) for F in self._cells[:2])

    def load(self, values) -> np.ndarray:
        """1D load sum_q w_q v(x_q) phi_i(x_q) from samples v at ``points``."""
        v = np.broadcast_to(np.asarray(values, dtype=float), self.points.shape)
        contrib = v @ self.weighted_basis
        return np.bincount(self.cell_dofs.ravel(), weights=contrib.ravel(), minlength=self.n)


class FeSpace:
    """Scalar continuous Lagrange space of degree k on ``domain`` cut into
    ``cells`` = (nx, ny) equal cells.

    Built from its two axes, ``axes`` = (x, y) ``Axis`` (one object when
    the cell counts, lengths and origins agree): the global mass and stiffness
    matrices are My (x) Mx and My (x) Kx + Ky (x) Mx.  Element
    e = j*nx + i has the dofs ay.cell_dofs[j] (x) ax.cell_dofs[i] in local
    order, the support points are the grid of the axes' ``nodes`` and the
    quadrature points the grid of their Gauss ``points``; no (n_dofs, 2)
    list of either is built.  ``h_max`` is the larger cell width.  The element
    tables are Kronecker products of the 1D
    tables of ``basis_1d``, scaled to physical derivatives once: ``quad_phi``,
    ``quad_dx``, ``quad_dy`` (n_local, n_quad) at the quadrature points and
    ``node_dx``, ``node_dy`` (n_local, n_local) at the nodes, C-contiguous,
    so that coeffs[element_dofs] @ table evaluates a field on every element.
    ``wdet`` holds the quadrature weights of one element.  The load tables
    ``load_phi``, ``load_dx``, ``load_dy`` (n_quad, n_local) are the
    transposes with the weights folded in, so that values @ table integrates
    (n_elements, n_quad) samples against the basis.  ``quad_axes`` and
    ``node_axes`` are the (x, y) coordinates of the quadrature and support
    point grids as broadcastable axis arrays, x of shape (1, n) and y of
    shape (m, 1): a callback evaluated on them (at the quadrature points,
    on a band of rows of y) returns the grid, which ``quad_order`` lays out
    in element order, (elements, n_quad) like coeffs[element_dofs] @
    quad_phi, and ``node_order`` like the coefficients.  ``boundary_dofs``
    lists the dofs of the boundary ring.
    """

    def __init__(self, domain: RectDomain, cells: tuple[int, int], degree: int):
        self.degree = degree
        b = basis_1d(degree)
        (nx, ny), (ox, oy), (lx, ly) = cells, domain.origin, domain.extent
        ax = Axis(nx, lx, degree, ox)
        ay = ax if (ny, ly, oy) == (nx, lx, ox) else Axis(ny, ly, degree, oy)
        self.axes = ax, ay
        self.h_max = max(ax.h, ay.h)
        self.ndof_x, self.ndof_y = ax.n, ay.n
        self.n_dofs = ax.n * ay.n

        n_el = nx * ny
        self.element_dofs = (ay.cell_dofs[:, None, :, None] * ax.n + ax.cell_dofs[None, :, None, :]).reshape(n_el, -1)

        self.quad_axes = ax.points.reshape(1, -1), ay.points.reshape(-1, 1)
        self.node_axes = ax.nodes.reshape(1, -1), ay.nodes.reshape(-1, 1)

        on_boundary = np.ones((ay.n, ax.n), dtype=bool)
        on_boundary[1:-1, 1:-1] = False
        self.boundary_dofs = np.flatnonzero(on_boundary)

        self.wdet = np.kron(b.weights, b.weights) * (ax.h * ay.h)
        phi, dphi = _tensor_tables(b.vals, b.ders, b.vals, b.ders)
        _, dphi_nodes = _tensor_tables(b.node_vals, b.node_ders, b.node_vals, b.node_ders)
        self.quad_phi, self.quad_dx, self.quad_dy, self.node_dx, self.node_dy = (
            np.ascontiguousarray(T)
            for T in (
                phi.T,
                dphi[:, :, 0].T * (1.0 / ax.h),
                dphi[:, :, 1].T * (1.0 / ay.h),
                dphi_nodes[:, :, 0].T * (1.0 / ax.h),
                dphi_nodes[:, :, 1].T * (1.0 / ay.h),
            )
        )
        self.load_phi, self.load_dx, self.load_dy = (
            np.ascontiguousarray(self.wdet[:, None] * T.T) for T in (self.quad_phi, self.quad_dx, self.quad_dy)
        )

    # ---- field evaluation --------------------------------------------------

    # The two reorderings return writable arrays: a reshape of the read-only
    # broadcast view copies unless the order already matches (one cell in x,
    # or a full node grid), and then the view itself must not be returned.

    def quad_order(self, values, rows: slice) -> np.ndarray:
        """Samples on the grid of the ``quad_axes`` x by the ``rows`` of their y
        (broadcastable to it), whole element rows, as (n_elements of the rows, n_quad)."""
        x, y = self.quad_axes
        nx, ny = x.shape[1], len(y[rows])
        q = self.degree + 2
        grid = np.broadcast_to(np.asarray(values, dtype=float), (ny, nx)).reshape(ny // q, q, nx // q, q)
        return np.require(grid.transpose(0, 2, 1, 3).reshape(-1, q * q), requirements="W")

    def node_order(self, values) -> np.ndarray:
        """Samples on the ``node_axes`` grid (broadcastable to it) as (n_dofs,)."""
        grid = np.broadcast_to(np.asarray(values, dtype=float), (self.ndof_y, self.ndof_x))
        return np.require(grid.ravel(), requirements="W")

    def element_bands(self) -> list[tuple[slice, slice]]:
        """The bands of whole element rows that every quadrature pass walks, each
        of max(1, ``BLOCK_ELEMENTS`` // nx) rows (the last may hold fewer), as
        (elements, rows): its slice of the element numbering and of the rows
        of the ``quad_axes`` y.  The first band is the largest."""
        nx, ny = (a.n_cells for a in self.axes)
        q = self.degree + 2
        step = max(1, BLOCK_ELEMENTS // nx)
        return [
            (slice(j * nx, min(j + step, ny) * nx), slice(j * q, min(j + step, ny) * q)) for j in range(0, ny, step)
        ]


def build_space(domain: RectDomain, cells: tuple[int, int], degree: int) -> FeSpace:
    return FeSpace(domain, cells, degree)


def error_norms(space: FeSpace, fields, exact, t: float, exact_grads) -> dict:
    """Errors of ``fields`` against ``exact`` and ``exact_grads``: {"L2", "H1semi", "H1", "Linf"}.

    A vector field is a list of per-component coefficient arrays, with
    ``exact(x, y, t)`` returning its components and ``exact_grads(x, y, t)``
    one (d/dx, d/dy) pair per component; a scalar field is one array, with
    ``exact`` returning values and ``exact_grads`` one pair.  ``exact`` and
    ``exact_grads`` are called once per band of ``element_bands`` on the
    ``quad_axes`` x and the band's rows of their y, so each quadrature point
    is sampled once and a band's samples are freed before the next band is
    sampled; ``exact`` is called once more on the ``node_axes``.  Each must
    accept broadcastable coordinates, x of shape (1, n) and y of shape
    (m, 1), and return values that broadcast to (m, n).

    L2 and the H1 seminorm ("H1semi") sum the components' squared value and
    gradient errors in quadrature, band by band, each in its own sum; H1
    (the full norm) is sqrt(L2^2 + H1semi^2).  Linf is the largest
    Euclidean magnitude of the error at the quadrature and support points.
    """
    if isinstance(fields, np.ndarray):
        pairs = lambda x, y, tt: (exact_grads(x, y, tt),)
        return error_norms(space, [fields], lambda x, y, tt: (exact(x, y, tt),), t, pairs)
    l2sq = semisq = quad_max = 0.0
    for elements, rows in space.element_bands():
        l2, grads, band_max = _band_errors(space, fields, exact, exact_grads, t, elements, rows)
        for term in l2:
            l2sq += term
        for term in grads:
            semisq += term
        quad_max = np.maximum(quad_max, band_max)  # a NaN stays NaN
    nodal_sq = 0.0
    for f, e in zip(fields, exact(*space.node_axes, t)):
        nodal_sq = nodal_sq + (f - space.node_order(e)) ** 2
    linf = float(np.sqrt(max(quad_max, np.max(nodal_sq))))
    return {"L2": np.sqrt(l2sq), "H1semi": np.sqrt(semisq), "H1": np.sqrt(l2sq + semisq), "Linf": linf}


def _band_errors(space: FeSpace, fields, exact, exact_grads, t: float, elements: slice, rows: slice):
    """Per component, the squared L2 and squared gradient errors on the band
    ``elements`` (the ``rows`` of the ``quad_axes`` y), and the band's largest
    squared error magnitude.  The band's samples are taken here, so they are
    freed on return."""
    x, y = space.quad_axes
    quad = [space.quad_order(e, rows) for e in exact(x, y[rows], t)]
    quad_grads = [[space.quad_order(g, rows) for g in pair] for pair in exact_grads(x, y[rows], t)]
    l2, grads = [], []
    quad_sq = 0.0
    for f, e_quad, (ex, ey) in zip(fields, quad, quad_grads):
        local = f[space.element_dofs[elements]]
        diff = local @ space.quad_phi - e_quad
        diff *= diff
        l2.append(float(np.sum(diff @ space.wdet)))
        quad_sq = quad_sq + diff
        dxs = local @ space.quad_dx - ex
        dys = local @ space.quad_dy - ey
        grads.append(float(np.sum(dxs * dxs @ space.wdet) + np.sum(dys * dys @ space.wdet)))
    return l2, grads, np.max(quad_sq)
