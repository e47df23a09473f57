"""Oracles for the global matrices, which the package itself never assembles.

``shape_eval`` tabulates the reference shape functions point by point,
``interpolate`` samples a callback at the nodes and ``support_points``
lists the nodes' coordinates in dof order; no run needs any of them (the
package builds its element tables as Kronecker products of 1D tables and
samples the case callbacks itself).

``assemble_mass``/``assemble_stiffness`` build the 2D CSR matrices by
element quadrature and a scatter through the element dof table, the way
the package once did; tests use them as references for the tensor-product
operators.  Their element tables come from ``shape_eval`` point by point at
the reference Gauss points and the cell widths of the space's axes, not
from the space's own Kronecker tables.

The exact-integration oracle is independent of that path: 1D Lagrange basis
polynomials are built as coefficient lists and multiplied / integrated term
by term in 50-digit mpmath arithmetic (float64 polynomial coefficients lose
~1e-12 to cancellation at degree 4); 2D element matrices follow from the
tensor structure, and the global scatter matches local nodes to global
indices by geometric position only.

Full-grid references for what the package takes band by band or not at
all: ``quad_coords`` (each element's quadrature points, from the reference
Gauss points and the element's cell indices, not from the space's
``quad_axes``), ``values_at_quad`` and ``grads_at_quad`` (a field and its
gradient at every quadrature point, in element order), ``interior_dofs``,
``divergence_l2`` and ``kinetic_energy`` (the formulas a state's monitors
repeat) and ``vortex_u_theta`` (the single vortex's angular speed).
``combination`` is (alpha M + beta A) x through a field's ``XPass``, the way
the pass once formed it; ``full_grid_lift`` is the momentum solve's
Dirichlet lift as the package once took it, the ring data scattered into a
zero grid array, multiplied by the full 2D operator and cut to the interior
rows, and ``lift_magnitude`` the magnitudes of its terms;
``sampled_speed_sq`` is the largest |u|^2 at the support and the
quadrature points, from a fresh ``values_at_quad`` of each component, as the
Courant step once sampled it.
"""

import mpmath
import numpy as np
import scipy.sparse as sp

from gepup.cases import VORTEX_RADIUS
from gepup.fem import basis_1d, gauss_legendre_01, gauss_lobatto_01, lagrange_1d

mpmath.mp.dps = 50


def shape_eval(degree, point):
    """Shape values ((k+1)^2,) and gradients ((k+1)^2, 2) at one reference point.

    Local numbering is row-major over the (k+1)^2 Gauss-Lobatto node lattice
    of the unit square (x fastest).
    """
    nodes = basis_1d(degree).nodes
    pt = np.atleast_2d(np.asarray(point, dtype=float))
    if pt.shape != (1, 2) or pt.min() < -1e-12 or pt.max() > 1.0 + 1e-12:
        raise ValueError(f"point must lie in the closed unit square, got {point}")
    (vx, dx), (vy, dy) = lagrange_1d(nodes, pt[:, 0]), lagrange_1d(nodes, pt[:, 1])
    return np.kron(vy, vx)[0], np.stack([np.kron(vy, dx), np.kron(dy, vx)], axis=-1)[0]


def interpolate(space, fn, t=0.0):
    """Nodal interpolant: ``fn(x, y, t)``, which must broadcast as numpy does,
    sampled on the space's ``node_axes``, in dof order."""
    return space.node_order(fn(*space.node_axes, t))


def support_points(space):
    """The (n_dofs, 2) support point coordinates in dof order: the grid of the
    axes' ``nodes``, x fastest."""
    X, Y = np.meshgrid(space.axes[0].nodes, space.axes[1].nodes, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()])


def element_tables(space):
    """Weights (n_quad,), shape values (n_quad, n_local) and physical gradients
    (n_quad, n_local, 2) at the (k+2)^2 Gauss points of one cell, y slow."""
    ax, ay = space.axes
    q, w = gauss_legendre_01(space.degree + 2)
    tables = [shape_eval(space.degree, (x, y)) for y in q for x in q]
    phi = np.array([v for v, _ in tables])
    dphi = np.array([g for _, g in tables]) / np.array([ax.h, ay.h])
    return np.outer(w, w).ravel() * (ax.h * ay.h), phi, dphi


def _local_matrices(space):
    w, phi, dphi = element_tables(space)
    M = phi.T @ (w[:, None] * phi)
    dx, dy = dphi[:, :, 0], dphi[:, :, 1]
    A = dx.T @ (w[:, None] * dx) + dy.T @ (w[:, None] * dy)
    return M, A


def _scatter(space, local):
    ed = space.element_dofs
    nl = ed.shape[1]
    rows = np.repeat(ed, nl, axis=1).ravel()
    cols = np.tile(ed, (1, nl)).ravel()
    data = np.tile(local.ravel(), len(ed))
    mat = sp.coo_matrix((data, (rows, cols)), shape=(space.n_dofs, space.n_dofs)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assemble_mass(space):
    """CSR mass matrix with entries (eta_i, eta_j) over the domain."""
    M_loc, _ = _local_matrices(space)
    return _scatter(space, M_loc)


def assemble_stiffness(space):
    """CSR stiffness matrix with entries (grad eta_i, grad eta_j)."""
    _, A_loc = _local_matrices(space)
    return _scatter(space, A_loc)


def _poly_mul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_der(a):
    return [a[n] * n for n in range(1, len(a))]


def _poly_int01(a):
    return sum(c / (n + 1) for n, c in enumerate(a))


def lagrange_polys(nodes):
    nodes = [mpmath.mpf(x) for x in nodes]
    out = []
    for i, xi in enumerate(nodes):
        c = [mpmath.mpf(1)]
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            c = _poly_mul(c, [-xj / (xi - xj), 1 / (xi - xj)])
        out.append(c)
    return out


def mass_stiffness_1d(k):
    polys = lagrange_polys(gauss_lobatto_01(k + 1))
    n = k + 1
    M = np.empty((n, n))
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            M[i, j] = float(_poly_int01(_poly_mul(polys[i], polys[j])))
            K[i, j] = float(_poly_int01(_poly_mul(_poly_der(polys[i]), _poly_der(polys[j]))))
    return M, K


def exact_element_matrices(k, hx, hy):
    """Element mass/stiffness on an hx-by-hy rectangle (row-major local nodes)."""
    M1, K1 = mass_stiffness_1d(k)
    M = np.kron(hy * M1, hx * M1)
    A = np.kron(hy * M1, K1 / hx) + np.kron(K1 / hy, hx * M1)
    return M, A


def exact_global_matrices(domain, cells, k):
    """Dense global mass/stiffness on ``domain`` cut into ``cells`` = (nx, ny)
    equal cells, via coordinate-keyed scatter (no shared dof map)."""
    nodes = gauss_lobatto_01(k + 1)
    nx, ny = cells
    hx, hy = domain.extent[0] / nx, domain.extent[1] / ny
    M_loc, A_loc = exact_element_matrices(k, hx, hy)

    def key(x, y):
        return (round(x * 1e12), round(y * 1e12))

    index = {}
    coords_per_element = []
    for e in range(nx * ny):
        j, i = divmod(e, nx)
        ox, oy = domain.origin[0] + i * hx, domain.origin[1] + j * hy
        pts = [(ox + a * hx, oy + b * hy) for b in nodes for a in nodes]
        ids = []
        for pt in pts:
            kk = key(*pt)
            if kk not in index:
                index[kk] = len(index)
            ids.append(index[kk])
        coords_per_element.append(ids)

    n = len(index)
    M = np.zeros((n, n))
    A = np.zeros((n, n))
    for ids in coords_per_element:
        for il, ig in enumerate(ids):
            for jl, jg in enumerate(ids):
                M[ig, jg] += M_loc[il, jl]
                A[ig, jg] += A_loc[il, jl]
    coords = np.empty((n, 2))
    for (kx, ky), idx in index.items():
        coords[idx] = (kx * 1e-12, ky * 1e-12)
    return M, A, coords


def permutation_to_space(space, oracle_coords):
    """Map oracle indices to the space's global dof numbering by position."""
    def key(x, y):
        return (round(x * 1e12), round(y * 1e12))

    lookup = {key(*pt): i for i, pt in enumerate(support_points(space))}
    perm = np.array([lookup[key(*pt)] for pt in oracle_coords])
    assert len(set(perm)) == len(perm)
    return perm


def combination(p, alpha, beta):
    """(alpha M + beta A) x = My (alpha X Mx^T + beta X Kx^T) + beta Ky (X Mx^T) for the pass p of x."""
    ax, ay = p._ax, p._ay
    mixed = alpha * p._XMt + beta * p._times(ax.K)
    return (ay.M @ mixed + beta * (ay.K @ p._XMt)).ravel()


def full_grid_lift(ops, coeff, boundary_values):
    """(M + coeff A) x_b on the (ndof_y - 2, ndof_x - 2) interior grid, x_b the ring data."""
    space = ops.space
    x = np.zeros(space.n_dofs)
    x[space.boundary_dofs] = boundary_values
    lift = combination(ops.x_pass(x), 1.0, coeff)
    return lift.reshape(space.ndof_y, space.ndof_x)[1:-1, 1:-1]


def lift_magnitude(ops, coeff, boundary_values):
    """The magnitudes of the terms of ``full_grid_lift``: the same products of the
    absolute factors and the absolute ring data, through dense factors."""
    space = ops.space
    ax, ay = space.axes
    X = np.zeros(space.n_dofs)
    X[space.boundary_dofs] = np.abs(boundary_values)
    X = X.reshape(space.ndof_y, space.ndof_x)
    Mx, Kx, My, Ky = (np.abs(F.toarray()) for F in (ax.M, ax.K, ay.M, ay.K))
    XMt = X @ Mx.T
    return (My @ (XMt + coeff * (X @ Kx.T)) + coeff * (Ky @ XMt))[1:-1, 1:-1]


def quad_coords(space):
    """Physical x and y of the quadrature points, each (n_elements, n_quad), y slow.

    Element e = j * nx + i takes origin + (cell + point) * h per axis, the
    reference Gauss points offset by its cell indices (i, j): the arithmetic
    of an axis's Gauss points, so that a callback sampled here equals one
    sampled on the ``quad_axes`` bit for bit.
    """
    ax, ay = space.axes
    q, _ = gauss_legendre_01(space.degree + 2)
    j, i = np.divmod(np.arange(ax.n_cells * ay.n_cells), ax.n_cells)
    x = ax.ends[0] + (i[:, None, None] + q[None, None, :]) * ax.h
    y = ay.ends[0] + (j[:, None, None] + q[None, :, None]) * ay.h
    return tuple(c.reshape(len(i), -1) for c in np.broadcast_arrays(x, y))


def values_at_quad(space, coeffs):
    """(n_elements, n_quad) field values at the volume quadrature points."""
    return coeffs[space.element_dofs] @ space.quad_phi


def grads_at_quad(space, coeffs):
    """d/dx and d/dy of the field at the volume quadrature points."""
    local = coeffs[space.element_dofs]
    return local @ space.quad_dx, local @ space.quad_dy


def interior_dofs(space):
    """The dofs off the boundary ring, ascending."""
    return np.setdiff1d(np.arange(space.n_dofs), space.boundary_dofs)


def divergence_l2(space, W):
    """The L2 norm of div W by a fresh full-grid quadrature pass: the formula
    that a state's ``div_l2`` repeats (bit for bit when the pass is one band)."""
    div = W[0][space.element_dofs] @ space.quad_dx + W[1][space.element_dofs] @ space.quad_dy
    return float(np.sqrt(np.sum(div * div @ space.wdet)))


def kinetic_energy(ops, W):
    """1/2 w . M w by fresh mass products: the value a state's
    ``kinetic_energy`` repeats to rounding."""
    return 0.5 * sum(float(w @ ops.x_pass(w).mass) for w in W)


def vortex_u_theta(r):
    """The single vortex's angular speed: cubic core, 1/r outer decay."""
    r = np.asarray(r, dtype=float)
    inner = 0.5 * r - 4.0 * r**3
    edge = 0.5 * VORTEX_RADIUS - 4.0 * VORTEX_RADIUS**3
    outer = VORTEX_RADIUS * edge / np.where(r > 0, r, 1.0)
    return np.where(r < VORTEX_RADIUS, inner, outer)


def sampled_speed_sq(space, U):
    """max |u|^2 over the support points and the volume quadrature points."""
    qx = values_at_quad(space, U[0])
    qy = values_at_quad(space, U[1])
    return max(float((U[0] ** 2 + U[1] ** 2).max()), float((qx * qx + qy * qy).max()))
