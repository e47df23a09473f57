"""Oracles for the global matrices, which the package itself never assembles.

``assemble_mass``/``assemble_stiffness`` build the 2D CSR matrices by
element quadrature and a scatter through the element dof table, the way
the package once did; tests use them as references for the tensor-product
operators.

The exact-integration oracle is independent of that path: 1D Lagrange basis
polynomials are built as coefficient lists and multiplied / integrated term
by term in 50-digit mpmath arithmetic (float64 polynomial coefficients lose
~1e-12 to cancellation at degree 4); 2D element matrices follow from the
tensor structure, and the global scatter matches local nodes to global
indices by geometric position only.
"""

import mpmath
import numpy as np
import scipy.sparse as sp

from gepup.fem import gauss_lobatto_01

mpmath.mp.dps = 50


def _local_matrices(space):
    ref = space.ref
    w = space.wdet
    M = ref.phi.T @ (w[:, None] * ref.phi)
    dx = ref.dphi[:, :, 0] * space.inv_h[0]
    dy = ref.dphi[:, :, 1] * space.inv_h[1]
    A = dx.T @ (w[:, None] * dx) + dy.T @ (w[:, None] * dy)
    return M, A


def _scatter(space, local):
    nl = space.ref.n_local
    ed = space.element_dofs
    rows = np.repeat(ed, nl, axis=1).ravel()
    cols = np.tile(ed, (1, nl)).ravel()
    data = np.tile(local.ravel(), space.mesh.n_elements)
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


def exact_global_matrices(mesh, k):
    """Dense global mass/stiffness via coordinate-keyed scatter (no shared dof map)."""
    nodes = gauss_lobatto_01(k + 1)
    M_loc, A_loc = exact_element_matrices(k, mesh.hx, mesh.hy)

    def key(x, y):
        return (round(x * 1e12), round(y * 1e12))

    index = {}
    coords_per_element = []
    for e in range(mesh.n_elements):
        ox, oy = mesh.element_origin(e)
        pts = [(ox + a * mesh.hx, oy + b * mesh.hy) for b in nodes for a in nodes]
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

    lookup = {key(*pt): i for i, pt in enumerate(space.support_points)}
    perm = np.array([lookup[key(*pt)] for pt in oracle_coords])
    assert len(set(perm)) == len(perm)
    return perm
