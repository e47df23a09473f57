"""Quadrature oracle for the operator chain's loads.

Every load is integrated element by element with the (k+2)^2-point Gauss
rule, and every boundary load side by side with the (k+2)-point rule on
the element faces, and scattered through the element dof table: the way
the package assembled all of them before its linear and boundary loads
became 1D-factor products.  The element tables are ``shape_eval`` values
at the reference Gauss points (``fem_oracle.element_tables``), scaled by
the cell widths of the space's axes.
Each function returns the load split into its terms, so that a comparison
can be scaled by the size of each term rather than by the sum, which may
be a small remainder of large terms.
"""

import numpy as np

from gepup.fem import gauss_legendre_01
from fem_oracle import element_tables, grads_at_quad, quad_coords, shape_eval, values_at_quad


def value_load(space, vals):
    """Entries sum_q w_q v(x_q) eta_i(x_q) from (n_elements, n_quad) values."""
    w, phi, _ = element_tables(space)
    contrib = (vals * w[None, :]) @ phi
    return np.bincount(space.element_dofs.ravel(), weights=contrib.ravel(), minlength=space.n_dofs)


def derivative_load(space, vals, d):
    """Entries sum_q w_q v(x_q) d eta_i / dx_d (x_q)."""
    w, _, dphi = element_tables(space)
    contrib = (vals * w[None, :]) @ dphi[:, :, d]
    return np.bincount(space.element_dofs.ravel(), weights=contrib.ravel(), minlength=space.n_dofs)


def _at_quad(space, fn, t):
    x, y = quad_coords(space)
    return [np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in fn(x, y, t)]


def _sides(space):
    """Per boundary side: its elements, outward normal, global (x, y) of the
    face quadrature points, weights times face length, and the shape values
    and physical gradients at the points."""
    ax, ay = space.axes
    nx, ny = ax.n_cells, ay.n_cells
    q, w = gauss_legendre_01(space.degree + 2)
    zero, one = np.zeros_like(q), np.ones_like(q)
    i, j = np.arange(nx), np.arange(ny)
    for els, normal, ref_pts in (
        (i, (0.0, -1.0), np.column_stack([q, zero])),
        ((ny - 1) * nx + i, (0.0, 1.0), np.column_stack([q, one])),
        (j * nx, (-1.0, 0.0), np.column_stack([zero, q])),
        (j * nx + nx - 1, (1.0, 0.0), np.column_stack([one, q])),
    ):
        tables = [shape_eval(space.degree, pt) for pt in ref_pts]
        phi = np.array([v for v, _ in tables])
        dphi = np.array([g for _, g in tables]) / np.array([ax.h, ay.h])
        x = ax.ends[0] + (els[:, None] % nx + ref_pts[None, :, 0]) * ax.h
        y = ay.ends[0] + (els[:, None] // nx + ref_pts[None, :, 1]) * ay.h
        length = ax.h if normal[0] == 0.0 else ay.h
        yield els, normal, x, y, w * length, phi, dphi


def _flux_load(space, g, t):
    """-(g . n, eta_i) over the boundary."""
    load = np.zeros(space.n_dofs)
    for els, n, x, y, w, phi, _ in _sides(space):
        gx, gy = (np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in g(x, y, t))
        np.add.at(load, space.element_dofs[els].ravel(), -(((gx * n[0] + gy * n[1]) * w) @ phi).ravel())
    return load


def _curl_load(space, U, nu):
    """nu (curl u, tau . grad eta_i) over the boundary, tau = (-n_y, n_x)."""
    load = np.zeros(space.n_dofs)
    for els, n, _, _, w, _, dphi in _sides(space):
        ux, uy = (U[d][space.element_dofs[els]] for d in range(2))
        curl = uy @ dphi[:, :, 0].T - ux @ dphi[:, :, 1].T
        tangent_grad = dphi[:, :, 0] * -n[1] + dphi[:, :, 1] * n[0]
        np.add.at(load, space.element_dofs[els].ravel(), nu * ((curl * w) @ tangent_grad).ravel())
    return load


def _advection(space, U):
    """u . grad u_d at the quadrature points, d = x, y."""
    ux = values_at_quad(space, U[0])
    uy = values_at_quad(space, U[1])
    out = []
    for d in range(2):
        gx, gy = grads_at_quad(space, U[d])
        out.append(ux * gx + uy * gy)
    return out


def fu_terms(space, W_d, Phi, d):
    """(w_d, eta_i) and -(dphi/dx_d, eta_i)."""
    return [value_load(space, values_at_quad(space, W_d)), -value_load(space, grads_at_quad(space, Phi)[d])]


def fphi_terms(space, W, case, t):
    """(w_x, d eta_i/dx), (w_y, d eta_i/dy) and -(g . n, eta_i) on the boundary."""
    return [
        derivative_load(space, values_at_quad(space, W[0]), 0),
        derivative_load(space, values_at_quad(space, W[1]), 1),
        _flux_load(space, case.g, t),
    ]


def fw_terms(space, U, Q, case, t):
    """Per component d: (f_d, eta_i), -(u . grad u_d, eta_i) and -(dq/dx_d, eta_i)."""
    f = _at_quad(space, case.f, t)
    adv = _advection(space, U)
    dq = grads_at_quad(space, Q)
    return [[value_load(space, f[d]), -value_load(space, adv[d]), -value_load(space, dq[d])] for d in range(2)]


def fq_terms(space, U, case, t):
    """(f, grad eta_i) and -(u . grad u, grad eta_i) per component, the nu curl
    boundary term and -(g_t . n, eta_i) on the boundary."""
    f = _at_quad(space, case.f, t)
    adv = _advection(space, U)
    terms = [derivative_load(space, f[d], d) for d in range(2)]
    terms += [-derivative_load(space, adv[d], d) for d in range(2)]
    return terms + [_curl_load(space, U, case.nu), _flux_load(space, case.dg_dt, t)]
