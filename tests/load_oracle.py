"""Quadrature oracle for the operator chain's loads.

Every load is integrated element by element with the (k+2)^2-point Gauss
rule and scattered through the element dof table, the way the package
assembled all of them before its linear loads became 1D-factor products.
Each function returns the load split into its terms, so that a comparison
can be scaled by the size of each term rather than by the sum, which may
be a small remainder of large terms.
"""

import numpy as np

from gepup.fem import normal_trace


def value_load(space, vals):
    """Entries sum_q w_q v(x_q) eta_i(x_q) from (n_elements, n_quad) values."""
    contrib = (vals * space.wdet[None, :]) @ space.ref.phi
    return np.bincount(space.element_dofs.ravel(), weights=contrib.ravel(), minlength=space.n_dofs)


def derivative_load(space, vals, d):
    """Entries sum_q w_q v(x_q) d eta_i / dx_d (x_q)."""
    contrib = (vals * space.wdet[None, :]) @ (space.ref.dphi[:, :, d] * space.inv_h[d])
    return np.bincount(space.element_dofs.ravel(), weights=contrib.ravel(), minlength=space.n_dofs)


def _at_quad(space, fn, t):
    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    return [np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in fn(x, y, t)]


def _flux_load(space, g, t):
    load = np.zeros(space.n_dofs)
    for face in space.faces:
        space.add_face_load(load, face, normal_trace(face, g, t), scale=-1.0)
    return load


def _advection(space, U):
    """u . grad u_d at the quadrature points, d = x, y."""
    ux = space.values_at_quad(U[0])
    uy = space.values_at_quad(U[1])
    out = []
    for d in range(2):
        gx, gy = space.grads_at_quad(U[d])
        out.append(ux * gx + uy * gy)
    return out


def fu_terms(space, W_d, Phi, d):
    """(w_d, eta_i) and -(dphi/dx_d, eta_i)."""
    return [value_load(space, space.values_at_quad(W_d)), -value_load(space, space.grads_at_quad(Phi)[d])]


def fphi_terms(space, W, case, t):
    """(w_x, d eta_i/dx), (w_y, d eta_i/dy) and -(g . n, eta_i) on the boundary."""
    return [
        derivative_load(space, space.values_at_quad(W[0]), 0),
        derivative_load(space, space.values_at_quad(W[1]), 1),
        _flux_load(space, case.g, t),
    ]


def fw_terms(space, U, Q, case, t):
    """Per component d: (f_d, eta_i), -(u . grad u_d, eta_i) and -(dq/dx_d, eta_i)."""
    f = _at_quad(space, case.f, t)
    adv = _advection(space, U)
    dq = space.grads_at_quad(Q)
    return [[value_load(space, f[d]), -value_load(space, adv[d]), -value_load(space, dq[d])] for d in range(2)]


def fq_terms(space, U, case, t):
    """(f, grad eta_i) and -(u . grad u, grad eta_i) per component, the nu curl
    boundary term and -(g_t . n, eta_i) on the boundary."""
    f = _at_quad(space, case.f, t)
    adv = _advection(space, U)
    curl_term = np.zeros(space.n_dofs)
    for face in space.faces:
        gx_x, gx_y = space.grads_on_face(face, U[0])
        gy_x, _ = space.grads_on_face(face, U[1])
        space.add_face_tangent_grad_load(curl_term, face, gy_x - gx_y, scale=case.nu)
    terms = [derivative_load(space, f[d], d) for d in range(2)]
    terms += [-derivative_load(space, adv[d], d) for d in range(2)]
    return terms + [curl_term, _flux_load(space, case.dg_dt, t)]
