"""Benchmark problem definitions on the unit square."""

from __future__ import annotations

import numpy as np

from .operators import CaseDefinition

__all__ = ["taylor_green_case", "single_vortex_case", "lid_cavity_case"]

TWO_PI_SQ = 2.0 * np.pi**2


def taylor_green_case(reynolds: float) -> CaseDefinition:
    """Decaying vortex array with a closed-form solution; zero forcing.

    The boundary velocity is the exact solution restricted to the boundary
    and its time derivative is supplied analytically.
    """
    if reynolds <= 0:
        raise ValueError(f"Reynolds number must be positive, got {reynolds}")
    nu = 1.0 / reynolds

    def decay(t):
        return np.exp(-TWO_PI_SQ * nu * t)

    def exact_u(x, y, t):
        e = decay(t)
        return (
            -e * np.cos(np.pi * x) * np.sin(np.pi * y),
            e * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    def exact_u_grads(x, y, t):
        e = decay(t)
        pcc = np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
        pss = np.pi * np.sin(np.pi * x) * np.sin(np.pi * y)
        return ((e * pss, -e * pcc), (e * pcc, -e * pss))

    def exact_p(x, y, t):
        e = np.exp(-2.0 * TWO_PI_SQ * nu * t)
        return -0.25 * e * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))

    def exact_p_grad(x, y, t):
        e = np.exp(-2.0 * TWO_PI_SQ * nu * t)
        return (
            0.5 * np.pi * e * np.sin(2 * np.pi * x),
            0.5 * np.pi * e * np.sin(2 * np.pi * y),
        )

    def dg_dt(x, y, t):
        ux, uy = exact_u(x, y, t)
        return (-TWO_PI_SQ * nu * ux, -TWO_PI_SQ * nu * uy)

    return CaseDefinition(
        name="taylor-green",
        nu=nu,
        g=exact_u,
        dg_dt=dg_dt,
        u0=lambda x, y: exact_u(x, y, 0.0),
        exact_u=exact_u,
        exact_p=exact_p,
        exact_u_grads=exact_u_grads,
        exact_p_grad=exact_p_grad,
    )


VORTEX_RADIUS = 0.2
VORTEX_CENTER = (0.5, 0.5)
VORTEX_U_MAX = 0.068  # peak of u_theta, reached at r = VORTEX_RADIUS


def single_vortex_case(reynolds: float) -> CaseDefinition:
    """Axisymmetric vortex in a no-slip box; the initial field is not
    solenoidal near the boundary and is projected before time stepping."""
    if reynolds <= 0:
        raise ValueError(f"Reynolds number must be positive, got {reynolds}")
    nu = VORTEX_U_MAX / reynolds  # Re = L U / nu with L = 1
    xc, yc = VORTEX_CENTER

    def u0(x, y):
        dx = np.asarray(x, dtype=float) - xc
        dy = np.asarray(y, dtype=float) - yc
        rsq = dx * dx + dy * dy
        r = np.sqrt(rsq)
        # angular velocity u_theta / r, finite at the centre
        inner = 0.5 - 4.0 * rsq
        edge = 0.5 * VORTEX_RADIUS - 4.0 * VORTEX_RADIUS**3
        outer = VORTEX_RADIUS * edge / np.where(rsq > 0, rsq, 1.0)
        omega = np.where(r < VORTEX_RADIUS, inner, outer)
        return (-omega * dy, omega * dx)

    def g(x, y, t):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return (z, z)

    return CaseDefinition(
        name="single-vortex",
        nu=nu,
        g=g,
        u0=u0,
    )


def lid_cavity_case(reynolds: float) -> CaseDefinition:
    """Impulsively started lid-driven cavity: top wall slides at unit speed.

    Corner values belong to the stationary walls (non-leaky convention).
    """
    if reynolds <= 0:
        raise ValueError(f"Reynolds number must be positive, got {reynolds}")
    nu = 1.0 / reynolds
    tol = 1e-12

    def g(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        on_lid = (y >= 1.0 - tol) & (x > tol) & (x < 1.0 - tol)
        return (np.where(on_lid, 1.0, 0.0), np.zeros_like(x))

    def u0(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return (z, z)

    return CaseDefinition(
        name="lid-cavity",
        nu=nu,
        g=g,
        u0=u0,
    )
