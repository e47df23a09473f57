"""Semi-discrete operator chain of the projection/pressure-Poisson scheme.

The evolved velocity w is not constrained to be solenoidal; the chain

    w  --(potential solve)-->  phi  --(1D mass solves)-->  u  --(pressure solve)-->  q

recovers the divergence-free velocity u = w - grad(phi) and extracts the
pressure q from u.  One ``pressure`` call also forms the explicit load of
the momentum equation at that (u, q): F = (f - u . grad u - grad q, eta),
from the pass of q and the quadrature pass of ``eval_Fq``, which forms
every pressure load.  All right-hand sides are loads against the scalar
test basis; the two Poisson solves are pure-Neumann problems posed in the
mean-zero subspace.  The
velocity needs no 2D solve: the mass matrix cancels against the mass
factor of the load of d(phi)/dx_d, leaving
u_d = w_d - (Mx^{-1} Cx or My^{-1} Cy products of phi).

In 2D the curl is the scalar du_y/dx - du_x/dy and the boundary term of the
pressure equation integrates curl(u) against the tangential derivative of
the test function, with the counterclockwise tangent (-n_y, n_x).  It and
the boundary fluxes (g . n, eta) are ``tensorops`` products on the space's
1D axes, added in place onto the boundary rows and columns of a load,
each side whole, so a corner sums the two sides that meet there; the
nonlinear term is integrated by one quadrature pass over the space's
physical element tables, band by band of ``FeSpace.element_bands`` (the
walk the error norms take too), sampling the forcing on the space's
quadrature axes.  The state after a step, or the initial state, takes its
monitors (the L2 norm of div u, the largest sampled speed and the kinetic
energy) from the quadrature pass of its ``pressure`` call with monitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, tensorops
from .fem import UNIT_SQUARE, RectDomain
from .linsolve import FastDiagonalization, check_backward_error
from .tensorops import XPass, norm_bound

__all__ = ["CaseDefinition", "GepupState", "GepupOperators", "check_boundary_compatibility"]

SOLVE_CLASSES = ("momentum", "poisson_phi", "poisson_q", "mass")
EXACT_FIELDS = ("exact_u", "exact_p", "exact_u_grads", "exact_p_grad")  # a case sets all or none


@dataclass
class CaseDefinition:
    """A benchmark problem: viscosity, forcing, boundary data, initial data.

    ``f``, ``g``, ``dg_dt`` map vectorized (x, y, t) to component tuples;
    ``u0`` maps (x, y) to components.  ``f`` and ``dg_dt`` may be None when
    identically zero.  An exact solution, when known, enables error
    reporting; it is given by all four of ``exact_u(x, y, t) -> (ux, uy)``,
    ``exact_p(x, y, t) -> p``,
    ``exact_u_grads(x, y, t) -> ((uxx, uxy), (uyx, uyy))`` and
    ``exact_p_grad(x, y, t) -> (px, py)``, or by none of them.  ``f``,
    ``u0`` and the exact fields are called on the axes of a grid
    (``GepupOperators.eval_Fq``, ``initial_state``, ``fem.error_norms``):
    x of shape (1, n) and y of shape (m, 1), where y may be a band of the
    rows of the grid's y axis, so each must broadcast its arguments as
    numpy does and return components that broadcast to (m, n).  ``g`` and
    ``dg_dt`` are called on the boundary, with matching 1D arrays x and y,
    and return components that broadcast to their shape.
    """

    name: str
    nu: float
    g: object
    u0: object
    f: object = None
    dg_dt: object = None
    exact_u: object = None
    exact_p: object = None
    exact_u_grads: object = None
    exact_p_grad: object = None
    domain: RectDomain = UNIT_SQUARE

    def __post_init__(self):
        if not 0 <= self.nu < np.inf:
            raise ValueError(f"viscosity must be nonnegative and finite, got {self.nu}")
        missing = [name for name in EXACT_FIELDS if getattr(self, name) is None]
        if 0 < len(missing) < len(EXACT_FIELDS):
            raise ValueError(f"case {self.name!r}: a partial exact solution lacks {', '.join(missing)}")

    @property
    def has_exact_solution(self) -> bool:
        """Whether the exact solution is known (all four fields are then set)."""
        return self.exact_u is not None


FLUX_TOL = 1e-10  # largest net boundary flux of g that counts as compatible
FLUX_PANELS = 64  # Q4 cells per side of the flux quadrature


def check_boundary_compatibility(case: CaseDefinition, times):
    """Verify the net boundary flux of g vanishes (solvability of the potential solve).

    Sums the boundary load of g on ``FLUX_PANELS`` Q4 cells per side, a
    composite 6-point Gauss rule independent of any mesh.  A NaN flux fails.
    """
    axes = [fem.Axis(FLUX_PANELS, length, 4, origin) for origin, length in zip(case.domain.origin, case.domain.extent)]
    for t in times:
        load = np.zeros((axes[1].n, axes[0].n))
        tensorops.add_normal_load(axes, case.g, t, 1.0, load)
        flux = float(load.sum())
        if not abs(flux) <= FLUX_TOL:
            raise ValueError(
                f"case {case.name!r}: net boundary flux {flux:.3e} at t={t} violates the "
                f"compatibility condition (|flux| <= {FLUX_TOL:g})"
            )


@dataclass
class GepupState:
    """Discrete fields at one time: evolved velocity W, projected velocity U,
    projection potential Phi and pressure Q (both mass-mean-zero).

    A state from ``GepupOperators.state_at`` has W equal to U: the
    end-of-step update replaces W with the projected velocity, so ``W`` is
    the list ``U`` itself, not a copy, and neither is written in place.
    ``F`` holds the explicit loads (f - u . grad u - grad q, eta_i) per
    component at (U, Q, t), from the ``pressure`` call that gave Q; the next
    time step reads them as its first explicit stage.  ``div_l2`` (the L2
    norm of div u), ``speed_sq`` (the largest |u|^2 at the support and
    the quadrature points, for the Courant step) and ``kinetic_energy``
    (half the integral of |u|^2 by the quadrature rule, which is exact for
    it, so it equals 1/2 u . M u to rounding) come from the quadrature pass
    of the same call, made with monitors.  After changing U by hand, take
    the state from ``GepupOperators.state_at`` again.
    """

    t: float
    W: list[np.ndarray]
    U: list[np.ndarray]
    Phi: np.ndarray
    Q: np.ndarray
    F: list[np.ndarray]
    div_l2: float
    speed_sq: float
    kinetic_energy: float


class ConstrainedOperator:
    """Helmholtz-type operator mass + coeff*stiffness with eliminated Dirichlet rows.

    The Dirichlet rows are pinned to the boundary data and lifted to the
    right-hand side.  The interior block is again a Kronecker sum of the 1D
    factors, so it is solved directly in the interior eigenbasis; a new
    coeff only rescales the diagonal 1 + coeff * (lam_y + lam_x).
    The lift, (M + coeff A) x_b on the interior rows for the ring data x_b,
    is zero more than k rows or columns from the ring: ``subtract_lift``
    takes it there from 1D products of the ring's sides and the axes'
    ``end_columns``, with no full-grid array.  The
    backward-error check is that of the interior equations [K L] x = rhs_i
    the solve satisfies, x the whole solution (interior and ring): the
    solution's ``XPass`` gives (M + coeff A) x, whose interior rows are
    K x_i + L x_b, and ``norm`` bounds the norm of M + coeff A, and so of
    [K L].  The ring data enter the scale, so a solution whose interior
    terms cancel does not read the round-off of the ring's products as a
    backward error.
    """

    def __init__(self, ops: "GepupOperators", coeff: float):
        self.ops = ops
        self.coeff = coeff
        ax, ay = ops.space.axes
        self.norm = norm_bound(ax.row_sums, ay.row_sums, 1.0, coeff)
        self.scale = 1.0 / (1.0 + coeff * ops.interior_eig.lam)

    def subtract_lift(self, boundary_values: np.ndarray, b: np.ndarray):
        """b -= the lift (M + coeff A) x_b, in place on the (ndof_y - 2, ndof_x - 2)
        interior grid ``b``, x_b the ring data ``boundary_values`` (in
        ``boundary_dofs`` order) and zero elsewhere.

        The ring is X_b = e_0 r_0^T + e_N r_1^T + l e_0^T + rho e_M^T: its bottom
        and top rows r_0, r_1 over all x dofs and its left and right columns l,
        rho over the interior rows (the corners belong to the rows).  So the
        lift My X_b (Mx + coeff Kx)^T + coeff Ky X_b Mx^T is eight outer
        products, the bottom's my_0 (x) (Mx + coeff Kx) r_0 + coeff ky_0 (x)
        Mx r_0 with my_0, ky_0 the y axis's ``end_columns``, and so on: four
        strips k rows or columns thin, which add where they overlap.
        """
        ax, ay = self.ops.space.axes
        nx, c = ax.n, self.coeff
        sides = np.zeros((ay.n, 2))
        sides[1:-1] = boundary_values[nx:-nx].reshape(-1, 2)  # (left, right) per interior row
        rows = np.column_stack((boundary_values[:nx], boundary_values[-nx:]))
        # the bottom and top strips run along x at the ends of y, the left and right ones the other way
        for view, lines, along, across in ((b, rows, ax, ay), (b.T, sides, ay, ax)):
            P = along.M @ lines
            A = c * (along.K @ lines) + P
            M_ends, K_ends = across.end_columns
            m = M_ends.shape[1]
            for side, strip in enumerate((slice(0, m), slice(len(view) - m, len(view)))):
                view[strip] -= np.outer(M_ends[side], A[1:-1, side]) + np.outer(c * K_ends[side], P[1:-1, side])

    def solve(self, rhs: np.ndarray, boundary_values: np.ndarray) -> XPass:
        """Solve with x = boundary_values on the Dirichlet rows (strong elimination).

        Returns the pass of x, with ``mass`` M x and ``stiffness`` A x taken.
        """
        ops = self.ops
        grid = ops.grid
        rhs_i = rhs.reshape(grid)[1:-1, 1:-1]
        b = rhs_i.copy()
        self.subtract_lift(boundary_values, b)
        xi = ops.interior_eig.apply(b.ravel(), self.scale)
        x = np.empty_like(rhs)
        x[ops.space.boundary_dofs] = boundary_values
        x.reshape(grid)[1:-1, 1:-1] = xi.reshape(b.shape)
        p = ops.x_pass(x)
        Ax = p.stiffness.reshape(grid)[1:-1, 1:-1] * self.coeff
        Ax += p.mass.reshape(grid)[1:-1, 1:-1]
        ops.record_solve("momentum", rhs_i, Ax, x, self.norm)
        return p


class GepupOperators:
    """Tensor-product operators, direct solvers and the w -> u -> q solve chain.

    The space is ``fem.build_space(domain, cells, degree)``: degree k on
    ``domain`` cut into ``cells`` = (nx, ny) equal cells, and the one owner
    of the degree and the grid.  Every product goes through its two 1D axes
    (``space.axes``): each 2D product of a field through the field's
    ``XPass`` (``x_pass``), which takes its mass and stiffness products and
    its linear loads, 1D-factor products with the derivative factors, and
    the boundary loads on the boundary rows and columns.  Only the
    nonlinear load f - u . grad u is integrated by element quadrature, once
    per velocity field, with the space's physical element tables.  Every
    2D solve goes through the generalized
    eigenpairs of the same factors, which each axis computes once and keeps
    (``fem.Axis``); only their 2D spectra and scales are built here: the
    full (Neumann) pairs for the Poisson solves and the end-of-step mass
    solve, the interior pairs for the Dirichlet-eliminated momentum solve.
    The interior solver works in the full solver's work arrays.  The projection's mass
    solves are 1D, the axes' dense factors M^{-1} C (``XPass.l2_projection``).
    Each solve returns the ``XPass`` of its solution, whose products serve
    both its backward-error check and what the scheme next does with the
    field: M W and A W of a momentum solve, the potential load of W, the
    gradient loads of Phi and Q.  ``norm_M`` and ``norm_A`` bound the norms
    of the 2D mass and stiffness for the checks.
    ``residuals`` holds the largest backward error of each solve class since
    the last ``reset_residuals``; the "mass" class covers the projection's
    1D mass solves and the end-of-step solve.
    ``convection`` can be switched off to reduce the momentum right-hand
    side to pure forcing and pressure (used by linear-regime diagnostics).
    """

    def __init__(
        self,
        domain: RectDomain,
        cells: tuple[int, int],
        degree: int,
        convection: bool = True,
    ):
        self.space = fem.build_space(domain, cells, degree)
        self.grid = (self.space.ndof_y, self.space.ndof_x)
        self.convection = convection

        ax, ay = self.space.axes
        self.norm_M = norm_bound(ax.row_sums, ay.row_sums, 1.0, 0.0)
        self.norm_A = norm_bound(ax.row_sums, ay.row_sums, 0.0, 1.0)
        self.mass_weights = self.x_pass(np.ones(self.space.n_dofs)).mass
        self.eig = FastDiagonalization(ax.eig, ay.eig)
        self.interior_eig = FastDiagonalization(ax.interior_eig, ay.interior_eig)
        self.interior_eig.work_owner = self.eig  # no apply of one solver overlaps one of the other
        self.residuals = dict.fromkeys(SOLVE_CLASSES, 0.0)

    def reset_residuals(self):
        for key in self.residuals:
            self.residuals[key] = 0.0

    def record_solve(self, name: str, b, Kx, x, norm_K: float):
        """Check a solve's backward error (raises SolverError) and keep the largest per class."""
        eta = check_backward_error(name, b, Kx, x, norm_K)
        self.residuals[name] = max(self.residuals[name], eta)

    def x_pass(self, x) -> XPass:
        """The ``XPass`` of a field on the space's axes; x itself when it is one."""
        return x if isinstance(x, XPass) else XPass(self.space.axes, x)

    def momentum_operator(self, coeff: float) -> ConstrainedOperator:
        """Constrained mass + coeff*stiffness solver (coeff = nu*dt*gamma)."""
        return ConstrainedOperator(self, coeff)

    # ---- load evaluators -----------------------------------------------------

    def _nonlinear_loads(self, U: list[np.ndarray], case: CaseDefinition, t: float, monitors: bool):
        """(f - u . grad u, eta_i) per component and (f - u . grad u, grad eta_i), from one quadrature pass.

        The pass walks the bands of ``space.element_bands()``, reusing one set
        of buffers sized for the first (largest) band: each band gathers u,
        samples it and its derivatives at the quadrature points, forms
        v = f - u . grad u there and writes v's contributions to the three
        loads into its rows of three (n_elements, n_local) arrays, which one
        bincount each scatters at the end.  ``f`` is called once per band, on
        the ``quad_axes`` x and the band's rows of their y, and laid out by
        ``quad_order``.

        With ``monitors``, the pass also returns (div_l2, speed_sq,
        kinetic_energy) of u from the same samples, else None: the L2 norm of
        du_x/dx + du_y/dy, the largest u_x^2 + u_y^2 at the quadrature points
        and half the weighted sum of u_x^2 + u_y^2 there, each summed band by
        band; the maximum does not depend on the bands, the sums do at
        round-off.
        """
        space = self.space
        dofs, wdet = space.element_dofs, space.wdet
        phi, dx, dy = space.quad_phi, space.quad_dx, space.quad_dy
        n_el, n_local = dofs.shape
        bands = space.element_bands()
        x, y = space.quad_axes
        contrib = np.empty((3, n_el, n_local))  # (v_x, eta_i), (v_y, eta_i), (v, grad eta_i)
        size = bands[0][0].stop  # the first band: the largest, from element 0
        local = np.empty((2, size, n_local))
        samples = np.empty((5, size, len(wdet)))
        div_sq = speed_sq = energy = 0.0
        for elements, rows in bands:
            lx, ly = local[:, : elements.stop - elements.start]
            ux, uy, vx, vy, work = samples[:, : elements.stop - elements.start]
            if self.convection or monitors:
                # mode "clip": with the default "raise", take buffers its output
                np.take(U[0], dofs[elements], out=lx, mode="clip")
                np.take(U[1], dofs[elements], out=ly, mode="clip")
                np.matmul(lx, phi, out=ux)
                np.matmul(ly, phi, out=uy)
                if monitors:
                    np.multiply(ux, ux, out=vx)
                    vx += np.multiply(uy, uy, out=vy)
                    speed_sq = np.maximum(speed_sq, vx.max())  # a NaN sample stays NaN
                    energy += float(np.sum(vx @ wdet))
                np.matmul(lx, dx, out=vx)  # du_x/dx
                np.matmul(ly, dy, out=vy)  # du_y/dy
                if monitors:
                    np.add(vx, vy, out=work)
                    work *= work
                    div_sq += float(np.sum(work @ wdet))
            if self.convection:
                np.multiply(uy, vy, out=work)  # u_y du_y/dy
                np.matmul(ly, dx, out=vy)  # du_y/dx
                vx *= ux
                vy *= ux
                vy += work
                np.matmul(lx, dy, out=work)  # du_x/dy
                work *= uy
                vx += work
                vx *= -1.0
                vy *= -1.0
            else:
                vx.fill(0.0)
                vy.fill(0.0)
            if case.f is not None:
                fx, fy = case.f(x, y[rows], t)
                vx += space.quad_order(fx, rows)
                vy += space.quad_order(fy, rows)
            np.matmul(vx, space.load_phi, out=contrib[0, elements])
            np.matmul(vy, space.load_phi, out=contrib[1, elements])
            np.matmul(vx, space.load_dx, out=contrib[2, elements])
            contrib[2, elements] += np.matmul(vy, space.load_dy, out=lx)
        index = dofs.ravel()
        conv = [np.bincount(index, weights=c.ravel(), minlength=space.n_dofs) for c in contrib]
        stats = (float(np.sqrt(div_sq)), float(speed_sq), 0.5 * energy) if monitors else None
        return conv[:2], conv[2], stats

    def eval_Fphi(self, W: list, case: CaseDefinition, t: float) -> np.ndarray:
        """Potential load (w, grad eta_i) - (n.g, eta_i) over the boundary.

        W holds the components as arrays or as their ``XPass``.
        """
        Wx, Wy = (self.x_pass(w) for w in W)
        load = Wx.gradient_transpose(0) + Wy.gradient_transpose(1)
        tensorops.add_normal_load(self.space.axes, case.g, t, -1.0, load.reshape(self.grid))
        return load

    def eval_Fq(self, U: list[np.ndarray], case: CaseDefinition, t: float, monitors: bool):
        """Pressure load (f - u.grad u, grad eta_i) + nu * curl boundary term - g_t flux term.

        Returns (load, conv, stats): conv the loads (f - u . grad u, eta_i)
        per component from the same quadrature pass, and stats the pass's
        (div_l2, speed_sq, kinetic_energy) of u with ``monitors``, else None.
        """
        conv, load, stats = self._nonlinear_loads(U, case, t, monitors)
        ring = load.reshape(self.grid)
        if case.nu != 0.0:
            tensorops.add_curl_load(self.space.axes, U, case.nu, ring)
        if case.dg_dt is not None:
            tensorops.add_normal_load(self.space.axes, case.dg_dt, t, -1.0, ring)
        return load, conv, stats

    # ---- solves ----------------------------------------------------------------

    def solve_poisson(self, load: np.ndarray, counter: str) -> XPass:
        """Pure-Neumann Poisson solve A x = load with mass-weighted mean-zero output.

        ``counter`` names the solve class for the backward-error record.
        Returns the pass of x, whose ``stiffness`` A x the check took.
        """
        x, b = self.eig.solve_neumann(load, self.mass_weights)
        p = self.x_pass(x)
        self.record_solve(counter, b, p.stiffness, x, self.norm_A)
        return p

    def solve_mass(self, load: np.ndarray) -> XPass:
        """M x = load; M^{-1} = S S^T in the full eigenbasis.  Returns the pass of x."""
        x = self.eig.apply(load, 1.0)
        p = self.x_pass(x)
        self.record_solve("mass", load, p.mass, x, self.norm_M)
        return p

    def leray_project(self, W: list, case: CaseDefinition, t: float):
        """Discrete divergence-free projection: returns (U, Phi) as arrays.

        U_d solves M U_d = M W_d - G_d Phi, so U_d = W_d - Z_d with
        Z_d = M^{-1} G_d Phi, a 1D product on the axes (``XPass.l2_projection``).
        Each Z_d passes the mass solve's backward-error check against the
        load G_d Phi, from the pass of Phi that its Poisson check used.
        W holds the components as arrays or as their ``XPass``.
        """
        W = [self.x_pass(w) for w in W]
        Phi = self.solve_poisson(self.eval_Fphi(W, case, t), "poisson_phi")
        U = []
        for d in range(2):
            Z = Phi.l2_projection(d)
            self.record_solve("mass", Phi.gradient(d), self.x_pass(Z).mass, Z, self.norm_M)
            U.append(W[d].x - Z)
        return U, Phi.x

    def pressure(self, U: list[np.ndarray], case: CaseDefinition, t: float, monitors: bool):
        """The pressure Q at (U, t) and the explicit loads F_d = (f_d - u . grad u_d - dq/dx_d, eta_i).

        One quadrature pass (``eval_Fq``) yields the pressure load, the
        convection loads and the stats; G_d Q comes from the pass of Q that
        the Poisson solve's check took, which is dropped on return.  Returns
        (Q, [F_x, F_y], stats).
        """
        load, conv, stats = self.eval_Fq(U, case, t, monitors)
        Q = self.solve_poisson(load, "poisson_q")
        return Q.x, [conv[d] - Q.gradient(d) for d in range(2)], stats

    def state_at(self, t: float, U: list[np.ndarray], Phi: np.ndarray, case: CaseDefinition) -> GepupState:
        """The state of the projected velocity U (and its potential Phi) at t.

        W is U itself; Q, F and the monitors ``div_l2``, ``speed_sq`` and
        ``kinetic_energy`` come from one ``pressure`` call with monitors,
        whose quadrature pass samples u and its derivatives once for both.
        """
        Q, F, (div_l2, quad_speed_sq, energy) = self.pressure(U, case, t, True)
        speed_sq = max(float((U[0] ** 2 + U[1] ** 2).max()), quad_speed_sq)
        return GepupState(t, U, U, Phi, Q, F, div_l2, speed_sq, energy)

    def boundary_values(self, case: CaseDefinition, t: float) -> tuple[np.ndarray, np.ndarray]:
        """g at the boundary support points (per component), in ``boundary_dofs`` order, from one call."""
        ax, ay = self.space.axes
        rows, cols = np.divmod(self.space.boundary_dofs, ax.n)
        x, y = ax.nodes[cols], ay.nodes[rows]
        return tuple(np.broadcast_to(np.asarray(g, dtype=float), x.shape).copy() for g in case.g(x, y, t))

    def initial_state(self, case: CaseDefinition, t0: float) -> GepupState:
        """Interpolate the initial velocity on the nodes, project it, and prime the chain."""
        V = [self.space.node_order(v) for v in case.u0(*self.space.node_axes)]
        U, Phi = self.leray_project(V, case, t0)
        return self.state_at(t0, U, Phi, case)
