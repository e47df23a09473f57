"""Semi-discrete operator chain of the projection/pressure-Poisson scheme.

The evolved velocity w is not constrained to be solenoidal; the chain

    w  --(potential solve)-->  phi  --(1D mass solves)-->  u  --(pressure solve)-->  q

recovers the divergence-free velocity u = w - grad(phi) and extracts the
pressure q from u.  All right-hand sides are loads against the scalar test
basis; the two Poisson solves are pure-Neumann problems posed in the
mean-zero subspace.  The velocity needs no 2D solve: the mass matrix
cancels against the mass factor of the load of d(phi)/dx_d, leaving
u_d = w_d - (Mx^{-1} Cx or My^{-1} Cy products of phi).

In 2D the curl is the scalar du_y/dx - du_x/dy and the boundary term of the
pressure equation integrates curl(u) against the tangential derivative of
the test function, with the counterclockwise tangent (-n_y, n_x).  It and
the boundary fluxes (g . n, eta) are ``tensorops`` products on the space's
1D axes, on the boundary rows and columns; the nonlinear term reads the
space's physical element tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, tensorops
from .fem import UNIT_SQUARE, RectDomain
from .linsolve import FastDiagonalization, check_backward_error
from .tensorops import TensorGradient, TensorOperator, XPass

__all__ = ["CaseDefinition", "GepupState", "GepupOperators", "check_boundary_compatibility"]

SOLVE_CLASSES = ("momentum", "poisson_phi", "poisson_q", "mass")


@dataclass
class CaseDefinition:
    """A benchmark problem: viscosity, forcing, boundary data, initial data.

    ``f``, ``g``, ``dg_dt`` map vectorized (x, y, t) to component tuples;
    ``u0`` maps (x, y) to components.  ``f`` and ``dg_dt`` may be None when
    identically zero.  Exact solutions, when known, enable error reporting:
    ``exact_u(x, y, t) -> (ux, uy)``, ``exact_p(x, y, t) -> p``,
    ``exact_u_grads(x, y, t) -> ((uxx, uxy), (uyx, uyy))`` and
    ``exact_p_grad(x, y, t) -> (px, py)``.
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
        if self.nu < 0:
            raise ValueError(f"viscosity must be nonnegative, got {self.nu}")

    @property
    def has_exact_solution(self) -> bool:
        """Whether both ``exact_u`` and ``exact_p`` are known, as error norms need."""
        return self.exact_u is not None and self.exact_p is not None


FLUX_TOL = 1e-10  # largest net boundary flux of g that counts as compatible
FLUX_PANELS = 64  # Q4 cells per side of the flux quadrature


def check_boundary_compatibility(case: CaseDefinition, times=(0.0,)):
    """Verify the net boundary flux of g vanishes (solvability of the potential solve).

    Sums the boundary load of g on ``FLUX_PANELS`` Q4 cells per side, a
    composite 6-point Gauss rule independent of any mesh.  A NaN flux fails.
    """
    axes = [fem.Axis(FLUX_PANELS, length, 4, origin) for origin, length in zip(case.domain.origin, case.domain.extent)]
    for t in times:
        flux = float(tensorops.boundary_normal_load(axes, case.g, t).sum())
        if not abs(flux) <= FLUX_TOL:
            raise ValueError(
                f"case {case.name!r}: net boundary flux {flux:.3e} at t={t} violates the "
                f"compatibility condition (|flux| <= {FLUX_TOL:g})"
            )


@dataclass
class GepupState:
    """Discrete fields at one time: evolved velocity W, projected velocity U,
    projection potential Phi and pressure Q (both mass-mean-zero).

    ``conv`` holds the loads (f - u . grad u, eta_i) per component at (U, t),
    which the pressure load's quadrature pass also produces; the next time
    step reuses them for its first explicit stage.  None makes the step
    evaluate them again (set it to None after changing U by hand).
    """

    t: float
    W: list[np.ndarray]
    U: list[np.ndarray]
    Phi: np.ndarray
    Q: np.ndarray
    conv: list[np.ndarray] | None = None


class ConstrainedOperator:
    """Helmholtz-type operator mass + coeff*stiffness with eliminated Dirichlet rows.

    The Dirichlet rows are pinned to the boundary data and lifted to the
    right-hand side.  The interior block is again a Kronecker sum of the 1D
    factors, so it is solved directly in the interior eigenbasis; a new
    coeff only rescales the diagonal 1 + coeff * (lam_y + lam_x).
    The solution's ``XPass`` gives the backward-error check its K x_i: on
    the interior rows, K x_i is (M + coeff A) x less the lift.
    """

    def __init__(self, ops: "GepupOperators", coeff: float, rel_tol: float):
        self.ops = ops
        self.coeff = coeff
        self.rel_tol = rel_tol
        self.full_op = ops.fast_M.with_coefficients(1.0, coeff)
        self.K = ops.interior_M.with_coefficients(1.0, coeff)
        self.scale = 1.0 / (1.0 + coeff * ops.interior_eig.lam)

    def solve(self, rhs: np.ndarray, boundary_values: np.ndarray) -> XPass:
        """Solve with x = boundary_values on the Dirichlet rows (strong elimination).

        Returns the pass of x, with ``mass`` M x and ``stiffness`` A x taken.
        """
        ops = self.ops
        grid = self.full_op.grid
        x = np.zeros_like(rhs)
        x[ops.space.boundary_dofs] = boundary_values
        lift = (self.full_op @ x).reshape(grid)[1:-1, 1:-1]
        b = (rhs.reshape(grid)[1:-1, 1:-1] - lift).ravel()
        xi = ops.interior_eig.apply(b, self.scale)
        x.reshape(grid)[1:-1, 1:-1] = xi.reshape(self.K.grid)
        p = ops.x_pass(x)
        Kxi = (p.mass + self.coeff * p.stiffness).reshape(grid)[1:-1, 1:-1] - lift
        ops.record_solve("momentum", b, Kxi.ravel(), xi, self.K.norm_bound, self.rel_tol)
        return p


class GepupOperators:
    """Tensor-product operators, direct solvers and the w -> u -> q solve chain.

    The space is ``fem.build_space(domain, cells, degree)``: degree k on
    ``domain`` cut into ``cells`` = (nx, ny) equal cells, and the one owner
    of the degree and the grid.  Every product goes through its two 1D axes
    (``space.axes``): mass and stiffness matvecs (``fast_M``, ``fast_A``),
    the linear loads, which are 1D-factor products with the derivative
    factors (``grad``), and the boundary loads on the boundary rows and
    columns.  Only the nonlinear load f - u . grad u is integrated by
    element quadrature, once per velocity field, with the space's physical
    element tables.  Every 2D solve goes through the generalized
    eigenpairs of the same factors, which each axis computes once and keeps
    (``fem.Axis``); only their 2D spectra and scales are built here: the
    full (Neumann) pairs for the Poisson solves and the end-of-step mass
    solve, the interior pairs for the Dirichlet-eliminated momentum solve.
    The projection's mass solves are 1D, the axes' dense factors M^{-1} C
    (``grad``).
    Each solve returns the ``XPass`` of its solution (``x_pass``), whose
    products serve both its backward-error check and what the scheme next
    does with the field: M W and A W of a momentum solve, the potential
    load of W, the gradient loads of Phi and Q.
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
        rel_tol: float = 1e-12,
        convection: bool = True,
    ):
        self.space = fem.build_space(domain, cells, degree)
        self.rel_tol = rel_tol
        self.convection = convection

        ax, ay = self.space.axes
        self.fast_M = TensorOperator((ax.M, ax.K, ay.M, ay.K), 1.0, 0.0)
        self.fast_A = self.fast_M.with_coefficients(0.0, 1.0)
        self.interior_M = TensorOperator((*ax.interior, *ay.interior), 1.0, 0.0)
        self.grad = TensorGradient(self.space.axes)
        self.mass_weights = self.fast_M @ np.ones(self.space.n_dofs)
        self.eig = FastDiagonalization(ax.eig, ay.eig)
        self.interior_eig = FastDiagonalization(ax.interior_eig, ay.interior_eig)
        self.residuals = dict.fromkeys(SOLVE_CLASSES, 0.0)

    def reset_residuals(self):
        for key in self.residuals:
            self.residuals[key] = 0.0

    def record_solve(self, name: str, b, Kx, x, norm_K: float, rel_tol: float):
        """Check a solve's backward error (raises SolverError) and keep the largest per class."""
        eta = check_backward_error(name, b, Kx, x, norm_K, rel_tol)
        self.residuals[name] = max(self.residuals[name], eta)

    def x_pass(self, x) -> XPass:
        """The ``XPass`` of a field on the space's axes; x itself when it is one."""
        return x if isinstance(x, XPass) else XPass(self.space.axes, x)

    def momentum_operator(self, coeff: float) -> ConstrainedOperator:
        """Constrained mass + coeff*stiffness solver (coeff = nu*dt*gamma)."""
        return ConstrainedOperator(self, coeff, self.rel_tol)

    # ---- pointwise field samples --------------------------------------------

    def _quad_xy(self):
        qc = self.space.quad_coords
        return qc[:, :, 0], qc[:, :, 1]

    def _forcing(self, case: CaseDefinition, t: float):
        if case.f is None:
            return None
        x, y = self._quad_xy()
        fx, fy = case.f(x, y, t)
        return np.broadcast_to(np.asarray(fx, dtype=float), x.shape), np.broadcast_to(
            np.asarray(fy, dtype=float), x.shape
        )

    # ---- load evaluators -----------------------------------------------------

    def _nonlinear_loads(self, U: list[np.ndarray], case: CaseDefinition, t: float):
        """(f - u . grad u, eta_i) per component and (f - u . grad u, grad eta_i), from one quadrature pass."""
        space = self.space
        if self.convection:
            phi, dx, dy = space.quad_phi, space.quad_dx, space.quad_dy
            lx, ly = U[0][space.element_dofs], U[1][space.element_dofs]
            ux, uy = lx @ phi, ly @ phi
            vx, vy = lx @ dx, ly @ dx
            vx *= ux
            vy *= ux
            vx += np.multiply(uy, lx @ dy, out=ux)  # ux is no longer needed: reuse it
            vy += np.multiply(uy, ly @ dy, out=ux)
            vx *= -1.0
            vy *= -1.0
        else:
            vx, vy = np.zeros(space.quad_coords.shape[:2]), np.zeros(space.quad_coords.shape[:2])
        forcing = self._forcing(case, t)
        if forcing is not None:
            vx += forcing[0]
            vy += forcing[1]
        return [space.assemble_load(vx), space.assemble_load(vy)], space.assemble_gradtest_load(vx, vy)

    def eval_Fw_both(
        self, U: list[np.ndarray], Q, case: CaseDefinition, t: float, conv: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Momentum loads (f_d - u . grad u_d - dq/dx_d, eta_i) for d = x, y.

        ``conv`` are the loads (f - u . grad u, eta_i) at (U, t) from
        ``eval_Fq``; without them the quadrature pass runs here.  The
        pressure gradient comes from the pass of Q (an array or its
        ``XPass``).
        """
        if conv is None:
            conv, _ = self._nonlinear_loads(U, case, t)
        Q = self.x_pass(Q)
        return [conv[d] - Q.gradient(d) for d in range(2)]

    def eval_Fphi(self, W: list, case: CaseDefinition, t: float) -> np.ndarray:
        """Potential load (w, grad eta_i) - (n.g, eta_i) over the boundary.

        W holds the components as arrays or as their ``XPass``.
        """
        Wx, Wy = (self.x_pass(w) for w in W)
        load = Wx.gradient_transpose(0) + Wy.gradient_transpose(1)
        return load - tensorops.boundary_normal_load(self.space.axes, case.g, t).ravel()

    def eval_Fq(self, U: list[np.ndarray], case: CaseDefinition, t: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """Pressure load (f - u.grad u, grad eta_i) + nu * curl boundary term - g_t flux term.

        Also returns the loads (f - u . grad u, eta_i) per component that the
        same quadrature pass yields, for ``eval_Fw_both`` at the same (U, t).
        """
        conv, load = self._nonlinear_loads(U, case, t)
        if case.nu != 0.0:
            load += case.nu * tensorops.curl_boundary_load(self.space.axes, U).ravel()
        if case.dg_dt is not None:
            load -= tensorops.boundary_normal_load(self.space.axes, case.dg_dt, t).ravel()
        return load, conv

    # ---- solves ----------------------------------------------------------------

    def solve_poisson(self, load: np.ndarray, counter: str) -> XPass:
        """Pure-Neumann Poisson solve A x = load with mass-weighted mean-zero output.

        ``counter`` names the solve class for the backward-error record.
        Returns the pass of x, whose ``stiffness`` A x the check took.
        """
        x, b = self.eig.solve_neumann(load, self.mass_weights)
        p = self.x_pass(x)
        self.record_solve(counter, b, p.stiffness, x, self.fast_A.norm_bound, self.rel_tol)
        return p

    def solve_mass(self, load: np.ndarray) -> XPass:
        """M x = load; M^{-1} = S S^T in the full eigenbasis.  Returns the pass of x."""
        x = self.eig.apply(load, 1.0)
        p = self.x_pass(x)
        self.record_solve("mass", load, p.mass, x, self.fast_M.norm_bound, self.rel_tol)
        return p

    def leray_project(self, W: list, case: CaseDefinition, t: float):
        """Discrete divergence-free projection: returns (U, Phi) as arrays.

        U_d solves M U_d = M W_d - G_d Phi, so U_d = W_d - Z_d with
        Z_d = M^{-1} G_d Phi, a 1D product on the axes (``grad.l2_projection``).
        Each Z_d passes the mass solve's backward-error check against the
        load G_d Phi, from the pass of Phi that its Poisson check used.
        W holds the components as arrays or as their ``XPass``.
        """
        W = [self.x_pass(w) for w in W]
        Phi = self.solve_poisson(self.eval_Fphi(W, case, t), "poisson_phi")
        U = []
        for d in range(2):
            Z = self.grad.l2_projection(Phi.x, d)
            self.record_solve("mass", Phi.gradient(d), self.fast_M @ Z, Z, self.fast_M.norm_bound, self.rel_tol)
            U.append(W[d].x - Z)
        return U, Phi.x

    def compute_pressure(self, U: list[np.ndarray], case: CaseDefinition, t: float):
        """The pass of the pressure Q at (U, t), and the convection loads of
        ``eval_Fq``: both for ``eval_Fw_both``."""
        load, conv = self.eval_Fq(U, case, t)
        return self.solve_poisson(load, "poisson_q"), conv

    # ---- diagnostics -------------------------------------------------------------

    def divergence_l2(self, W: list[np.ndarray]) -> float:
        space = self.space
        div = W[0][space.element_dofs] @ space.quad_dx + W[1][space.element_dofs] @ space.quad_dy
        return float(np.sqrt(np.sum(div * div @ space.wdet)))

    def kinetic_energy(self, W: list[np.ndarray]) -> float:
        return 0.5 * sum(float(w @ (self.fast_M @ w)) for w in W)

    def boundary_values(self, case: CaseDefinition, t: float) -> tuple[np.ndarray, np.ndarray]:
        """g evaluated at the boundary support points (per component)."""
        pts = self.space.support_points[self.space.boundary_dofs]
        gx, gy = case.g(pts[:, 0], pts[:, 1], t)
        shape = pts[:, 0].shape
        return (
            np.broadcast_to(np.asarray(gx, dtype=float), shape).copy(),
            np.broadcast_to(np.asarray(gy, dtype=float), shape).copy(),
        )

    def initial_state(self, case: CaseDefinition, t0: float) -> GepupState:
        """Interpolate the initial velocity, project it, and prime the chain."""
        pts = self.space.support_points
        V = [np.broadcast_to(np.asarray(v, dtype=float), pts[:, 0].shape) for v in case.u0(pts[:, 0], pts[:, 1])]
        U, Phi = self.leray_project(V, case, t0)
        W = [u.copy() for u in U]
        Q, conv = self.compute_pressure(U, case, t0)
        return GepupState(t0, W, U, Phi, Q.x, conv)
