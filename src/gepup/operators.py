"""Semi-discrete operator chain of the projection/pressure-Poisson scheme.

The evolved velocity w is not constrained to be solenoidal; the chain

    w  --(potential solve)-->  phi  --(mass solves)-->  u  --(pressure solve)-->  q

recovers the divergence-free velocity u = w - grad(phi) and extracts the
pressure q from u.  All right-hand sides are plain quadrature loads against
the scalar test basis; the two Poisson solves are pure-Neumann problems
posed in the mean-zero subspace.

In 2D the curl is the scalar du_y/dx - du_x/dy and the boundary term of the
pressure equation integrates curl(u) against the tangential derivative of
the test function, with the counterclockwise tangent (-n_y, n_x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, tensorops
from .linsolve import FastDiagonalization, check_backward_error
from .mesh import RectDomain, StructuredQuadMesh, UNIT_SQUARE
from .tensorops import TensorOperator

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


def check_boundary_compatibility(case: CaseDefinition, times=(0.0,), tol: float = 1e-10, panels: int = 64):
    """Verify the net boundary flux of g vanishes (solvability of the potential solve).

    Uses a composite 6-point Gauss rule with ``panels`` panels per side,
    independent of any mesh.
    """
    q, w = fem.gauss_legendre_01(6)
    ox, oy = case.domain.origin
    ex, ey = case.domain.extent
    s = (np.arange(panels)[:, None] + q[None, :]).ravel() / panels
    ws = np.tile(w, panels) / panels
    sides = [
        (ox + s * ex, np.full_like(s, oy), (0.0, -1.0), ex),
        (np.full_like(s, ox + ex), oy + s * ey, (1.0, 0.0), ey),
        (ox + s * ex, np.full_like(s, oy + ey), (0.0, 1.0), ex),
        (np.full_like(s, ox), oy + s * ey, (-1.0, 0.0), ey),
    ]
    for t in times:
        flux = 0.0
        for x, y, n, length in sides:
            gx, gy = case.g(x, y, t)
            gn = np.broadcast_to(np.asarray(gx, dtype=float), x.shape) * n[0]
            gn = gn + np.broadcast_to(np.asarray(gy, dtype=float), x.shape) * n[1]
            flux += float(gn @ ws) * length
        if abs(flux) > tol:
            raise ValueError(
                f"case {case.name!r}: net boundary flux {flux:.3e} at t={t} violates the "
                f"compatibility condition (|flux| <= {tol:g})"
            )


@dataclass
class GepupState:
    """Discrete fields at one time: evolved velocity W, projected velocity U,
    projection potential Phi and pressure Q (both mass-mean-zero)."""

    t: float
    W: list[np.ndarray]
    U: list[np.ndarray]
    Phi: np.ndarray
    Q: np.ndarray

    def copy(self) -> "GepupState":
        return GepupState(
            self.t,
            [w.copy() for w in self.W],
            [u.copy() for u in self.U],
            self.Phi.copy(),
            self.Q.copy(),
        )


class ConstrainedOperator:
    """Helmholtz-type operator mass + coeff*stiffness with eliminated Dirichlet rows.

    The Dirichlet rows are pinned to the boundary data and lifted to the
    right-hand side.  The interior block is again a Kronecker sum of the 1D
    factors, so it is solved directly in the interior eigenbasis; a new
    coeff only rescales the diagonal 1 + coeff * (lam_y + lam_x).
    """

    def __init__(self, ops: "GepupOperators", coeff: float, rel_tol: float):
        self.ops = ops
        self.coeff = coeff
        self.rel_tol = rel_tol
        self.full_op = TensorOperator(ops.factors, 1.0, coeff)
        self.K = TensorOperator(ops.interior_factors, 1.0, coeff)
        self.scale = 1.0 / (1.0 + coeff * ops.interior_eig.lam)

    def apply_full(self, x: np.ndarray) -> np.ndarray:
        return self.full_op @ x

    def solve(self, rhs: np.ndarray, boundary_values: np.ndarray) -> np.ndarray:
        """Solve with x = boundary_values on the Dirichlet rows (strong elimination)."""
        ops = self.ops
        x = np.zeros_like(rhs)
        x[ops.space.boundary_dofs] = boundary_values
        b = (rhs - self.apply_full(x)).reshape(self.full_op.grid)[1:-1, 1:-1].ravel()
        xi = ops.interior_eig.apply(b, self.scale)
        ops.record_solve("momentum", b, self.K @ xi, xi, self.K.norm_bound, self.rel_tol)
        x.reshape(self.full_op.grid)[1:-1, 1:-1] = xi.reshape(self.K.grid)
        return x


class GepupOperators:
    """Assembled matrices, direct solvers and the w -> u -> q solve chain.

    Every solve goes through the generalized eigenpairs of the finest
    space's 1D factors, built once here: the full (Neumann) pairs for the
    Poisson and mass solves, the interior pairs for the Dirichlet-eliminated
    momentum solve.  ``residuals`` holds the largest backward error of each
    solve class since the last ``reset_residuals``.  ``convection`` can be
    switched off to reduce the momentum right-hand side to pure forcing and
    pressure (used by linear-regime diagnostics).
    """

    def __init__(
        self,
        mesh: StructuredQuadMesh,
        degree: int,
        rel_tol: float = 1e-12,
        mass_rel_tol: float | None = None,
        convection: bool = True,
    ):
        self.space = fem.build_space(mesh, degree)
        self.degree = degree
        self.rel_tol = rel_tol
        self.mass_rel_tol = rel_tol if mass_rel_tol is None else mass_rel_tol
        self.convection = convection

        self.M = fem.assemble_mass(self.space)
        self.A = fem.assemble_stiffness(self.space)
        self.mass_weights = self.M @ np.ones(self.space.n_dofs)

        self.factors = tensorops.one_dimensional_factors(self.space)
        self.interior_factors = tuple(F[1:-1, 1:-1] for F in self.factors)
        self.fast_M = TensorOperator(self.factors, 1.0, 0.0)
        self.fast_A = TensorOperator(self.factors, 0.0, 1.0)
        self.eig = FastDiagonalization(self.factors)
        self.interior_eig = FastDiagonalization(self.interior_factors)
        self.residuals = dict.fromkeys(SOLVE_CLASSES, 0.0)

    def reset_residuals(self):
        for key in self.residuals:
            self.residuals[key] = 0.0

    def record_solve(self, name: str, b, Kx, x, norm_K: float, rel_tol: float):
        """Check a solve's backward error (raises SolverError) and keep the largest per class."""
        eta = check_backward_error(name, b, Kx, x, norm_K, rel_tol)
        self.residuals[name] = max(self.residuals[name], eta)

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

    def eval_Fw_both(self, U: list[np.ndarray], Q: np.ndarray, case: CaseDefinition, t: float) -> list[np.ndarray]:
        """Momentum loads (f_d - u . grad u_d - dq/dx_d, eta_i) for d = x, y in one sweep."""
        space = self.space
        ref = space.ref
        ed = space.element_dofs
        q_loc = Q[ed]
        dqx = (q_loc @ ref.dphi[:, :, 0].T) * space.inv_h[0]
        dqy = (q_loc @ ref.dphi[:, :, 1].T) * space.inv_h[1]
        vals = [-dqx, -dqy]
        forcing = self._forcing(case, t)
        if forcing is not None:
            vals[0] = vals[0] + forcing[0]
            vals[1] = vals[1] + forcing[1]
        if self.convection:
            ux_loc = U[0][ed]
            uy_loc = U[1][ed]
            ux = ux_loc @ ref.phi.T
            uy = uy_loc @ ref.phi.T
            dphix = ref.dphi[:, :, 0].T * space.inv_h[0]
            dphiy = ref.dphi[:, :, 1].T * space.inv_h[1]
            vals[0] -= ux * (ux_loc @ dphix) + uy * (ux_loc @ dphiy)
            vals[1] -= ux * (uy_loc @ dphix) + uy * (uy_loc @ dphiy)
        return [space.assemble_load(v) for v in vals]

    def eval_Fphi(self, W: list[np.ndarray], case: CaseDefinition, t: float) -> np.ndarray:
        """Potential load (w, grad eta_i) - (n.g, eta_i) over the boundary."""
        space = self.space
        wx = space.values_at_quad(W[0])
        wy = space.values_at_quad(W[1])
        load = space.assemble_gradtest_load(wx, wy)
        for face in space.faces:
            x = face.points[:, :, 0]
            y = face.points[:, :, 1]
            gx, gy = case.g(x, y, t)
            gn = np.broadcast_to(np.asarray(gx, dtype=float), x.shape) * face.normal[0]
            gn = gn + np.broadcast_to(np.asarray(gy, dtype=float), x.shape) * face.normal[1]
            space.add_face_load(load, face, gn, scale=-1.0)
        return load

    def eval_Fu(self, W_d: np.ndarray, Phi: np.ndarray, d: int) -> np.ndarray:
        """Projection load (w_d - dphi/dx_d, eta_i)."""
        space = self.space
        vals = space.values_at_quad(W_d) - space.grads_at_quad(Phi)[d]
        return space.assemble_load(vals)

    def eval_Fq(self, U: list[np.ndarray], case: CaseDefinition, t: float) -> np.ndarray:
        """Pressure load (f - u.grad u, grad eta_i) + nu * curl boundary term - g_t flux term."""
        space = self.space
        ux_loc = U[0][space.element_dofs]
        uy_loc = U[1][space.element_dofs]
        ref = space.ref
        ux = ux_loc @ ref.phi.T
        uy = uy_loc @ ref.phi.T
        uxx = (ux_loc @ ref.dphi[:, :, 0].T) * space.inv_h[0]
        uxy = (ux_loc @ ref.dphi[:, :, 1].T) * space.inv_h[1]
        uyx = (uy_loc @ ref.dphi[:, :, 0].T) * space.inv_h[0]
        uyy = (uy_loc @ ref.dphi[:, :, 1].T) * space.inv_h[1]
        if self.convection:
            vx = -(ux * uxx + uy * uxy)
            vy = -(ux * uyx + uy * uyy)
        else:
            vx = np.zeros_like(ux)
            vy = np.zeros_like(uy)
        forcing = self._forcing(case, t)
        if forcing is not None:
            vx += forcing[0]
            vy += forcing[1]
        load = space.assemble_gradtest_load(vx, vy)

        if case.nu != 0.0:
            for face in space.faces:
                gx_x, gx_y = space.grads_on_face(face, U[0])
                gy_x, _ = space.grads_on_face(face, U[1])
                curl = gy_x - gx_y
                space.add_face_tangent_grad_load(load, face, curl, scale=case.nu)

        if case.dg_dt is not None:
            for face in space.faces:
                x = face.points[:, :, 0]
                y = face.points[:, :, 1]
                gtx, gty = case.dg_dt(x, y, t)
                gn = np.broadcast_to(np.asarray(gtx, dtype=float), x.shape) * face.normal[0]
                gn = gn + np.broadcast_to(np.asarray(gty, dtype=float), x.shape) * face.normal[1]
                space.add_face_load(load, face, gn, scale=-1.0)
        return load

    # ---- solves ----------------------------------------------------------------

    def solve_poisson(self, load: np.ndarray, counter: str) -> np.ndarray:
        """Pure-Neumann Poisson solve A x = load with mass-weighted mean-zero output.

        ``counter`` names the solve class for the backward-error record.
        """
        x, b = self.eig.solve_neumann(load, self.mass_weights)
        self.record_solve(counter, b, self.fast_A @ x, x, self.fast_A.norm_bound, self.rel_tol)
        return x

    def solve_mass(self, load: np.ndarray) -> np.ndarray:
        """M x = load; M^{-1} = S S^T in the full eigenbasis."""
        x = self.eig.apply(load, 1.0)
        self.record_solve("mass", load, self.fast_M @ x, x, self.fast_M.norm_bound, self.mass_rel_tol)
        return x

    def leray_project(self, W: list[np.ndarray], case: CaseDefinition, t: float):
        """Discrete divergence-free projection: returns (U, Phi)."""
        Phi = self.solve_poisson(self.eval_Fphi(W, case, t), "poisson_phi")
        U = [self.solve_mass(self.eval_Fu(W[d], Phi, d)) for d in range(2)]
        return U, Phi

    def compute_pressure(self, U: list[np.ndarray], case: CaseDefinition, t: float) -> np.ndarray:
        return self.solve_poisson(self.eval_Fq(U, case, t), "poisson_q")

    # ---- diagnostics -------------------------------------------------------------

    def divergence_l2(self, W: list[np.ndarray]) -> float:
        space = self.space
        dx, _ = space.grads_at_quad(W[0])
        _, dy = space.grads_at_quad(W[1])
        div = dx + dy
        return float(np.sqrt(np.sum(div * div @ space.wdet)))

    def kinetic_energy(self, W: list[np.ndarray]) -> float:
        return 0.5 * sum(float(w @ (self.M @ w)) for w in W)

    def boundary_values(self, case: CaseDefinition, t: float) -> tuple[np.ndarray, np.ndarray]:
        """g evaluated at the boundary support points (per component)."""
        pts = self.space.support_points[self.space.boundary_dofs]
        gx, gy = case.g(pts[:, 0], pts[:, 1], t)
        shape = pts[:, 0].shape
        return (
            np.broadcast_to(np.asarray(gx, dtype=float), shape).copy(),
            np.broadcast_to(np.asarray(gy, dtype=float), shape).copy(),
        )

    def initial_state(self, case: CaseDefinition, t0: float, w_override=None) -> GepupState:
        """Interpolate the initial velocity, project it, and prime the chain.

        ``w_override`` (callable (x, y) -> (wx, wy)) replaces the initial
        field without projection, for experiments that start from a
        deliberately non-solenoidal state.
        """
        space = self.space
        if w_override is not None:
            W = [
                fem.interpolate(space, lambda x, y, t, d=d: np.broadcast_to(
                    np.asarray(w_override(x, y)[d], dtype=float), x.shape), t0)
                for d in range(2)
            ]
            U, Phi = self.leray_project(W, case, t0)
        else:
            V = [
                fem.interpolate(space, lambda x, y, t, d=d: np.broadcast_to(
                    np.asarray(case.u0(x, y)[d], dtype=float), x.shape), t0)
                for d in range(2)
            ]
            U, Phi = self.leray_project(V, case, t0)
            W = [u.copy() for u in U]
        Q = self.compute_pressure(U, case, t0)
        return GepupState(t0, W, U, Phi, Q)
