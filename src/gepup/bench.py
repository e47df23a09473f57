"""Run orchestration, convergence studies, refinement indicator and marking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import FeSpace
from .imex import StepperConfig, advance_step, courant_dt, load_tableau
from .mesh import build_mesh
from .operators import SOLVE_CLASSES, CaseDefinition, GepupOperators, GepupState, check_boundary_compatibility

__all__ = [
    "ConvergenceTable",
    "MarkingResult",
    "SimulationResult",
    "run_simulation",
    "run_convergence",
    "solution_errors",
    "vorticity_indicator",
    "dorfler_mark",
]

ERROR_KEYS = ("u_L2", "u_H1", "u_Linf", "q_L2", "q_H1", "q_Linf")


@dataclass
class ConvergenceTable:
    """Rows keyed by decreasing h (exact halving); rates are log2 error ratios."""

    h: list[float] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    def add_row(self, h: float, errs: dict):
        if self.h:
            ratio = self.h[-1] / h
            if abs(ratio - 2.0) > 1e-9:
                raise ValueError(f"rows must halve h exactly, got ratio {ratio}")
        self.h.append(h)
        self.errors.append(dict(errs))

    def rates(self, key: str) -> list[float]:
        """Rates between consecutive rows; entry i compares rows i and i+1."""
        vals = [row[key] for row in self.errors]
        out = []
        for a, b in zip(vals, vals[1:]):
            out.append(np.log2(a / b) if a > 0 and b > 0 else np.nan)
        return out

    def column(self, key: str) -> list[float]:
        return [row[key] for row in self.errors]

    def __len__(self):
        return len(self.h)


@dataclass
class SimulationResult:
    state: GepupState
    ops: GepupOperators
    case: CaseDefinition
    monitors: list[dict]
    steps: int
    errors: dict | None = None


def solution_errors(ops: GepupOperators, state: GepupState, case: CaseDefinition) -> dict:
    """Velocity and pressure error norms against the case's exact solution.

    The pressure gauge is aligned by shifting the exact pressure to zero
    mean over the domain before differencing (the computed pressure is
    mean-zero by construction).  H1 seminorms accompany the full norms.
    """
    if case.exact_u is None:
        raise ValueError(f"case {case.name!r} has no exact solution")
    space = ops.space
    t = state.t
    errs = {}
    errs["u_L2"] = fem.vector_error_norm(space, state.U, case.exact_u, t, "L2")
    errs["u_H1"] = fem.vector_error_norm(
        space, state.U, case.exact_u, t, "H1", exact_grads=case.exact_u_grads
    )
    errs["u_Linf"] = fem.vector_error_norm(space, state.U, case.exact_u, t, "Linf")
    errs["u_H1semi"] = float(np.sqrt(errs["u_H1"] ** 2 - errs["u_L2"] ** 2))

    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    area = float(np.sum(np.ones_like(x) @ space.wdet))
    pmean = float(np.sum(case.exact_p(x, y, t) @ space.wdet)) / area

    def exact_q(xx, yy, tt):
        return case.exact_p(xx, yy, tt) - pmean

    errs["q_L2"] = fem.error_norm(space, state.Q, exact_q, t, "L2")
    errs["q_H1"] = fem.error_norm(space, state.Q, exact_q, t, "H1", exact_grad=case.exact_p_grad)
    errs["q_Linf"] = fem.error_norm(space, state.Q, exact_q, t, "Linf")
    errs["q_H1semi"] = float(np.sqrt(errs["q_H1"] ** 2 - errs["q_L2"] ** 2))
    return errs


def _monitor_entry(step: int, state: GepupState, dt: float, ops: GepupOperators) -> dict:
    return {
        "step": step,
        "t": state.t,
        "dt": dt,
        "div_l2": ops.divergence_l2(state.W),
        "kinetic_energy": ops.kinetic_energy(state.W),
        **{f"res_{c}": ops.residuals[c] for c in SOLVE_CLASSES},
    }


def run_simulation(
    case: CaseDefinition,
    degree: int,
    level: int,
    config: StepperConfig,
    t0: float = 0.0,
    t_end: float = 1.0,
    base_cells: tuple[int, int] = (1, 1),
    w_override=None,
    on_step=None,
    ops: GepupOperators | None = None,
) -> SimulationResult:
    """Advance a case from t0 to t_end with Courant-controlled steps.

    The step size is recomputed from the current velocity every
    ``config.rebuild_interval`` steps (a new dt only rescales the diagonal
    of the momentum solve) and the final step is shortened to land exactly
    on t_end.  Each monitor row holds the largest backward error of every
    solve class in that step (``res_<class>``).  ``w_override(x, y) -> (wx, wy)``
    replaces the initial evolved velocity without projecting it.
    """
    if t_end < t0:
        raise ValueError(f"t_end {t_end} precedes t0 {t0}")
    check_boundary_compatibility(case, times=(t0, 0.5 * (t0 + t_end), t_end))
    if ops is None:
        mesh = build_mesh(case.domain, base_cells, level)
        ops = GepupOperators(mesh, degree, rel_tol=config.rel_tol, mass_rel_tol=config.mass_rel_tol)
    tableau = load_tableau(config.tableau)

    ops.reset_residuals()
    state = ops.initial_state(case, t0, w_override=w_override)
    monitors = [_monitor_entry(0, state, 0.0, ops)]
    if on_step is not None:
        on_step(0, state, ops)

    steps = 0
    if t_end > t0:
        dt = courant_dt(ops.space, state.U, config.courant, dt_max=config.dt_max)
        momentum = ops.momentum_operator(case.nu * dt * tableau.gamma)
        time_left = t_end - state.t
        while time_left > 1e-13 * max(1.0, abs(t_end)):
            if steps > 0 and steps % config.rebuild_interval == 0:
                dt_new = courant_dt(ops.space, state.U, config.courant, dt_max=config.dt_max)
                if dt_new != dt:
                    dt = dt_new
                    momentum = ops.momentum_operator(case.nu * dt * tableau.gamma)
            dt_step = dt
            mom_step = momentum
            if state.t + dt > t_end:
                dt_step = t_end - state.t
                mom_step = ops.momentum_operator(case.nu * dt_step * tableau.gamma)
            ops.reset_residuals()
            state = advance_step(state, dt_step, tableau, case, ops, momentum=mom_step)
            steps += 1
            monitors.append(_monitor_entry(steps, state, dt_step, ops))
            if on_step is not None:
                on_step(steps, state, ops)
            time_left = t_end - state.t
        state.t = t_end

    errors = None
    if case.exact_u is not None and case.exact_p is not None:
        errors = solution_errors(ops, state, case)
    return SimulationResult(state=state, ops=ops, case=case, monitors=monitors, steps=steps, errors=errors)


def run_convergence(
    case: CaseDefinition,
    degree: int,
    tableau: str,
    levels: list[int],
    courant: float = 0.8,
    t0: float = 0.0,
    t_end: float = 1.0,
    rel_tol: float = 1e-12,
    base_cells: tuple[int, int] = (1, 1),
    verbose: bool = False,
) -> ConvergenceTable:
    """Errors and rates across uniformly refined meshes."""
    if len(levels) < 2:
        raise ValueError("need at least two levels for a convergence study")
    table = ConvergenceTable()
    for level in levels:
        config = StepperConfig(tableau=tableau, courant=courant, rel_tol=rel_tol)
        res = run_simulation(case, degree, level, config, t0=t0, t_end=t_end, base_cells=base_cells)
        h = res.ops.space.mesh.h_max
        table.add_row(h, res.errors)
        if verbose:
            print(
                f"  level {level} (h = {h:g}): {res.steps} steps, "
                f"u_L2 = {res.errors['u_L2']:.3e}, q_L2 = {res.errors['q_L2']:.3e}"
            )
    return table


def vorticity_indicator(space: FeSpace, U: list[np.ndarray]) -> np.ndarray:
    """Per-element h_K * max |curl u| sampled at quadrature and node points."""
    ref = space.ref
    ux_loc = U[0][space.element_dofs]
    uy_loc = U[1][space.element_dofs]
    curl_q = (uy_loc @ ref.dphi[:, :, 0].T) * space.inv_h[0] - (
        ux_loc @ ref.dphi[:, :, 1].T
    ) * space.inv_h[1]
    curl_n = (uy_loc @ ref.dphi_nodes[:, :, 0].T) * space.inv_h[0] - (
        ux_loc @ ref.dphi_nodes[:, :, 1].T
    ) * space.inv_h[1]
    peak = np.maximum(np.abs(curl_q).max(axis=1), np.abs(curl_n).max(axis=1))
    return space.mesh.h_max * peak


@dataclass(frozen=True)
class MarkingResult:
    """Disjoint element sets selected for refinement and coarsening."""

    refine: np.ndarray
    coarsen: np.ndarray


def dorfler_mark(indicators: np.ndarray, theta_refine: float, theta_coarsen: float) -> MarkingResult:
    """Bulk-chasing marking.

    The refine set is the smallest descending-value prefix whose indicator
    sum reaches theta_refine * total; the coarsen set is the largest
    ascending-value prefix of the *remaining* elements whose sum stays
    within theta_coarsen * total (keeping the two sets disjoint).  Ties are
    broken by ascending element index, so the output is deterministic.
    """
    if not (0.0 < theta_refine < 1.0 and 0.0 < theta_coarsen < 1.0):
        raise ValueError("marking thresholds must lie in (0, 1)")
    eta = np.asarray(indicators, dtype=float)
    if np.any(eta < 0):
        raise ValueError("indicators must be nonnegative")
    n = len(eta)
    total = float(eta.sum())
    if total == 0.0:
        empty = np.array([], dtype=int)
        return MarkingResult(empty, empty)

    idx = np.arange(n)
    desc = np.lexsort((idx, -eta))
    csum = np.cumsum(eta[desc])
    m = int(np.searchsorted(csum, theta_refine * total, side="left")) + 1
    m = min(m, n)
    refine = np.sort(desc[:m])

    in_refine = np.zeros(n, dtype=bool)
    in_refine[refine] = True
    rest = idx[~in_refine]
    asc = rest[np.lexsort((rest, eta[rest]))]
    budget = theta_coarsen * total
    csum_c = np.cumsum(eta[asc])
    keep = int(np.searchsorted(csum_c, budget, side="right"))
    coarsen = np.sort(asc[:keep])
    return MarkingResult(refine, coarsen)
