"""Run orchestration, convergence studies, refinement indicator and marking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import FeSpace
from .imex import StepperConfig, advance_step, courant_dt, load_tableau
from .linsolve import SolverError
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

MAX_STEPS_LEFT = 1e8  # a Courant step that needs more steps than this to reach t_end has collapsed


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
    if not case.has_exact_solution:
        raise ValueError(f"case {case.name!r} has no exact solution")
    space = ops.space
    t = state.t
    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    area = float(np.sum(np.ones_like(x) @ space.wdet))
    pmean = float(np.sum(case.exact_p(x, y, t) @ space.wdet)) / area

    def exact_q(xx, yy, tt):
        return case.exact_p(xx, yy, tt) - pmean

    errs = {}
    for name, norms in (
        ("u", fem.error_norms(space, state.U, case.exact_u, t, case.exact_u_grads)),
        ("q", fem.error_norms(space, state.Q, exact_q, t, case.exact_p_grad)),
    ):
        errs.update({f"{name}_{key}": norms[key] for key in ("L2", "H1", "Linf")})
        errs[f"{name}_H1semi"] = float(np.sqrt(norms["H1"] ** 2 - norms["L2"] ** 2))
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
    on_step=None,
) -> SimulationResult:
    """Advance a case from t0 to t_end with Courant-controlled steps.

    The grid cuts ``case.domain`` into base_cells * 2**level equal cells per
    axis.  The step size is recomputed from the current velocity before every
    step (``courant_dt``; a new dt only rescales the diagonal of the
    momentum solve), and the final step is shortened to land exactly on
    t_end.  Each monitor row holds the largest backward error of every
    solve class in that step (``res_<class>``).  A SolverError names the
    step (0 for the initial state), phase and time; it is also raised when
    the Courant step has collapsed so far that more than ``MAX_STEPS_LEFT``
    further steps would be needed to reach t_end.
    """
    if t_end < t0:
        raise ValueError(f"t_end {t_end} precedes t0 {t0}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    check_boundary_compatibility(case, times=(t0, 0.5 * (t0 + t_end), t_end))
    cells = (base_cells[0] * 2**level, base_cells[1] * 2**level)
    ops = GepupOperators(case.domain, cells, degree, rel_tol=config.rel_tol)
    tableau = load_tableau(config.tableau)

    ops.reset_residuals()
    try:
        state = ops.initial_state(case, t0)
    except SolverError as exc:
        exc.step, exc.phase, exc.t = 0, "initial state", t0
        raise
    monitors = [_monitor_entry(0, state, 0.0, ops)]
    if on_step is not None:
        on_step(0, state, ops)

    steps = 0
    while t_end - state.t > 1e-13 * max(1.0, abs(t_end)):
        dt = courant_dt(ops.space, state.U, config.courant, dt_max=config.dt_max)
        if not t_end - state.t <= MAX_STEPS_LEFT * dt:
            raise SolverError(
                f"Courant step dt = {dt:.3e} would need more than {MAX_STEPS_LEFT:.0e} steps "
                f"to reach t_end = {t_end:g}",
                step=steps + 1,
                phase="step size",
                t=state.t,
            )
        if state.t + dt > t_end:
            dt = t_end - state.t
        ops.reset_residuals()
        try:
            state = advance_step(state, dt, tableau, case, ops)
        except SolverError as exc:
            exc.step = steps + 1
            raise
        steps += 1
        monitors.append(_monitor_entry(steps, state, dt, ops))
        if on_step is not None:
            on_step(steps, state, ops)
    state.t = t_end

    errors = None
    if case.exact_u is not None and case.exact_p is not None:
        errors = solution_errors(ops, state, case)
    return SimulationResult(state=state, ops=ops, case=case, monitors=monitors, steps=steps, errors=errors)


def run_convergence(
    case: CaseDefinition,
    degree: int,
    config: StepperConfig,
    levels: list[int],
    t0: float = 0.0,
    t_end: float = 1.0,
    base_cells: tuple[int, int] = (1, 1),
    verbose: bool = False,
) -> ConvergenceTable:
    """Errors and rates across uniformly refined meshes, each run with ``config``."""
    if len(levels) < 2:
        raise ValueError("need at least two levels for a convergence study")
    if not case.has_exact_solution:
        raise ValueError(f"case {case.name!r} has no exact solution for a convergence study")
    table = ConvergenceTable()
    for level in levels:
        res = run_simulation(case, degree, level, config, t0=t0, t_end=t_end, base_cells=base_cells)
        h = res.ops.space.h_max
        table.add_row(h, res.errors)
        if verbose:
            print(
                f"  level {level} (h = {h:g}): {res.steps} steps, "
                f"u_L2 = {res.errors['u_L2']:.3e}, q_L2 = {res.errors['q_L2']:.3e}"
            )
    return table


def vorticity_indicator(space: FeSpace, U: list[np.ndarray]) -> np.ndarray:
    """Per-element h_K * max |curl u| sampled at quadrature and node points."""
    ux_loc = U[0][space.element_dofs]
    uy_loc = U[1][space.element_dofs]
    curl_q = uy_loc @ space.quad_dx - ux_loc @ space.quad_dy
    curl_n = uy_loc @ space.node_dx - ux_loc @ space.node_dy
    peak = np.maximum(np.abs(curl_q).max(axis=1), np.abs(curl_n).max(axis=1))
    return space.h_max * peak


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
