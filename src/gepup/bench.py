"""Run orchestration, convergence studies, refinement indicator and marking."""

from __future__ import annotations

from dataclasses import dataclass

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
    "is_level_sequence",
    "solution_errors",
    "vorticity_indicator",
    "dorfler_mark",
]

MAX_STEPS_LEFT = 1e8  # a Courant step that needs more steps than this to reach t_end has collapsed


class ConvergenceTable:
    """Rows keyed by decreasing h (exact halving); rates are log2 error ratios."""

    def __init__(self):
        self.h: list[float] = []
        self.errors: list[dict] = []

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
    monitors: list[dict]
    steps: int
    errors: dict | None


def solution_errors(ops: GepupOperators, state: GepupState, case: CaseDefinition) -> dict:
    """Velocity and pressure error norms against the case's exact solution.

    The pressure gauge is aligned by shifting the exact pressure to zero
    mean over the domain before differencing (the computed pressure is
    mean-zero by construction).  H1 seminorms, ``fem.error_norms``' own
    sums, accompany the full norms.  The exact pressure is sampled once per
    band (``FeSpace.element_bands``) on the ``quad_axes`` for the mean, over
    the element count times one element's weights, and then, shifted, by
    ``fem.error_norms`` like every other exact field: once more per band
    and once at the nodes.
    """
    if not case.has_exact_solution:
        raise ValueError(f"case {case.name!r} has no exact solution")
    space = ops.space
    t = state.t
    x, y = space.quad_axes
    p_sum = 0.0
    for _, rows in space.element_bands():
        p = space.quad_order(case.exact_p(x, y[rows], t), rows)
        p_sum += float(np.sum(p @ space.wdet))
    del p  # the last band's samples, before the norms sample again
    pmean = p_sum / (len(space.element_dofs) * float(space.wdet.sum()))

    errs = {}
    for name, norms in (
        ("u", fem.error_norms(space, state.U, case.exact_u, t, case.exact_u_grads)),
        ("q", fem.error_norms(space, state.Q, lambda x, y, t: case.exact_p(x, y, t) - pmean, t, case.exact_p_grad)),
    ):
        errs.update({f"{name}_{key}": norms[key] for key in ("L2", "H1", "Linf", "H1semi")})
    return errs


def _monitor_entry(step: int, state: GepupState, dt: float, courant: float, ops: GepupOperators) -> dict:
    return {
        "step": step,
        "t": state.t,
        "dt": dt,
        "courant": courant,
        "div_l2": state.div_l2,
        "kinetic_energy": state.kinetic_energy,
        **{f"res_{c}": ops.residuals[c] for c in SOLVE_CLASSES},
    }


def run_simulation(
    case: CaseDefinition,
    degree: int,
    level: int,
    config: StepperConfig,
    *,
    t0: float = 0.0,
    t_end: float,
    base_cells: tuple[int, int] = (1, 1),
    on_step=None,
) -> SimulationResult:
    """Advance a case from t0 to t_end with Courant-controlled steps.

    The grid cuts ``case.domain`` into base_cells * 2**level equal cells per
    axis.  The step size is recomputed before every step from the current
    velocity and the wall data (``courant_dt`` of the larger of the state's
    ``speed_sq`` and the largest |g|^2 on the boundary ring at the step's
    start, so that a flow started from rest by moving walls steps at the
    walls' speed; a new dt only rescales the diagonal of the momentum
    solve), and the final step is shortened to
    land exactly on t_end.  Each monitor row holds the step's Courant number
    dt k |u|max / h_max (``courant``, from the same speed; 0 at step 0 and
    the configured one unless ``dt_max`` or the shortened last step binds)
    and the largest backward
    error of every solve class in that step (``res_<class>``).  A SolverError names the
    step (0 for the initial state), phase and time; it is also raised when
    the Courant step has collapsed so far that more than ``MAX_STEPS_LEFT``
    further steps would be needed to reach t_end.
    """
    if not (np.isfinite(t0) and np.isfinite(t_end)):
        raise ValueError(f"t0 and t_end must be finite, got t0 = {t0}, t_end = {t_end}")
    if t_end < t0:
        raise ValueError(f"t_end {t_end} precedes t0 {t0}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    tableau = load_tableau(config.tableau)
    check_boundary_compatibility(case, times=(t0, 0.5 * (t0 + t_end), t_end))
    cells = (base_cells[0] * 2**level, base_cells[1] * 2**level)
    ops = GepupOperators(case.domain, cells, degree)

    ops.reset_residuals()
    try:
        state = ops.initial_state(case, t0)
    except SolverError as exc:
        exc.step, exc.phase, exc.t = 0, "initial state", t0
        raise
    monitors = [_monitor_entry(0, state, 0.0, 0.0, ops)]
    if on_step is not None:
        on_step(0, state, ops)

    steps = 0
    while t_end - state.t > 1e-13 * max(1.0, abs(t_end)):
        gx, gy = ops.boundary_values(case, state.t)
        speed_sq = max(state.speed_sq, float(np.max(gx * gx + gy * gy)))
        dt = courant_dt(ops.space, speed_sq, config.courant, dt_max=config.dt_max)
        if not t_end - state.t <= MAX_STEPS_LEFT * dt:
            exc = SolverError(
                f"Courant step dt = {dt:.3e} would need more than {MAX_STEPS_LEFT:.0e} steps "
                f"to reach t_end = {t_end:g}"
            )
            exc.step, exc.phase, exc.t = steps + 1, "step size", state.t
            raise exc
        if state.t + dt > t_end:
            dt = t_end - state.t
        ops.reset_residuals()
        try:
            state = advance_step(state, dt, tableau, case, ops)
        except SolverError as exc:
            exc.step = steps + 1
            raise
        steps += 1
        courant = dt * ops.space.degree * np.sqrt(speed_sq) / ops.space.h_max
        monitors.append(_monitor_entry(steps, state, dt, courant, ops))
        if on_step is not None:
            on_step(steps, state, ops)
    state.t = t_end

    errors = None
    if case.has_exact_solution:
        errors = solution_errors(ops, state, case)
    return SimulationResult(state=state, ops=ops, monitors=monitors, steps=steps, errors=errors)


def is_level_sequence(levels) -> bool:
    """Whether ``levels`` are two or more consecutive ascending nonnegative levels, so each row halves h."""
    return len(levels) >= 2 and levels[0] >= 0 and list(levels) == list(range(levels[0], levels[0] + len(levels)))


def run_convergence(
    case: CaseDefinition,
    degree: int,
    config: StepperConfig,
    levels: list[int],
    t0: float,
    t_end: float,
    base_cells: tuple[int, int],
) -> ConvergenceTable:
    """Errors and rates across uniformly refined meshes, each run with ``config``;
    prints one line per level as it finishes."""
    if not is_level_sequence(levels):
        raise ValueError(f"a convergence study needs two or more consecutive ascending levels, got {levels}")
    if not case.has_exact_solution:
        raise ValueError(f"case {case.name!r} has no exact solution for a convergence study")
    table = ConvergenceTable()
    for level in levels:
        res = run_simulation(case, degree, level, config, t0=t0, t_end=t_end, base_cells=base_cells)
        h = res.ops.space.h_max
        table.add_row(h, res.errors)
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
