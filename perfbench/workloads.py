"""Benchmark workloads: seeded inputs, solver settings and output checks.

A workload fixes the physics, the discretisation and the number of steps.
The seed only picks an input inside a family whose behaviour is the same
for every member: a phase shift of the Taylor-Green vortex array, or a
Reynolds number in a narrow band around 1000 for the lid-driven cavity.
The program receives only the resulting ``CaseDefinition``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from gepup.cases import lid_cavity_case, taylor_green_case
from gepup.imex import StepperConfig
from gepup.operators import CaseDefinition

LID_SPEED = 1.0  # the lid case slides its top wall at unit speed
DOMAIN_AREA = 1.0  # every case lives on the unit square
LID_RE_BAND = (950.0, 1050.0)  # keeps the momentum solve on the Jacobi path
KE_GROWTH_TOL = 1e-12  # relative round-off allowance on energy decay


@dataclass(frozen=True)
class Workload:
    name: str
    case: str  # "taylor-green" or "lid-cavity"
    degree: int
    level: int
    t_end: float  # simulated time, from t0 = 0
    snapshots: bool = False  # VTK frame + indicator + marking every step
    # error ceilings at t_end (Taylor-Green only): 1.25x the largest value
    # over seeds 0-11 at the commit that defined the benchmark
    u_l2_ceiling: float | None = None
    q_l2_ceiling: float | None = None

    @property
    def h(self) -> float:
        return 1.0 / 2**self.level

    def stepper(self) -> StepperConfig:
        if self.case == "lid-cavity":
            # the cavity starts at rest, where courant_dt falls back to dt_max
            # for a whole rebuild interval; bound it by the lid's Courant step
            return StepperConfig(dt_max=0.8 * self.h / (self.degree * LID_SPEED))
        return StepperConfig()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tg-q3-l6",
            case="taylor-green",
            degree=3,
            level=6,
            t_end=0.0145,  # 4 steps, the last one clipped
            u_l2_ceiling=2.3e-9,
            q_l2_ceiling=1.45e-8,
        ),
        Workload(
            name="tg-q2-l4",
            case="taylor-green",
            degree=2,
            level=4,
            t_end=1.55,  # about 60 steps
            u_l2_ceiling=5.2e-5,
            q_l2_ceiling=7.5e-5,
        ),
        Workload(
            name="lid-q4-l5-vtk",
            case="lid-cavity",
            degree=4,
            level=5,
            t_end=3.5 * 0.8 / 2**5 / 4,  # 4 steps of the lid's Courant step, the last clipped
            snapshots=True,
        ),
    )
}


def _shift(fn, x0: float, y0: float):
    return lambda x, y, t: fn(x - x0, y - y0, t)


def make_case(workload: Workload, seed: int) -> tuple[CaseDefinition, dict]:
    """The seeded input and the parameters that produced it."""
    rng = np.random.default_rng(seed)
    if workload.case == "taylor-green":
        # a translated vortex array is still an exact Navier-Stokes solution,
        # and, being solenoidal, has zero net flux through the box walls
        x0, y0 = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        base = taylor_green_case(100.0)
        case = dataclasses.replace(
            base,
            g=_shift(base.g, x0, y0),
            dg_dt=_shift(base.dg_dt, x0, y0),
            u0=lambda x, y: base.u0(x - x0, y - y0),
            exact_u=_shift(base.exact_u, x0, y0),
            exact_p=_shift(base.exact_p, x0, y0),
            exact_u_grads=_shift(base.exact_u_grads, x0, y0),
            exact_p_grad=_shift(base.exact_p_grad, x0, y0),
        )
        return case, {"re": 100.0, "x0": x0, "y0": y0}
    re = float(rng.uniform(*LID_RE_BAND))
    return lid_cavity_case(re), {"re": re}


def check_output(workload: Workload, result) -> list[str]:
    """Reasons the simulation output is wrong; empty when it passes.

    ``result`` is a ``gepup.bench.SimulationResult``.  Every case needs a
    finite state.  Taylor-Green must not gain kinetic energy and must stay
    under the error ceilings.  The lid cavity must hold some energy after
    the first step, and never more than the lid itself could carry.
    """
    state = result.state
    fields = list(state.W) + list(state.U) + [state.Phi, state.Q]
    if not all(np.all(np.isfinite(f)) for f in fields):
        return ["non-finite state"]
    ke = [m["kinetic_energy"] for m in result.monitors]
    div = [m["div_l2"] for m in result.monitors]
    if not all(math.isfinite(v) for v in ke + div):
        return ["non-finite kinetic energy or divergence"]
    problems = []
    if workload.case == "taylor-green":
        for i in range(1, len(ke)):
            if ke[i] > ke[i - 1] * (1.0 + KE_GROWTH_TOL):
                problems.append(f"kinetic energy grew at step {i}: {ke[i - 1]:.6e} -> {ke[i]:.6e}")
                break
        for key, ceiling in (("u_L2", workload.u_l2_ceiling), ("q_L2", workload.q_l2_ceiling)):
            value = (result.errors or {}).get(key)
            if value is None or not value <= ceiling:
                problems.append(f"{key} error {value} above ceiling {ceiling:g}")
    else:
        ke_max = 0.5 * LID_SPEED**2 * DOMAIN_AREA
        bad = [i for i, e in enumerate(ke) if not (0.0 < e <= ke_max or (i == 0 and e == 0.0))]
        if bad:
            i = bad[0]
            problems.append(f"kinetic energy {ke[i]:.3e} at step {i} outside (0, {ke_max:g}]")
    return problems
