"""The benchmark's calls into the package, run on two tiny workloads.

``perfbench/run.py`` drives the solver through ``run_simulation(t_end=,
on_step=)``, writes VTK frames with ``write_vtk(velocity=, pressure=)``
after ``vorticity_indicator`` and ``dorfler_mark``, and its output check
reads the state's ``W``, ``U``, ``Phi`` and ``Q``.  Running its own
``simulate`` here makes a change that breaks any of those calls fail the
test suite rather than the benchmark.  Its Taylor-Green inputs are
translated copies of the package's initial velocity and exact-solution
fields, which the initial state and the error norms call on the axes of the
grid; both must meet that broadcast contract.
"""

from pathlib import Path

import numpy as np
import pytest

import gepup
import gepup.bench
import gepup.output
from fem_oracle import grads_at_quad, interpolate, quad_coords, support_points, values_at_quad

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    return run, workloads


# errors of the one step at seed 0: u_L2 2.6e-3, q_L2 5.1e-3
TG = dict(name="tg-q2-l2", case="taylor-green", degree=2, level=2, t_end=0.02, u_l2_ceiling=5e-3, q_l2_ceiling=1e-2)
LID = dict(name="lid-q2-l2", case="lid-cavity", degree=2, level=2, t_end=0.05, snapshots=True)


@pytest.mark.parametrize("spec", [TG, LID], ids=lambda spec: spec["name"])
def test_benchmark_simulation_runs_and_passes_its_output_check(perfbench, spec, tmp_path):
    run, workloads = perfbench
    workload = workloads.Workload(**spec)
    case, _ = workloads.make_case(workload, 0)
    frames = tmp_path if workload.snapshots else None
    setup = run.simulate(gepup, workload, case, frames, [0], setup_only=True)
    assert setup.setup_s > 0 and setup.steps == 0
    sim = run.simulate(gepup, workload, case, frames, [0])
    assert sim.problems == []
    assert sim.steps >= 1 and len(sim.intervals) == sim.steps
    if frames is not None:
        names = sorted(p.name for p in frames.iterdir())
        assert names == [f"frame-{step:04d}.vtk" for step in range(sim.steps + 1)] + ["monitors.csv"]


EXACT_FIELDS = ("exact_u", "exact_p", "exact_u_grads", "exact_p_grad")


def components(value):
    """The arrays of a field's value: one array, or a tuple of them, possibly nested."""
    return [leaf for v in value for leaf in components(v)] if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("source", ["package", "benchmark"])
def test_exact_solution_fields_meet_the_broadcast_contract(perfbench, source):
    # the error norms call the exact solution on the axes of the grid, x of
    # shape (1, n) and y of shape (m, 1), and the initial state calls u0 on the
    # node axes; each component must broadcast to the values of the full (m, n)
    # coordinate arrays, bit for bit.  The benchmark passes translated copies
    # of the package's Taylor-Green fields
    _, workloads = perfbench
    cases = [gepup.taylor_green_case(100.0), gepup.single_vortex_case(1000.0), gepup.lid_cavity_case(100.0)]
    if source == "benchmark":
        cases = [workloads.make_case(workloads.Workload(**TG), 3)[0]]
    space = gepup.build_space(gepup.UNIT_SQUARE, (3, 2), 2)

    def assert_broadcasts(fn, axes, *t):
        full = np.broadcast_arrays(*axes)
        on_axes, on_grid = components(fn(*axes, *t)), components(fn(*full, *t))
        assert len(on_axes) == len(on_grid) > 0
        for a, b in zip(on_axes, on_grid):
            assert np.array_equal(np.broadcast_to(a, full[0].shape), b)

    for case in cases:
        assert_broadcasts(case.u0, space.node_axes)
        for name in EXACT_FIELDS if case.has_exact_solution else ():
            for axes in (space.quad_axes, space.node_axes):
                assert_broadcasts(getattr(case, name), axes, 0.3)
    # the norms from axis samples match those from the element-order point
    # samples, which sum in another order; bound fixed in advance
    case = cases[0]
    U = [interpolate(space, lambda x, y, t, d=d: np.cos(x + d * y)) for d in range(2)]
    x, y = quad_coords(space)
    diffs = [values_at_quad(space, u) - e for u, e in zip(U, case.exact_u(x, y, 0.3))]
    grad_diffs = [
        g - e for u, pair in zip(U, case.exact_u_grads(x, y, 0.3)) for g, e in zip(grads_at_quad(space, u), pair)
    ]
    l2sq = sum(float(np.sum(d * d @ space.wdet)) for d in diffs)
    h1sq = l2sq + sum(float(np.sum(d * d @ space.wdet)) for d in grad_diffs)
    nodal_sq = sum((u - e) ** 2 for u, e in zip(U, case.exact_u(*support_points(space).T, 0.3)))
    linf = np.sqrt(max(np.max(sum(d * d for d in diffs)), np.max(nodal_sq)))
    norms = gepup.error_norms(space, U, case.exact_u, 0.3, case.exact_u_grads)
    for key, value in (("L2", np.sqrt(l2sq)), ("H1", np.sqrt(h1sq)), ("Linf", linf)):
        assert norms[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
