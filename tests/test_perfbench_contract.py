"""The benchmark's calls into the package, run on two tiny workloads.

``perfbench/run.py`` drives the solver through ``run_simulation(t_end=,
on_step=)``, writes VTK frames with ``write_vtk(velocity=, pressure=)``
after ``vorticity_indicator`` and ``dorfler_mark``, and its output check
reads the state's ``W``, ``U``, ``Phi`` and ``Q``.  Running its own
``simulate`` here makes a change that breaks any of those calls fail the
test suite rather than the benchmark.
"""

from pathlib import Path

import pytest

import gepup
import gepup.bench
import gepup.output

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
