#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery; takes a few seconds.

    python3 perfbench/selftest.py

Checks that the output check rejects a known blow-up and accepts a sane
run, that the seeded inputs are valid, that the tracer leaves the solver as
it found it, and that the metric names agree with BENCHMARK.json.  Exits 0
when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def main() -> int:
    gepup = run.import_solver()
    if gepup is None:
        return 2
    import numpy as np
    from gepup.bench import run_simulation
    from gepup.cases import lid_cavity_case
    from gepup.imex import StepperConfig
    from gepup.operators import check_boundary_compatibility
    from tracer import PER_LAYER, TARGETS, Tracer, _resolve
    from workloads import WORKLOADS, check_output, make_case

    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    lid = WORKLOADS["lid-q4-l5-vtk"]

    # With the default dt_max of 1.0, courant_dt hands the resting cavity a
    # unit time step and the run blows up (kinetic energy ~1e292 after three
    # steps) while run_simulation returns normally.
    with np.errstate(all="ignore"):
        blowup = run_simulation(lid_cavity_case(1000.0), 2, 4, StepperConfig(), t_end=3.0)
    problems = check_output(lid, blowup)
    expect(bool(problems), f"check rejects the default-settings lid cavity (Q2, level 4): {problems}")

    small = dataclasses.replace(lid, degree=2, level=3)
    sane = run_simulation(lid_cavity_case(1000.0), 2, 3, small.stepper(), t_end=3 * small.stepper().dt_max)
    problems = check_output(small, sane)
    expect(not problems, f"check accepts a lid cavity run with the bounded step: {problems}")

    for seed in range(5):
        case, params = make_case(WORKLOADS["tg-q3-l6"], seed)
        try:
            check_boundary_compatibility(case, times=(0.0, 0.5))
            flux_ok = True
        except ValueError:
            flux_ok = False
        x, y = 0.3, 0.7
        ux, uy = case.exact_u(x, y, 0.0)
        u0x, u0y = case.u0(x, y)
        expect(flux_ok and ux == u0x and uy == u0y, f"shifted Taylor-Green input of seed {seed} is valid: {params}")
    _, a = make_case(lid, 7)
    _, b = make_case(lid, 7)
    expect(a == b and 950.0 <= a["re"] <= 1050.0, f"lid input is a function of the seed: {a}")

    before = [_resolve(module, path) for module, path, _ in TARGETS]
    with Tracer() as tracer:
        during = [_resolve(module, path) for module, path, _ in TARGETS]
    after = [_resolve(module, path) for module, path, _ in TARGETS]
    expect(not tracer.missing, f"every traced target exists: missing {tracer.missing}")
    expect(
        all(x[2] is y[2] for x, y in zip(before, after)) and any(x[2] is not y[2] for x, y in zip(before, during)),
        "tracer wraps its targets and restores them on exit",
    )

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "end-to-end metrics match BENCHMARK.json",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER),
        "per-layer metrics match BENCHMARK.json",
    )
    names = [w["name"] for w in spec["workloads"]]
    expect(list(WORKLOADS) == list(run.WORKLOAD_NAMES), "run.py and workloads.py list the same workloads")
    expect(set(names) <= set(WORKLOADS), f"every workload of BENCHMARK.json exists: {names}")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
