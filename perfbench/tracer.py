"""Per-layer tracing from outside the program.

While a ``Tracer`` is active it replaces public functions and methods of
the ``gepup`` modules, each where its caller looks it up, by wrappers that
record a span: name, start, end, parent span and time-step index.  Spans
stay in memory; ``layer_metrics`` turns one simulation's spans into the
per-layer metrics and ``write_spans`` saves them when the run ends.

A target the program no longer has is skipped and listed in ``missing``,
so that the benchmark keeps running across refactors of the layers it
watches; its metrics then read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

SOLVE_CLASSES = ("momentum", "poisson_phi", "poisson_q", "mass")
LOADS = ("Fw", "Fphi", "Fu", "Fq")
MODULES = ("mesh", "fem", "tensorops", "linsolve", "operators", "imex", "bench", "output", "cases")


def _poisson_span(args, kwargs):
    counter = kwargs.get("counter", args[2] if len(args) > 2 else "poisson")
    return f"operators.solve.{counter}"


# (module, attribute path, span name); the module is where the caller looks
# the name up, so that e.g. bench's own binding of advance_step is wrapped
TARGETS = (
    ("gepup.bench", "build_hierarchy", "mesh.build_hierarchy"),
    ("gepup.fem", "build_space", "fem.build_space"),
    ("gepup.fem", "assemble_mass", "fem.assemble"),
    ("gepup.fem", "assemble_stiffness", "fem.assemble"),
    ("gepup.operators", "prolongation_matrix", "fem.prolongation_matrix"),
    ("gepup.tensorops", "one_dimensional_factors", "tensorops.one_dimensional_factors"),
    ("gepup.tensorops", "TensorOperator.__matmul__", "tensorops.matvec"),
    ("gepup.linsolve", "GmgPreconditioner.__init__", "linsolve.gmg_build"),
    ("gepup.linsolve", "GmgPreconditioner.apply", "linsolve.vcycle"),
    ("gepup.linsolve", "JacobiPreconditioner.apply", "linsolve.jacobi"),
    ("gepup.linsolve", "cg_solve", "linsolve.cg"),
    ("gepup.operators", "cg_solve", "linsolve.cg"),
    ("gepup.operators", "GepupOperators.__init__", "operators.init"),
    ("gepup.operators", "GepupOperators.initial_state", "operators.initial_state"),
    ("gepup.operators", "GepupOperators.momentum_operator", "operators.momentum_operator"),
    ("gepup.operators", "ConstrainedOperator.solve", "operators.solve.momentum"),
    ("gepup.operators", "GepupOperators.solve_poisson", _poisson_span),
    ("gepup.operators", "GepupOperators.solve_mass", "operators.solve.mass"),
    ("gepup.operators", "GepupOperators.eval_Fw_both", "operators.load.Fw"),
    ("gepup.operators", "GepupOperators.eval_Fphi", "operators.load.Fphi"),
    ("gepup.operators", "GepupOperators.eval_Fu", "operators.load.Fu"),
    ("gepup.operators", "GepupOperators.eval_Fq", "operators.load.Fq"),
    ("gepup.operators", "GepupOperators.divergence_l2", "operators.monitors"),
    ("gepup.operators", "GepupOperators.kinetic_energy", "operators.monitors"),
    ("gepup.bench", "advance_step", "imex.advance_step"),
    ("gepup.bench", "courant_dt", "imex.courant_dt"),
    ("gepup.bench", "run_simulation", "bench.run_simulation"),
    ("gepup.bench", "solution_errors", "bench.solution_errors"),
    ("gepup.bench", "vorticity_indicator", "bench.vorticity_indicator"),
    ("gepup.bench", "dorfler_mark", "bench.dorfler_mark"),
    ("gepup.output", "write_vtk", "output.write_vtk"),
    ("gepup.output", "write_monitor_csv", "output.write_monitor_csv"),
)

# name, unit, better: every per-layer metric the traced run reports
PER_LAYER = (
    [
        ("mesh.build_hierarchy.s", "s", "lower"),
        ("fem.build_space.s", "s", "lower"),
        ("fem.assemble.s", "s", "lower"),
        ("fem.prolongation_matrix.s", "s", "lower"),
        ("tensorops.one_dimensional_factors.s", "s", "lower"),
        ("operators.init.s", "s", "lower"),
        ("operators.initial_state.s", "s", "lower"),
        ("linsolve.gmg_build.calls", "count", "lower"),
        ("linsolve.gmg_build.s", "s", "lower"),
    ]
    + [
        (f"operators.solve.{c}.{m}", u, "lower")
        for c in SOLVE_CLASSES
        for m, u in (("calls", "count"), ("s", "s"), ("iters", "count"))
    ]
    + [
        ("linsolve.cg.calls", "count", "lower"),
        ("linsolve.cg.iters", "count", "lower"),
        ("linsolve.cg.s", "s", "lower"),
        ("linsolve.cg.iters_per_call", "count", "lower"),
        ("linsolve.cg.rel_residual_max", "ratio", "lower"),
        ("linsolve.cg.failed", "count", "lower"),
        ("linsolve.vcycle.calls", "count", "lower"),
        ("linsolve.vcycle.s", "s", "lower"),
        ("linsolve.jacobi.calls", "count", "lower"),
        ("linsolve.jacobi.s", "s", "lower"),
        ("tensorops.matvec.calls", "count", "lower"),
        ("tensorops.matvec.s", "s", "lower"),
    ]
    + [(f"operators.load.{L}.{m}", u, "lower") for L in LOADS for m, u in (("calls", "count"), ("s", "s"))]
    + [
        ("operators.load.Fw.useful_frac", "ratio", "higher"),
        ("operators.momentum_operator.calls", "count", "lower"),
        ("operators.momentum_operator.s", "s", "lower"),
        ("operators.monitors.s", "s", "lower"),
        ("cases.boundary_data.calls", "count", "lower"),
        ("cases.boundary_data.s", "s", "lower"),
        ("imex.advance_step.calls", "count", "lower"),
        ("imex.advance_step.s", "s", "lower"),
        ("imex.advance_step.self_s", "s", "lower"),
        ("imex.courant_dt.calls", "count", "lower"),
        ("imex.courant_dt.s", "s", "lower"),
        ("bench.run_simulation.self_s", "s", "lower"),
        ("bench.solution_errors.s", "s", "lower"),
        ("bench.vorticity_indicator.s", "s", "lower"),
        ("bench.dorfler_mark.s", "s", "lower"),
        ("output.write_vtk.calls", "count", "lower"),
        ("output.write_vtk.s", "s", "lower"),
        ("output.write_vtk.bytes", "B", "lower"),
        ("output.write_monitor_csv.s", "s", "lower"),
        ("output.write_monitor_csv.bytes", "B", "lower"),
    ]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("process.cpu_per_wall", "ratio", "higher"),
    ]
)

# metrics kept as totals over spans of these names
_SPAN_TOTALS = {
    "mesh.build_hierarchy.s": "mesh.build_hierarchy",
    "fem.build_space.s": "fem.build_space",
    "fem.assemble.s": "fem.assemble",
    "fem.prolongation_matrix.s": "fem.prolongation_matrix",
    "tensorops.one_dimensional_factors.s": "tensorops.one_dimensional_factors",
    "operators.init.s": "operators.init",
    "operators.initial_state.s": "operators.initial_state",
    "operators.monitors.s": "operators.monitors",
    "bench.solution_errors.s": "bench.solution_errors",
    "bench.vorticity_indicator.s": "bench.vorticity_indicator",
    "bench.dorfler_mark.s": "bench.dorfler_mark",
    "output.write_monitor_csv.s": "output.write_monitor_csv",
}
_CALLS_AND_SECONDS = (
    "linsolve.gmg_build",
    "linsolve.cg",
    "linsolve.vcycle",
    "linsolve.jacobi",
    "tensorops.matvec",
    "operators.momentum_operator",
    "cases.boundary_data",
    "imex.advance_step",
    "imex.courant_dt",
    "output.write_vtk",
    *(f"operators.solve.{c}" for c in SOLVE_CLASSES),
    *(f"operators.load.{L}" for L in LOADS),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Span recorder; use as a context manager around traced simulations."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, step]
        self.counts: dict[str, float] = defaultdict(float)
        self.step = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ---- recording ------------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.step = 0
        self._stack = []

    def span(self, name, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, kwargs, result)`` runs on return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.step]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_cg(self, args, kwargs, result):
        _, report = result
        self.counts["cg.iters"] += report.iterations
        self.counts["cg.failed"] += not report.converged
        self.counts["cg.rel_residual_max"] = max(
            self.counts["cg.rel_residual_max"], float(report.relative_residual)
        )

    def _after_write(self, key):
        def after(args, kwargs, result):
            # both writers take (data, path, ...)
            self.counts[f"{key}.bytes"] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])

        return after

    def _fw_used(self, fn):
        """eval_Fw consumes one of the two components eval_Fw_both builds."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["Fw.used"] += 1
            tracer.counts["Fw.via_single"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counts["Fw.via_single"] -= 1

        return wrapper

    def _fw_both(self, fn):
        tracer = self

        def count(args, kwargs, result):
            tracer.counts["Fw.computed"] += 2
            if not tracer.counts["Fw.via_single"]:
                tracer.counts["Fw.used"] += 2

        return self.span("operators.load.Fw", fn, after=count)

    def wrap_case(self, case):
        """The case with its boundary data ``g`` and ``dg_dt`` traced."""
        changes = {
            key: self.span("cases.boundary_data", getattr(case, key))
            for key in ("g", "dg_dt")
            if getattr(case, key) is not None
        }
        return dataclasses.replace(case, **changes)

    # ---- installing ---------------------------------------------------------------

    def __enter__(self):
        self.missing = []
        after = {
            "linsolve.cg": self._after_cg,
            "output.write_vtk": self._after_write("vtk"),
            "output.write_monitor_csv": self._after_write("monitor_csv"),
        }
        try:
            for module_name, path, label in TARGETS:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                owner, attr, fn = found
                if label == "operators.load.Fw":
                    wrapped = self._fw_both(fn)
                else:
                    wrapped = self.span(label, fn, after=after.get(label))
                self._install(owner, attr, fn, wrapped)
            found = _resolve("gepup.operators", "GepupOperators.eval_Fw")
            if found is not None:
                owner, attr, fn = found
                self._install(owner, attr, fn, self._fw_used(fn))
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    # ---- reducing -------------------------------------------------------------------

    def layer_metrics(self, run_start: float, monitors: list[dict]) -> dict[str, float]:
        """Per-layer metrics of one traced simulation.

        ``run_start`` is when the projected initial state was handed to the
        caller (``on_step(0)``); ``monitors`` are the simulation's per-step
        monitor rows, whose ``cg_*`` columns give solve iterations.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_total = defaultdict(float)
        module_self = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own = end - start - child[i]
            self_total[name] += own
            module_self[name.split(".", 1)[0]] += own

        out = {key: total[name] for key, name in _SPAN_TOTALS.items()}
        for name in _CALLS_AND_SECONDS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for c in SOLVE_CLASSES:
            out[f"operators.solve.{c}.iters"] = sum(m.get(f"cg_{c}", 0) for m in monitors)
        out["linsolve.cg.iters"] = self.counts["cg.iters"]
        out["linsolve.cg.iters_per_call"] = self.counts["cg.iters"] / max(calls["linsolve.cg"], 1)
        out["linsolve.cg.rel_residual_max"] = self.counts["cg.rel_residual_max"]
        out["linsolve.cg.failed"] = self.counts["cg.failed"]
        computed = self.counts["Fw.computed"]
        out["operators.load.Fw.useful_frac"] = self.counts["Fw.used"] / computed if computed else 0.0
        out["output.write_vtk.bytes"] = self.counts["vtk.bytes"]
        out["output.write_monitor_csv.bytes"] = self.counts["monitor_csv.bytes"]
        out["imex.advance_step.self_s"] = self_total["imex.advance_step"]
        out["bench.run_simulation.self_s"] = self_total["bench.run_simulation"]
        for m in MODULES:
            out[f"{m}.self_s"] = module_self[m]

        # run_s not covered by any layer below run_simulation
        root = next((i for i, s in enumerate(spans) if s[0] == "bench.run_simulation"), None)
        if root is None:
            out["trace.unattributed_s"] = 0.0
        else:
            covered = sum(
                min(end, spans[root][2]) - max(start, run_start)
                for _, start, end, parent, _ in spans
                if parent == root and end > run_start
            )
            out["trace.unattributed_s"] = spans[root][2] - run_start - covered
        return out

    def write_spans(self, path, sims: list[list[list]]):
        """All traced simulations' spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for sim, spans in enumerate(sims):
                for name, start, end, parent, step in spans:
                    f.write(
                        json.dumps(
                            {"sim": sim, "name": name, "start": start, "end": end, "parent": parent, "step": step}
                        )
                        + "\n"
                    )
