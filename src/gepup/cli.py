"""Command-line entry points: ``gepup run``, ``gepup converge``, ``gepup validate-tableaus``.

Exit codes: 0 on success, 1 on usage/configuration errors, 2 on runtime or
solver failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .bench import run_convergence, run_simulation
from .cases import lid_cavity_case, single_vortex_case, taylor_green_case
from .fem import MAX_DEGREE
from .imex import TABLEAU_IDS, StepperConfig, load_tableau, validate_tableau
from .linsolve import SolverError
from .output import ERROR_COLUMNS, write_convergence_csv, write_monitor_csv, write_vtk

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

CASE_BUILDERS = {
    "taylor-green": taylor_green_case,
    "single-vortex": single_vortex_case,
    "lid-cavity": lid_cavity_case,
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    case: str
    degree: int
    level: int
    t_end: float
    re: float = 100.0
    integrator: str = "ark4"
    courant: float = 0.8
    t0: float = 0.0
    base: int = 1
    rel_tol: float = 1e-12
    snapshot_interval: int = 0
    outdir: str = "."
    levels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.case not in CASE_BUILDERS:
            raise UsageError(
                f"--case: unknown case {self.case!r}; choose from {', '.join(sorted(CASE_BUILDERS))}"
            )
        if not 1 <= self.degree <= MAX_DEGREE:
            raise UsageError(f"--degree: must be in 1..{MAX_DEGREE}, got {self.degree}")
        if self.level < 0:
            raise UsageError(f"--level: must be nonnegative, got {self.level}")
        if not math.isfinite(self.t0):
            raise UsageError(f"--t0: must be finite, got {self.t0}")
        if not math.isfinite(self.t_end):
            raise UsageError(f"--t-end: must be finite, got {self.t_end}")
        if self.t_end < self.t0:
            raise UsageError(f"--t-end: {self.t_end} precedes --t0 {self.t0}")
        if not self.re > 0:
            raise UsageError(f"--re: must be positive, got {self.re}")
        if self.integrator not in TABLEAU_IDS:
            raise UsageError(
                f"--integrator: unknown id {self.integrator!r}; choose from {', '.join(TABLEAU_IDS)}"
            )
        if not 0 < self.courant < math.inf:
            raise UsageError(f"--courant: must be positive and finite, got {self.courant}")
        if self.base < 1:
            raise UsageError(f"--base: must be at least 1, got {self.base}")
        if not 0 < self.rel_tol < 1:
            raise UsageError(f"--rel-tol: must lie in (0, 1), got {self.rel_tol}")
        if self.snapshot_interval < 0:
            raise UsageError(f"--snapshot-interval: must be nonnegative, got {self.snapshot_interval}")
        if any(l < 0 for l in self.levels):
            raise UsageError(f"--levels: all levels must be nonnegative, got {self.levels}")


def _add_config_args(p: argparse.ArgumentParser, need_level: bool = True):
    p.add_argument("--case", required=True, help="taylor-green | single-vortex | lid-cavity")
    p.add_argument("--degree", type=int, required=True, help=f"Lagrange element degree (1..{MAX_DEGREE})")
    if need_level:
        p.add_argument("--level", type=int, required=True, help="mesh refinement level")
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--re", type=float, default=100.0, help="Reynolds number (default 100)")
    p.add_argument("--integrator", default="ark4", help="ark4 | ark5 (default ark4)")
    p.add_argument("--courant", type=float, default=0.8, help="Courant number (default 0.8)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--base", type=int, default=1, help="base cells per axis at level 0")
    p.add_argument(
        "--rel-tol",
        type=float,
        default=1e-12,
        dest="rel_tol",
        help="bound on the normwise backward error ||b - Kx|| / (||b|| + ||K|| ||x||) "
        "of every linear solve (default 1e-12)",
    )
    p.add_argument("--snapshot-interval", type=int, default=0, dest="snapshot_interval")
    p.add_argument("--outdir", default=".")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gepup", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="advance one case and write monitors/snapshots")
    _add_config_args(run_p)
    conv_p = sub.add_parser("converge", help="convergence study over refinement levels")
    _add_config_args(conv_p, need_level=False)
    conv_p.add_argument(
        "--levels", required=True, help="comma-separated refinement levels, e.g. 3,4,5,6"
    )
    sub.add_parser("validate-tableaus", help="check both time-integration tableaus")
    return parser


def parse_config(argv: list[str]) -> tuple[str, RunConfig | None]:
    """Parse CLI arguments into (command, RunConfig).

    Raises UsageError with a descriptive message naming the offending key on
    invalid input.
    """
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("missing command: run | converge | validate-tableaus")
    if args.command == "validate-tableaus":
        return args.command, None
    kwargs = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    if args.command == "converge":
        try:
            kwargs["levels"] = tuple(int(tok) for tok in str(kwargs["levels"]).split(","))
        except ValueError:
            raise UsageError(f"--levels: expected comma-separated integers, got {kwargs['levels']!r}")
        kwargs["level"] = max(kwargs["levels"], default=0)
    config = RunConfig(**kwargs)
    if args.command == "converge":
        case = CASE_BUILDERS[config.case](config.re)
        if not case.has_exact_solution:
            raise UsageError(f"--case: converge needs an exact solution, and {config.case!r} has none")
    return args.command, config


def serialize_config(config: RunConfig) -> list[str]:
    """Flag list that parses back to an equal config (round-trip)."""
    out = []
    for f in fields(config):
        val = getattr(config, f.name)
        if f.name == "levels":
            if val:
                out += ["--levels", ",".join(str(v) for v in val)]
            continue
        flag = "--" + f.name.replace("_", "-")
        out += [flag, str(val)]
    return out


def _stepper(config: RunConfig) -> StepperConfig:
    return StepperConfig(tableau=config.integrator, courant=config.courant, rel_tol=config.rel_tol)


def _cmd_run(config: RunConfig) -> int:
    case = CASE_BUILDERS[config.case](config.re)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def snapshot_due(step):
        return config.snapshot_interval and step % config.snapshot_interval == 0

    def snapshot_path(step):
        return outdir / f"{config.case}-step{step:06d}.vtk"

    def on_step(step, state, ops):
        if snapshot_due(step):
            write_vtk(
                ops.space,
                snapshot_path(step),
                velocity=state.U,
                pressure=state.Q,
                title=f"{config.case} t={state.t:.6g}",
            )

    result = run_simulation(
        case,
        config.degree,
        config.level,
        _stepper(config),
        t0=config.t0,
        t_end=config.t_end,
        base_cells=(config.base, config.base),
        on_step=on_step,
    )
    write_monitor_csv(result.monitors, outdir / f"{config.case}-monitors.csv")
    final = outdir / f"{config.case}-final.vtk"
    if snapshot_due(result.steps):  # the last step's snapshot holds the final state: write it once
        snapshot_path(result.steps).replace(final)
    else:
        write_vtk(
            result.ops.space,
            final,
            velocity=result.state.U,
            pressure=result.state.Q,
            title=f"{config.case} t={result.state.t:.6g}",
        )
    print(f"{config.case}: {result.steps} steps to t = {result.state.t:g}")
    last = result.monitors[-1]
    print(f"  div_l2 = {last['div_l2']:.3e}, kinetic energy = {last['kinetic_energy']:.6e}")
    if result.errors is not None:
        for key in ERROR_COLUMNS:
            print(f"  {key} = {result.errors[key]:.3e}")
    return 0


def _cmd_converge(config: RunConfig) -> int:
    case = CASE_BUILDERS[config.case](config.re)
    table = run_convergence(
        case,
        config.degree,
        _stepper(config),
        list(config.levels),
        t0=config.t0,
        t_end=config.t_end,
        base_cells=(config.base, config.base),
        verbose=True,
    )
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{config.case}-convergence.csv"
    write_convergence_csv(table, path)
    print(f"wrote {path}")
    return 0


def _cmd_validate_tableaus() -> int:
    ok = True
    for name in TABLEAU_IDS:
        tab = load_tableau(name)
        problems = validate_tableau(tab)
        status = "ok" if not problems else "FAILED"
        print(f"{name}: {tab.n_stages} stages, order {tab.order} ... {status}")
        for msg in problems:
            print(f"  - {msg}")
            ok = False
    return 0 if ok else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, config = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if command == "validate-tableaus":
            return _cmd_validate_tableaus()
        if command == "run":
            return _cmd_run(config)
        return _cmd_converge(config)
    except (SolverError, FloatingPointError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
