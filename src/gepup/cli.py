"""Command-line entry points: ``gepup run``, ``gepup converge``, ``gepup validate-tableaus``.

Exit codes: 0 on success, 1 on usage/configuration errors, 2 on runtime or
solver failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bench import is_level_sequence, run_convergence, run_simulation
from .cases import lid_cavity_case, single_vortex_case, taylor_green_case
from .fem import MAX_DEGREE
from .imex import TABLEAU_IDS, StepperConfig, load_tableau
from .linsolve import SolverError
from .output import ERROR_COLUMNS, write_convergence_csv, write_monitor_csv, write_vtk

__all__ = ["parse_config", "main"]

CASE_BUILDERS = {
    "taylor-green": taylor_green_case,
    "single-vortex": single_vortex_case,
    "lid-cavity": lid_cavity_case,
}


class UsageError(Exception):
    pass


def _checked(convert, rule: str, accept):
    """``type=`` of a flag: ``convert`` the text and keep the value only if ``accept`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")

    return parse


_FINITE = _checked(float, "finite", math.isfinite)
_POSITIVE = _checked(float, "positive and finite", lambda v: 0 < v < math.inf)
_NONNEGATIVE = _checked(int, "a nonnegative integer", lambda v: v >= 0)


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--case", required=True, choices=CASE_BUILDERS)
    p.add_argument(
        "--degree", type=int, required=True, choices=range(1, MAX_DEGREE + 1), help="Lagrange element degree"
    )
    p.add_argument("--t-end", type=_FINITE, required=True)
    p.add_argument("--re", type=_POSITIVE, default=100.0, help="Reynolds number (default %(default)s)")
    p.add_argument(
        "--integrator", choices=TABLEAU_IDS, default=StepperConfig.tableau, help="time integrator (default %(default)s)"
    )
    p.add_argument(
        "--courant", type=_POSITIVE, default=StepperConfig.courant, help="Courant number (default %(default)s)"
    )
    p.add_argument("--t0", type=_FINITE, default=0.0)
    p.add_argument(
        "--base", type=_checked(int, "at least 1", lambda v: v >= 1), default=1, help="base cells per axis at level 0"
    )
    p.add_argument("--snapshot-interval", type=_NONNEGATIVE, default=0)
    p.add_argument("--outdir", default=".")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gepup", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="advance one case and write monitors/snapshots")
    _add_config_args(run_p)
    run_p.add_argument("--level", type=_NONNEGATIVE, required=True, help="mesh refinement level")
    conv_p = sub.add_parser("converge", help="convergence study over refinement levels")
    _add_config_args(conv_p)
    conv_p.add_argument(
        "--levels",
        type=_checked(
            lambda text: [int(tok) for tok in text.split(",")],
            "two or more consecutive ascending nonnegative levels",
            is_level_sequence,
        ),
        required=True,
        help="comma-separated refinement levels, e.g. 3,4,5,6",
    )
    sub.add_parser("validate-tableaus", help="check both time-integration tableaus")
    return parser


def parse_config(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """Parse CLI arguments into (command, namespace of the flags' values).

    Raises UsageError with a descriptive message naming the offending flag on
    invalid input.
    """
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("missing command: run | converge | validate-tableaus")
    if args.command == "validate-tableaus":
        return args.command, args
    if args.t_end < args.t0:
        raise UsageError(f"--t-end: {args.t_end} precedes --t0 {args.t0}")
    if args.command == "converge" and not CASE_BUILDERS[args.case](args.re).has_exact_solution:
        raise UsageError(f"--case: converge needs an exact solution, and {args.case!r} has none")
    return args.command, args


def _stepper(config: argparse.Namespace) -> StepperConfig:
    return StepperConfig(tableau=config.integrator, courant=config.courant)


def _cmd_run(config: argparse.Namespace) -> int:
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


def _cmd_converge(config: argparse.Namespace) -> int:
    case = CASE_BUILDERS[config.case](config.re)
    table = run_convergence(
        case,
        config.degree,
        _stepper(config),
        config.levels,
        t0=config.t0,
        t_end=config.t_end,
        base_cells=(config.base, config.base),
    )
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{config.case}-convergence.csv"
    write_convergence_csv(table, path)
    print(f"wrote {path}")
    return 0


def _cmd_validate_tableaus() -> int:
    for name in TABLEAU_IDS:
        tab = load_tableau(name)  # raises ValueError naming the tableau on a failed check
        print(f"{name}: {tab.n_stages} stages, order {tab.order} ... ok")
    return 0


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
