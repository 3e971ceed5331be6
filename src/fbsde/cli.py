"""Command-line interface: solve, oracle, check, and built-in demos.

Exit codes: 0 solved (or diagnostics satisfied, or ``--help``), 2 certified
unsolvable or violated, 3 no convergence, 4 input error (a usage error, such
as an unknown flag, a malformed flag value or an unknown demo, a problem
over an oracle's size limit and a problem too large for memory included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import io as pio
from . import linear, nonlinear, oracle
from .bsde import bsde_residual, solve_bsde
from .errors import FbsdeError, NonFiniteSolve, SchemaError, SolverStopped

EXIT_SOLVED = 0
EXIT_UNSOLVABLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INPUT = 4


DEMOS = {
    # forward equation independent of Y and Z; the coupling matrix is the
    # identity at every node
    "partially-coupled": {
        "kind": "linear",
        "tree": {"N": 2, "T": 3, "transition": "uniform"},
        "x0": 1.0,
        "coefficients": {
            "A": 0.1,
            "A_bar": [0.2, -0.2],
            "D": 0.05,
            "D_bar": [0.1, -0.1],
            "A_hat": 0.3,
            "B_hat": 0.2,
            # zero-sum rows at times 1..2, vanishing at the horizon
            "C_hat": [[0.1, -0.1]] * 6 + [[0.0, 0.0]] * 8,
            "D_hat": "0.1*w",
            "G": 1.0,
            "g": 0.5,
        },
    },
    # inhomogeneous self-coupled form; the decoupling levels are the
    # deterministic sequence ending 13/8, 5/3, 2
    "corollary-special": {
        "kind": "special",
        "tree": {"N": 2, "T": 3, "transition": "uniform"},
        "x0": 0.5,
        "coefficients": {
            "D": 0.1,
            "D_bar": [0.05, -0.05],
            "D_hat": "0.1*w",
            "g": 1.0,
        },
    },
    # unit feedback of Y into the forward drift at the root annihilates the
    # all-ones direction: certified singular
    "singular-gamma": {
        "kind": "linear",
        "tree": {"N": 2, "T": 1, "transition": "uniform"},
        "x0": 1.0,
        "coefficients": {"B": 1.0, "G": 1.0},
    },
    # monotone family: small smooth perturbation of the self-coupled form
    "monotone-family": {
        "kind": "nonlinear",
        "tree": {"N": 2, "T": 3, "transition": "uniform"},
        "x0": 1.0,
        "coefficients": {
            "b": "-y + 0.1*tanh(x)",
            "sigma": ["-z1", "0"],
            "f": "x + 0.1*tanh(y)",
            "f_terminal": "x",
            "h": "x",
        },
    },
}


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="fbsde",
        description="Scenario-tree solvers for coupled forward-backward difference systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = nonlinear.ContinuationOptions()
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "demo":
            p.add_argument("name", choices=sorted(DEMOS))
        else:
            p.add_argument("file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float,
                       help=f"solver tolerance (default {defaults.tolerance:g})")
        p.add_argument("--delta", type=float,
                       help=f"initial continuation step (default {defaults.delta:g})")
        p.add_argument("--max-iter", type=int,
                       help=f"Picard budget per level (default {defaults.max_iterations:g})")
        p.add_argument("--mode", choices=nonlinear.MODES)
        p.add_argument("--seed", type=int, help=f"sampling seed (default {defaults.seed:g})")
    return parser


def _merge_options(loaded: pio.LoadedProblem, args) -> pio.LoadedProblem:
    """Flags override the file; replacing the options re-runs their checks."""
    flags = {"tolerance": args.tol, "delta": args.delta, "max_iterations": args.max_iter,
             "mode": args.mode, "seed": args.seed}
    options = dataclasses.replace(
        loaded.options, **{k: v for k, v in flags.items() if v is not None}
    )
    return dataclasses.replace(loaded, options=options)


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_out(args, loaded, report):
    if args.format == "csv":
        if report.get("solution") is None:
            # nothing to tabulate; keep the exit code meaningful
            print(f"no solution to render as csv (status: {report['status']})",
                  file=sys.stderr)
            return
        _emit(args, pio.render_csv(loaded.tree, report["solution"]))
    else:
        _emit(args, pio.render_json(report))


def _new_report(loaded: pio.LoadedProblem):
    """The entries every report starts with; only linear runs certify."""
    return {"kind": loaded.kind, "constants": pio.constants_payload(loaded.tree),
            "certificate": None}


def _solved(report, tree, solution, residuals, stats=None):
    """(report, exit code) of a solved run: its solution, residuals and stats.

    A non-finite residual (a solution that overflowed) raises NonFiniteSolve.
    """
    values = {"forward": residuals.forward, "backward": residuals.backward}
    if not all(math.isfinite(v) for v in values.values() if v is not None):
        shown = ", ".join(f"{key} {v}" for key, v in values.items() if v is not None)
        raise NonFiniteSolve(f"the solution overflowed: residuals {shown}")
    report["status"] = "solved"
    report["solution"] = pio.solution_payload(tree, solution)
    report["residuals"] = values
    report["stats"] = pio.stats_payload(stats)
    return report, EXIT_SOLVED


def _no_solution(report, status, code, stats=None, **extra):
    """(report, exit code) of a run without a solution, with the stats of
    the solve it stopped, if any; ``extra`` entries (error, best_residual,
    rank) are reported unless None."""
    report["status"] = status
    report["solution"] = None
    report["residuals"] = None
    report["stats"] = pio.stats_payload(stats)
    report.update((key, value) for key, value in extra.items() if value is not None)
    return report, code


def _iterative(report, loaded: pio.LoadedProblem, solver):
    """(report, exit code) of an iterative solver's run with the options,
    which returns (solution, stats) or stops with the stats of its work."""
    try:
        sol, stats = solver(loaded.tree, loaded.data, loaded.x0, loaded.options)
    except SolverStopped as err:
        return _no_solution(report, "no_convergence", EXIT_NO_CONVERGENCE, err.stats,
                            error=str(err), best_residual=err.best_residual)
    return _solved(report, loaded.tree, sol, sol.residuals, stats)


def _solve_loaded(loaded: pio.LoadedProblem):
    """Dispatch on kind; returns (report, exit_code)."""
    tree = loaded.tree
    report = _new_report(loaded)
    if loaded.kind == "bsde":
        Y, Z = solve_bsde(tree, loaded.data)
        backward = bsde_residual(tree, loaded.data, Y, Z)
        return _solved(report, tree, (Y, Z), linear.ResidualReport(forward=None, backward=backward))

    if loaded.kind in ("linear", "special"):
        result = linear.solve_linear(tree, loaded.data, loaded.x0)
        report["certificate"] = pio.certificate_payload(tree, result.riccati)
        if isinstance(result, linear.Unsolvable):
            return _no_solution(report, "unsolvable", EXIT_UNSOLVABLE)
        return _solved(report, tree, result, result.residuals)

    picard = loaded.options.mode == "picard"
    return _iterative(report, loaded,
                      nonlinear.solve_flat_picard if picard else nonlinear.solve_continuation)


def _oracle_loaded(loaded: pio.LoadedProblem):
    tree = loaded.tree
    report = _new_report(loaded)
    if loaded.kind == "bsde":
        raise SchemaError("kind", "no reference solver is defined for backward-only problems")
    if loaded.kind in ("linear", "special"):
        verdict = oracle.linear_oracle(tree, loaded.data, loaded.x0)
        rank = {"rank": verdict.rank, "size": verdict.size}
        if isinstance(verdict, oracle.UniqueSolution):
            report["rank"] = rank
            return _solved(report, tree, verdict.solution, verdict.solution.residuals)
        if isinstance(verdict, oracle.NoSolution):
            rank["inconsistency"] = verdict.inconsistency
            return _no_solution(report, "no_solution", EXIT_UNSOLVABLE, rank=rank)
        rank["nullity"] = verdict.nullity
        return _no_solution(report, "infinitely_many", EXIT_UNSOLVABLE, rank=rank)
    return _iterative(report, loaded, oracle.solve_oracle)


def _check_loaded(loaded: pio.LoadedProblem):
    tree = loaded.tree
    report = _new_report(loaded)
    if loaded.kind in ("linear", "special"):
        ric = linear.riccati_backward(tree, loaded.data)
        report["certificate"] = pio.certificate_payload(tree, ric)
        ok = ric.certificate.all_invertible
        report["status"] = "satisfied" if ok else "violated"
        return report, EXIT_SOLVED if ok else EXIT_UNSOLVABLE
    if loaded.kind == "bsde":
        report["status"] = "satisfied"
        return report, EXIT_SOLVED
    diag = nonlinear.check_assumptions(tree, loaded.data, loaded.options)
    # each clause's estimate under its field name, in field order
    report["diagnostics"] = {
        **{clause: None if est is None else est.value for clause, est in vars(diag).items()
           if clause not in ("satisfied", "violations")},
        "violations": [name for name, _ in diag.violations],
    }
    report["status"] = "satisfied" if diag.satisfied else "violated"
    return report, EXIT_SOLVED if diag.satisfied else EXIT_UNSOLVABLE


#: Each command's help text and its handler, which maps a bound problem to
#: (report, exit code); ``demo`` solves a built-in document.
_COMMANDS = {
    "solve": ("solve a problem file", _solve_loaded),
    "oracle": ("solve with the brute-force reference solver", _oracle_loaded),
    "check": ("run assumption diagnostics", _check_loaded),
    "demo": ("run a built-in instance", _solve_loaded),
}


def run_cli(argv=None) -> int:
    """Entry point used by tests; returns the exit code, a usage error's
    included, and never raises SystemExit."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exit_.code == 0 else EXIT_INPUT
    try:
        # a demo binds a built-in document, every other command a file
        loaded = (pio.bind_problem(DEMOS[args.name]) if args.command == "demo"
                  else pio.load_problem(args.file))
        loaded = _merge_options(loaded, args)
        report, code = _COMMANDS[args.command][1](loaded)
        _report_out(args, loaded, report)
        return code
    except (OSError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except FbsdeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:  # numpy names the allocation it refused
        print(f"input error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return EXIT_INPUT


def main():  # pragma: no cover - thin wrapper
    sys.exit(run_cli())
