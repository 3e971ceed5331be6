"""Command-line interface: solve, oracle, check, and built-in demos.

Exit codes: 0 solved (or diagnostics satisfied), 2 certified unsolvable or
violated, 3 no convergence, 4 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import io as pio
from . import linear, nonlinear, oracle
from .bsde import bsde_residual, solve_bsde
from .errors import (
    FbsdeError,
    NoContraction,
    NoConvergence,
    NonFiniteIterate,
    SchemaError,
    StepUnderflow,
)

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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fbsde",
        description="Scenario-tree solvers for coupled forward-backward difference systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance (default 1e-10)")
        p.add_argument("--delta", type=float, default=None, help="initial continuation step (default 0.25)")
        p.add_argument("--max-iter", type=int, default=None, help="Picard budget per level (default 50)")
        p.add_argument("--mode", choices=pio.MODES, default=None)
        p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file")
    add_common(p_solve)

    p_oracle = sub.add_parser("oracle", help="solve with the brute-force reference solver")
    p_oracle.add_argument("file")
    add_common(p_oracle)

    p_check = sub.add_parser("check", help="run assumption diagnostics")
    p_check.add_argument("file")
    add_common(p_check)

    p_demo = sub.add_parser("demo", help="run a built-in instance")
    p_demo.add_argument("name", choices=sorted(DEMOS))
    add_common(p_demo)
    return parser


def _merge_options(loaded: pio.LoadedProblem, args) -> pio.LoadedProblem:
    """Flags override the file; replacing the options re-runs their checks."""
    flags = {"tolerance": args.tol, "delta": args.delta, "max_iterations": args.max_iter}
    options = dataclasses.replace(
        loaded.options, **{k: v for k, v in flags.items() if v is not None}
    )
    return dataclasses.replace(
        loaded,
        options=options,
        mode=args.mode or loaded.mode,
        seed=loaded.seed if args.seed is None else pio.check_seed(args.seed),
    )


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


def _solve_loaded(loaded: pio.LoadedProblem):
    """Dispatch on kind; returns (status, report, exit_code)."""
    tree = loaded.tree
    report = {"kind": loaded.kind, "constants": pio.constants_payload(tree)}

    if loaded.kind == "bsde":
        Y, Z = solve_bsde(tree, loaded.data)
        report["status"] = "solved"
        report["certificate"] = None
        report["solution"] = pio.solution_payload(tree, (Y, Z))
        report["residuals"] = {
            "forward": None,
            "backward": bsde_residual(tree, loaded.data, Y, Z),
        }
        report["stats"] = pio.stats_payload(None)
        return report, EXIT_SOLVED

    if loaded.kind in ("linear", "special"):
        result = linear.solve_linear(tree, loaded.data, loaded.x0)
        report["certificate"] = pio.certificate_payload(tree, result.riccati)
        if isinstance(result, linear.Unsolvable):
            report["status"] = "unsolvable"
            report["solution"] = None
            report["residuals"] = None
            report["stats"] = pio.stats_payload(None)
            return report, EXIT_UNSOLVABLE
        report["status"] = "solved"
        report["solution"] = pio.solution_payload(tree, result)
        report["residuals"] = {
            "forward": result.residuals.forward,
            "backward": result.residuals.backward,
        }
        report["stats"] = pio.stats_payload(None)
        return report, EXIT_SOLVED

    # nonlinear
    solver = (
        nonlinear.solve_flat_picard if loaded.mode == "picard" else nonlinear.solve_continuation
    )
    report["certificate"] = None
    try:
        sol, stats = solver(tree, loaded.data, loaded.x0, loaded.options)
    except (NoContraction, NonFiniteIterate, StepUnderflow) as err:
        report["status"] = "no_convergence"
        report["solution"] = None
        report["residuals"] = None
        report["stats"] = pio.stats_payload(None)
        report["error"] = str(err)
        best = getattr(err, "best_residual", None)
        if best is not None:
            report["best_residual"] = best
        return report, EXIT_NO_CONVERGENCE
    report["status"] = "solved"
    report["solution"] = pio.solution_payload(tree, sol)
    report["residuals"] = {
        "forward": sol.residuals.forward,
        "backward": sol.residuals.backward,
    }
    report["stats"] = pio.stats_payload(stats)
    return report, EXIT_SOLVED


def _oracle_loaded(loaded: pio.LoadedProblem):
    tree = loaded.tree
    report = {"kind": loaded.kind, "constants": pio.constants_payload(tree)}
    if loaded.kind == "bsde":
        raise SchemaError("kind", "no reference solver is defined for backward-only problems")
    if loaded.kind in ("linear", "special"):
        verdict = oracle.linear_oracle(tree, loaded.data, loaded.x0)
        report["certificate"] = None
        if isinstance(verdict, oracle.UniqueSolution):
            report["status"] = "solved"
            report["rank"] = {"rank": verdict.rank, "size": verdict.size}
            report["solution"] = pio.solution_payload(tree, verdict.solution)
            report["residuals"] = {
                "forward": verdict.solution.residuals.forward,
                "backward": verdict.solution.residuals.backward,
            }
            report["stats"] = pio.stats_payload(None)
            return report, EXIT_SOLVED
        report["solution"] = None
        report["residuals"] = None
        report["stats"] = pio.stats_payload(None)
        if isinstance(verdict, oracle.NoSolution):
            report["status"] = "no_solution"
            report["rank"] = {
                "rank": verdict.rank,
                "size": verdict.size,
                "inconsistency": verdict.inconsistency,
            }
        else:
            report["status"] = "infinitely_many"
            report["rank"] = {
                "rank": verdict.rank,
                "size": verdict.size,
                "nullity": verdict.nullity,
            }
        return report, EXIT_UNSOLVABLE
    # nonlinear
    nopts = oracle.NewtonOptions(tolerance=loaded.options.tolerance, seed=loaded.seed)
    report["certificate"] = None
    try:
        sol = oracle.solve_oracle(tree, loaded.data, loaded.x0, nopts)
    except NoConvergence as err:
        report["status"] = "no_convergence"
        report["solution"] = None
        report["residuals"] = None
        report["stats"] = pio.stats_payload(None)
        report["error"] = str(err)
        report["best_residual"] = err.best_residual
        return report, EXIT_NO_CONVERGENCE
    report["status"] = "solved"
    report["solution"] = pio.solution_payload(tree, sol)
    report["residuals"] = {
        "forward": sol.residuals.forward,
        "backward": sol.residuals.backward,
    }
    report["stats"] = pio.stats_payload(None)
    return report, EXIT_SOLVED


def _estimate(est):
    if est is None:
        return None
    return est.value


def _check_loaded(loaded: pio.LoadedProblem):
    tree = loaded.tree
    report = {"kind": loaded.kind, "constants": pio.constants_payload(tree)}
    if loaded.kind in ("linear", "special"):
        ric = linear.riccati_backward(tree, loaded.data)
        report["certificate"] = pio.certificate_payload(tree, ric)
        ok = ric.certificate.all_invertible
        report["status"] = "satisfied" if ok else "violated"
        return report, EXIT_SOLVED if ok else EXIT_UNSOLVABLE
    if loaded.kind == "bsde":
        report["status"] = "satisfied"
        report["certificate"] = None
        return report, EXIT_SOLVED
    diag = nonlinear.check_assumptions(
        tree, loaded.data, sample_count=200, rng_seed=loaded.seed
    )
    report["certificate"] = None
    report["diagnostics"] = {
        "lipschitz": _estimate(diag.lipschitz),
        "lipschitz_terminal": _estimate(diag.lipschitz_terminal),
        "lipschitz_generator_T": _estimate(diag.lipschitz_generator_T),
        "monotone_interior": _estimate(diag.monotone_interior),
        "monotone_initial": _estimate(diag.monotone_initial),
        "monotone_generator_T": _estimate(diag.monotone_generator_T),
        "monotone_terminal": _estimate(diag.monotone_terminal),
        "violations": [name for name, _ in diag.violations],
    }
    report["status"] = "satisfied" if diag.satisfied else "violated"
    return report, EXIT_SOLVED if diag.satisfied else EXIT_UNSOLVABLE


def run_cli(argv=None) -> int:
    """Entry point used by tests; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            doc = DEMOS[args.name]
            loaded = pio.bind_problem(doc)
        else:
            loaded = pio.load_problem(args.file)
        loaded = _merge_options(loaded, args)
        if args.command in ("solve", "demo"):
            report, code = _solve_loaded(loaded)
        elif args.command == "oracle":
            report, code = _oracle_loaded(loaded)
        else:
            report, code = _check_loaded(loaded)
        _report_out(args, loaded, report)
        return code
    except (OSError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except FbsdeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def main():  # pragma: no cover - thin wrapper
    sys.exit(run_cli())
