"""Command-line front end: solve, study, analyze, list-problems.

Steps are written as exact rationals on the command line ("1/32"), and
all data outputs use fixed number formatting so identical invocations
produce identical bytes (pass --no-timing to drop the one wall-clock
column from study tables).  Exit code 0 on success, 1 on any user or
runtime error, always with a message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from .config import load_problem_config
from .problems import builtin_names, builtin_problem, validate_problem
from .resolvent import ResolventApprox, solvability_sweep, sweep_csv
from .study import emit, run_study, solve_collocation, sup_error

__all__ = ["main"]


class CliError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise CliError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not a rational number: {text!r}") from None


def _positive_step(text: str, name: str) -> Fraction:
    value = _parse_rational(text)
    if value <= 0:
        raise CliError(f"{name} must be positive")
    return value


def _load_problem(ns):
    if getattr(ns, "builtin", None):
        problem = builtin_problem(ns.builtin)
    else:
        try:
            problem = load_problem_config(ns.config)
        except OSError as err:
            raise CliError(f"cannot read problem file: {err}") from None
    report = validate_problem(problem)
    if not report:
        raise CliError(f"invalid problem: {report.violation}")
    return problem


def _write_output(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_problem_source(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME", help="built-in problem name")
    group.add_argument("--config", metavar="PATH", help="problem definition file")


def _cmd_solve(ns) -> int:
    problem = _load_problem(ns)
    h = _positive_step(ns.h, "h")
    sol = solve_collocation(problem, h, solver=ns.solver)
    lines = ["t,x"]
    for t, x in zip(sol.grid.nodes, sol.values):
        lines.append(f"{t:.12E},{x:.12E}")
    _write_output("\n".join(lines) + "\n", ns.out)
    if problem.exact is not None:
        eps = sup_error(sol, problem.exact)
        print(f"eps = {eps:.5E}")
    return 0


def _cmd_study(ns) -> int:
    problem = _load_problem(ns)
    h0 = _positive_step(ns.h0, "h0")
    if ns.levels < 1:
        raise CliError("levels must be at least 1")
    rows = run_study(
        problem,
        h0,
        ns.levels,
        solver=ns.solver,
        samples_per_interval=ns.samples_per_interval,
    )
    _write_output(emit(rows, ns.format, include_timing=not ns.no_timing), ns.out)
    return 0


def _cmd_analyze(ns) -> int:
    problem = _load_problem(ns)
    if ns.lam is not None:
        lambdas = [ns.lam]
    elif ns.lambda_from is not None or ns.lambda_to is not None:
        if ns.lambda_from is None or ns.lambda_to is None or ns.steps is None:
            raise CliError("sweep needs --lambda-from, --lambda-to, and --steps")
        if ns.steps < 1:
            raise CliError("steps must be at least 1")
        lambdas = list(np.linspace(ns.lambda_from, ns.lambda_to, ns.steps))
    else:
        lambdas = [problem.lam]
    cfg = ResolventApprox(problem, quad_density=ns.density)
    reports = solvability_sweep(problem, lambdas, cfg, tol=ns.tol)
    _write_output(sweep_csv(reports), ns.out)
    return 0


def _cmd_list_problems(ns) -> int:
    for name, description in builtin_names():
        print(f"{name}: {description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lvie",
        description="Solve and analyze loaded Volterra integral equations "
        "of the second kind by piecewise-linear collocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve once and write t,x values")
    _add_problem_source(p_solve)
    p_solve.add_argument("--h", required=True, help="sampling step, e.g. 1/32")
    p_solve.add_argument(
        "--solver", choices=["dense", "structured"], default="structured"
    )
    p_solve.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p_solve.set_defaults(func=_cmd_solve)

    p_study = sub.add_parser("study", help="convergence study over halved steps")
    _add_problem_source(p_study)
    p_study.add_argument("--h0", required=True, help="coarsest step, e.g. 1/8")
    p_study.add_argument("--levels", type=int, required=True)
    p_study.add_argument(
        "--solver", choices=["dense", "structured"], default="structured"
    )
    p_study.add_argument(
        "--format", choices=["csv", "md", "plotdata"], default="csv"
    )
    p_study.add_argument("--samples-per-interval", type=int, default=1)
    p_study.add_argument(
        "--no-timing", action="store_true", help="omit the wall-time column"
    )
    p_study.add_argument("--out", metavar="PATH")
    p_study.set_defaults(func=_cmd_study)

    p_an = sub.add_parser("analyze", help="solvability classification over lambda")
    _add_problem_source(p_an)
    p_an.add_argument("--lambda", dest="lam", type=float, default=None)
    p_an.add_argument("--lambda-from", dest="lambda_from", type=float, default=None)
    p_an.add_argument("--lambda-to", dest="lambda_to", type=float, default=None)
    p_an.add_argument("--steps", type=int, default=None)
    p_an.add_argument("--density", type=int, default=512, help="quadrature density")
    p_an.add_argument("--tol", type=float, default=1e-10, help="rank tolerance")
    p_an.add_argument("--out", metavar="PATH")
    p_an.set_defaults(func=_cmd_analyze)

    p_list = sub.add_parser("list-problems", help="names of built-in problems")
    p_list.set_defaults(func=_cmd_list_problems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 -- CLI boundary: report, never abort
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
