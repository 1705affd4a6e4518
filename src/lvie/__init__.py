"""Solver toolkit for linear loaded Volterra integral equations.

Loaded (frozen-argument) Volterra equations of the second kind couple
the unknown function to its values at fixed interior points:

    a0(t) x(t) + sum_j a_j(t) x(t_j) = lam * int_{t0}^{t} K(t,s) x(s) ds + f(t).

The package provides:

* a problem data model with a small expression language for config
  files and two built-in benchmark problems,
* load-aligned meshes and piecewise-linear collocation with product
  midpoint quadrature (second-order accurate),
* a dense Gauss-Jordan reference solver plus a fast structured solver
  exploiting the triangular-plus-load-columns matrix shape,
* resolvent-series machinery that classifies solvability (unique
  solution, parametric family, or none) and solves semi-analytically,
* a convergence-study harness emitting CSV/markdown/plot data, and a
  CLI (``lvie``) binding it all together.
"""

from .assembly import AssemblyError, CollocationSystem, assemble, structured_solve
from .config import ConfigError, load_problem_config, parse_problem_config
from .expressions import EvalError, ParseError, evaluate, parse
from .grid import Grid, build_grid
from .problems import (
    LoadTerm,
    Problem,
    ScalarFunction,
    ValidationReport,
    builtin_names,
    builtin_problem,
    validate_problem,
)
from .resolvent import (
    ResolventApprox,
    SolvabilityReport,
    TruncationWarning,
    classify,
    iterated_kernel,
    load_matrix,
    reduced_coeffs,
    resolvent,
    semi_analytic_solve,
    solvability_sweep,
    sweep_csv,
)
from .solvers import RankReport, SingularMatrixError, SolvabilityError, gauss_jordan, rank_and_det
from .study import (
    PiecewiseLinearSolution,
    StudyError,
    StudyRow,
    convergence_order,
    emit,
    run_study,
    solve_collocation,
    sup_error,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "CollocationSystem",
    "ConfigError",
    "EvalError",
    "Grid",
    "LoadTerm",
    "ParseError",
    "PiecewiseLinearSolution",
    "Problem",
    "RankReport",
    "ResolventApprox",
    "ScalarFunction",
    "SingularMatrixError",
    "SolvabilityError",
    "SolvabilityReport",
    "StudyError",
    "StudyRow",
    "TruncationWarning",
    "ValidationReport",
    "assemble",
    "build_grid",
    "builtin_names",
    "builtin_problem",
    "classify",
    "convergence_order",
    "emit",
    "evaluate",
    "gauss_jordan",
    "iterated_kernel",
    "load_matrix",
    "load_problem_config",
    "parse",
    "parse_problem_config",
    "rank_and_det",
    "reduced_coeffs",
    "resolvent",
    "run_study",
    "semi_analytic_solve",
    "solvability_sweep",
    "solve_collocation",
    "structured_solve",
    "sup_error",
    "sweep_csv",
    "validate_problem",
]
