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

Every name in ``__all__`` is loaded on first use (PEP 562): ``import
lvie`` runs no submodule, and ``lvie.validate_problem`` imports
``lvie.problems`` and what it imports, not the collocation or resolvent
layers.  A submodule name (``lvie.study``) imports that submodule.
``lvie.resolvent`` is always the function ``resolvent.resolvent``, never
its submodule: importing the submodule by name (``import lvie.resolvent``,
``importlib.import_module("lvie.resolvent")``) binds the function on the
package where the import system would bind the module.
"""

import importlib
import sys
import types

# Each exported name, once, under the submodule that defines it.
_EXPORTS = {
    "assembly": ("AssemblyError", "CollocationSystem", "assemble", "structured_solve"),
    "config": ("ConfigError", "load_problem_config", "parse_problem_config"),
    "expressions": ("EvalError", "ParseError", "evaluate", "parse"),
    "grid": ("Grid", "build_grid"),
    "problems": (
        "LoadTerm",
        "Problem",
        "ScalarFunction",
        "ValidationReport",
        "builtin_names",
        "builtin_problem",
        "validate_problem",
    ),
    "resolvent": (
        "ResolventApprox",
        "SolvabilityReport",
        "TruncationWarning",
        "classify",
        "iterated_kernel",
        "load_matrix",
        "reduced_coeffs",
        "resolvent",
        "semi_analytic_solve",
        "solvability_sweep",
        "sweep_csv",
    ),
    "solvers": ("RankReport", "SingularMatrixError", "SolvabilityError", "gauss_jordan", "rank_and_det"),
    "study": (
        "PiecewiseLinearSolution",
        "StudyError",
        "StudyRow",
        "convergence_order",
        "emit",
        "run_study",
        "solve_collocation",
        "sup_error",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        if name == "resolvent" and isinstance(value, types.ModuleType):
            value = value.resolvent  # the import system binding the submodule
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
