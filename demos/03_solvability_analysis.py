"""Solvability analysis through the resolvent series.

Summing the iterated-kernel series gives the resolvent of the pure
Volterra part; applying it reduces the loaded equation to a small
linear system in the load values x(t_j).  The rank of that system
decides everything:

* full rank            -> unique solution (and we can evaluate it),
* deficient, consistent -> a family with (loads - rank) free parameters,
* deficient, inconsistent -> no solution at all.
"""

import numpy as np

from lvie import (
    LoadTerm,
    Problem,
    ResolventApprox,
    ScalarFunction,
    builtin_problem,
    classify,
    iterated_kernel,
    load_matrix,
    resolvent,
    semi_analytic_solve,
    solvability_sweep,
    sweep_csv,
)

# --- Resolvent of the unit kernel has the closed form lam e^{lam (t-s)}.
p_unit = Problem(
    t0=0.0, T=1.0, lam=1.0, loads=(),
    a0=ScalarFunction.constant(1.0),
    kernel=ScalarFunction.constant(1.0, arity=2),
    rhs=ScalarFunction.constant(1.0),
)
print("iterated kernels of K == 1 at (t,s) = (1,0):  "
      + ", ".join(f"K_{n}={iterated_kernel(p_unit, n, 1.0, 0.0):.4f}"
                  for n in range(1, 5)))
cfg = ResolventApprox(p_unit)
print(f"R(1, 0, 1) = {resolvent(p_unit, 1.0, 0.0, cfg, lam=1.0):.8f}   (e = {np.e:.8f})\n")

# --- Both benchmark problems are uniquely solvable at their lam.
for name in ("model1", "model2"):
    p = builtin_problem(name)
    report = classify(p)
    print(f"{name}: {report.label}, det = {report.det:.4f}, "
          f"load values = {np.round(report.load_values, 6)}")
print("   (model1 exact loads: cos(0.3), cos(0.5) ="
      f" {np.cos(0.3):.6f}, {np.cos(0.5):.6f})\n")

# --- The semi-analytic solution agrees with the collocation solver.
p1 = builtin_problem("model1")
ts = np.linspace(0.0, 1.0, 9)
semi = semi_analytic_solve(p1, ts)
print("semi-analytic x(t) vs exact cos(t):")
print("  x:    ", np.round(semi, 6))
print("  exact:", np.round(np.cos(ts), 6), "\n")

# --- A lambda sweep reports the classification per lambda as CSV.
print(sweep_csv(solvability_sweep(p1, np.linspace(0.0, 1.0, 5))))

# --- Constructed degenerate cases: one load with coefficient -1 makes
# the 1x1 load system 0 * c = f(t_1).
def one_load(rhs_value):
    return Problem(
        t0=0.0, T=1.0, lam=0.0,
        loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),),
        a0=ScalarFunction.constant(1.0),
        kernel=ScalarFunction.constant(1.0, arity=2),
        rhs=ScalarFunction.constant(rhs_value),
    )

homogeneous = classify(one_load(0.0))
inconsistent = classify(one_load(1.0))
print(f"0*c = 0 -> {homogeneous.label}")
print(f"0*c = 1 -> {inconsistent.label} "
      f"(orthogonality defect {inconsistent.orthogonality_defect:.2f})")

A, d = load_matrix(one_load(1.0))
print(f"load matrix A = {A.tolist()}, right-hand side d = {d.tolist()}")
