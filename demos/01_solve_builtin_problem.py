"""Solve a built-in benchmark problem and inspect the solution.

The first benchmark couples x(t) to its values at t=0.3 and t=0.5:

    (t^2+1) x(t) + (1-t^3) x(0.3) + (t-2) x(0.5)
        = (1/4) int_0^t (t - 2 s^2) x(s) ds + f(t),

with f chosen so that x(t) = cos(t).  We solve by piecewise-linear
collocation and compare against the known solution.
"""

from fractions import Fraction

import numpy as np

from lvie import (
    assemble,
    build_grid,
    builtin_problem,
    solve_collocation,
    sup_error,
    validate_problem,
)

p = builtin_problem("model1")
print(f"problem: {p.name} on [{p.t0}, {p.T}], lam={p.lam}, "
      f"loads at {p.load_points.tolist()}")
print("validation:", "ok" if validate_problem(p) else "FAILED")

# The mesh aligns with the load points: both are nodes bit-for-bit.
h = Fraction(1, 32)
g = build_grid(p, h)
print(f"\nh = {h}: {g.n_nodes} nodes, per-segment counts {g.segment_counts}, "
      f"load nodes at indices {g.load_indices}")

sol = solve_collocation(p, h, solver="dense")
print(f"sup-norm error vs cos(t): {sup_error(sol, p.exact):.3E}")

# A few nodal values against the exact solution.
print("\n   t        x_N(t)       cos(t)       |diff|")
for k in range(0, g.n_nodes, 6):
    t = g.nodes[k]
    print(f"  {t:4.2f}  {sol.values[k]:+.8f}  {np.cos(t):+.8f}  "
          f"{abs(sol.values[k] - np.cos(t)):.2E}")

# The interpolant is evaluable anywhere, not just at nodes.
ts = np.linspace(0.0, 1.0, 7)
print("\ninterpolated off-node values:", np.round(sol(ts), 6))

# The discrete residual of the computed solution is at rounding level.
system = assemble(p, g, mode="dense")
print(f"collocation residual: {system.residual(sol.values):.2E}")

# The assembled matrix is lower triangular apart from the two load columns.
upper = [(i, j) for i in range(system.size) for j in range(i + 1, system.size)
         if system.matrix[i, j] != 0.0]
print(f"nonzero above the diagonal only in load columns: "
      f"{sorted(set(j for _, j in upper)) == list(system.load_columns)}")
