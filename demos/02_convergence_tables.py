"""Reproduce the benchmark convergence tables.

Halving the step h six times from 1/8 shows the expected second-order
decay of the sup-norm error for both benchmark problems:  the ratio of
successive errors approaches 4, i.e. the empirical order r approaches 2.

The dense Gauss-Jordan solver carries the first six levels; the
structured solver (blocked forward substitution plus a small load
solve, with the weights recomputed panel by panel) extends the ladder to
h = 1/16384, where the error reaches the 1e-10 range.
"""

import time
from fractions import Fraction

import numpy as np

from lvie import builtin_problem, emit, run_study

for name in ("model1", "model2"):
    p = builtin_problem(name)
    print(f"=== {name} (exact solution {p.exact.source}) ===\n")

    rows = run_study(p, Fraction(1, 8), 6, solver="dense")
    print(emit(rows, "md"))

    start = time.perf_counter()
    deep = run_study(p, Fraction(1, 8), 12, solver="structured")
    elapsed = time.perf_counter() - start
    print(f"deep ladder (structured solver, {elapsed:.1f}s):\n")
    print(emit(deep[6:], "md"))

    # Least-squares slope over the fine levels confirms O(h^2).
    fine = [(float(r.h), r.eps) for r in deep if float(r.h) <= 1 / 64]
    slope = np.polyfit(np.log([f[0] for f in fine]),
                       np.log([f[1] for f in fine]), 1)[0]
    print(f"log-log slope over h <= 1/64: {slope:.3f}\n")

# Plot data for external tooling: two columns, ln h and ln eps.
rows = run_study(builtin_problem("model1"), Fraction(1, 8), 8, solver="structured")
print("plot data (ln h, ln eps) for model1:")
print(emit(rows, "plotdata"))
