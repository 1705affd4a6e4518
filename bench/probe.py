"""Set-up probe, run in a fresh interpreter; prints the seconds it measured.

    probe.py builtin NAME     import lvie, build and validate a built-in problem
    probe.py config PATH      import lvie, parse and validate a problem file
    probe.py import-cli       import lvie.cli
"""

import sys
import time

start = time.perf_counter()

if sys.argv[1:] == ["import-cli"]:
    import lvie.cli  # noqa: F401
else:
    import lvie

    kind, arg = sys.argv[1:3]
    if kind == "builtin":
        problem = lvie.builtin_problem(arg)
    elif kind == "config":
        problem = lvie.load_problem_config(arg)
    else:
        sys.exit(f"unknown probe kind {kind!r}")
    report = lvie.validate_problem(problem)
    if not report:
        sys.exit(f"invalid problem: {report.violation}")

print(repr(time.perf_counter() - start))
