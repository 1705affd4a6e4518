import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvie

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# Demo 02 (2.3-3.5 s on two cores) runs the convergence ladders that the
# acceptance criteria already pin; the tier-1 workflow runs it after the tests.
@pytest.mark.parametrize(
    "script",
    ["01_solve_builtin_problem.py", "03_solvability_analysis.py", "04_custom_problem_file.py"],
)
def test_demo_runs(script):
    # The child process imports the same lvie tree as this test session, and fails on an escaped
    # RuntimeWarning or DeprecationWarning, as the tests themselves do (pyproject.toml).
    src = str(Path(lvie.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", str(DEMOS / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
