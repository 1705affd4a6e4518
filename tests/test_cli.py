import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lvie
from lvie.cli import main

CONFIG = """
t0     = 0.0
T      = 1.0
lambda = 0.0
a0     = "1"
kernel = "1"
f      = "cos(t)"
exact  = "cos(t)"
"""


def test_solve_builtin_writes_nodes(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(["solve", "--builtin", "model1", "--h", "1/32", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 1 + 35  # 35 nodes at h = 1/32 (N = 34)
    t, x = lines[1].split(",")
    assert float(t) == 0.0
    assert float(x) == pytest.approx(1.0, abs=1e-3)
    printed = capsys.readouterr().out
    assert "eps = 1.9" in printed and "E-05" in printed


def test_solve_reports_error_magnitude(capsys):
    code = main(["solve", "--builtin", "model1", "--h", "1/8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eps = 2.19" in out  # 2.1967e-4 at h = 1/8


def test_solve_zero_step_rejected(capsys):
    code = main(["solve", "--builtin", "model1", "--h", "0"])
    assert code == 1
    assert "h must be positive" in capsys.readouterr().err


def test_solve_rejects_auto_solver(capsys):
    code = main(["solve", "--builtin", "model1", "--h", "1/8", "--solver", "auto"])
    assert code == 1
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_solve_default_solver_is_structured(capsys):
    args = ["solve", "--builtin", "model2", "--h", "1/16"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--solver", "structured"]) == 0
    assert capsys.readouterr().out == default


def test_solve_missing_config(capsys):
    code = main(["solve", "--config", "missing.toml", "--h", "1/8"])
    assert code == 1
    assert "cannot read problem file" in capsys.readouterr().err


def test_solve_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CONFIG)
    code = main(["solve", "--config", str(cfg), "--h", "1/8"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("t,x")


def test_solve_invalid_problem(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace('a0     = "1"', 'a0     = "t-0.5"'))
    code = main(["solve", "--config", str(cfg), "--h", "1/8"])
    assert code == 1
    assert "a0 vanishes" in capsys.readouterr().err


def test_study_markdown(capsys):
    code = main(
        ["study", "--builtin", "model2", "--h0", "1/8", "--levels", "3",
         "--format", "md"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "| h | eps | r |"
    assert "| 1/32 |" in out
    assert "7.99E-04" in out


def test_study_single_level_no_order(capsys):
    code = main(["study", "--builtin", "model1", "--h0", "1/8", "--levels", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == ""


def test_study_rejects_bad_levels(capsys):
    code = main(["study", "--builtin", "model1", "--h0", "1/8", "--levels", "0"])
    assert code == 1
    assert "levels" in capsys.readouterr().err


def test_study_deterministic_without_timing(tmp_path):
    args = ["study", "--builtin", "model1", "--h0", "1/8", "--levels", "2",
            "--no-timing", "--out"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("builtin", ["model1", "model2"])
def test_study_default_solver_is_structured(builtin, capsys):
    args = ["study", "--builtin", builtin, "--h0", "1/8", "--levels", "3", "--no-timing"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--solver", "structured"]) == 0
    assert capsys.readouterr().out == default


def test_analyze_single_lambda(capsys):
    code = main(["analyze", "--builtin", "model1", "--lambda", "0.25"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,detA,rank,classification,orthogonality_defect"
    assert len(lines) == 2
    assert ",unique," in lines[1]
    assert lines[1].startswith("2.50000E-01")


def test_analyze_sweep_row_count(capsys):
    code = main(
        ["analyze", "--builtin", "model1", "--lambda-from", "0",
         "--lambda-to", "1", "--steps", "11", "--density", "64"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12


def test_analyze_incomplete_sweep(capsys):
    code = main(["analyze", "--builtin", "model1", "--lambda-from", "0"])
    assert code == 1
    assert "sweep needs" in capsys.readouterr().err


def test_analyze_defaults_to_problem_lambda(capsys):
    code = main(["analyze", "--builtin", "model2", "--density", "64"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith(f"{1 / 6:.5E}")


def test_analyze_constructed_singular_case(tmp_path, capsys):
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(
        CONFIG.replace('f      = "cos(t)"', 'f      = "0"')
        + 'load = { point = 0.5, coeff = "-1" }\n'
    )
    code = main(["analyze", "--config", str(cfg), "--density", "64"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "family(1)" in lines[1]


def test_list_problems(capsys):
    code = main(["list-problems"])
    assert code == 0
    out = capsys.readouterr().out
    assert "model1" in out and "model2" in out


def test_unknown_builtin(capsys):
    code = main(["solve", "--builtin", "model3", "--h", "1/8"])
    assert code == 1
    assert "no such builtin" in capsys.readouterr().err


def test_usage_error_is_exit_one(capsys):
    code = main(["solve", "--h", "1/8"])  # missing problem source
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_mutually_exclusive_sources(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CONFIG)
    code = main(["solve", "--builtin", "model1", "--config", str(cfg), "--h", "1/8"])
    assert code == 1


def test_console_entry_point():
    # The child process imports the same lvie tree as this test session.
    src = str(Path(lvie.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lvie.cli", "list-problems"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "model1" in proc.stdout
