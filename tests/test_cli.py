import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lvie
from lvie.cli import main
from lvie.resolvent import ResolventApprox

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


def test_solve_names_the_row_where_the_solution_overflows(tmp_path, capsys):
    cfg = tmp_path / "growing.cfg"
    cfg.write_text(CONFIG.replace("lambda = 0.0", "lambda = 1000"))  # x grows like exp(1000 t)
    code = main(["solve", "--config", str(cfg), "--h", "1/1024"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solution overflows at row 641, t=0.625366\n"


def test_study_misplaced_load_names_the_points(tmp_path, capsys):
    cfg = tmp_path / "misplaced.cfg"
    cfg.write_text(CONFIG + 'load = { point = 0.3, coeff = "1" }\nload = { point = 1.5, coeff = "t" }\n')
    code = main(["study", "--config", str(cfg), "--h0", "1/8", "--levels", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot place load points [0.3, 1.5]: load point 1.5 outside the open interval\n"


def test_solve_too_deep_formula_names_its_position(tmp_path, capsys):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(CONFIG.replace('kernel = "1"', 'kernel = "' + "-" * 5000 + 't"'))
    code = main(["solve", "--config", str(cfg), "--h", "1/8"])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad expression for 'kernel': expression nested deeper than 1000 levels at position 4000" in err
    assert "recursion" not in err


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


FIXTURES = Path(__file__).resolve().parent / "fixtures"
SQRT_LADDER = str(Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "sqrt_ladder.cfg")
SWEEP = ["--lambda-from", "-10", "--lambda-to", "10", "--steps", "41"]
# analyze_<name>.stdout holds the stdout of ``lvie analyze ARGS``, written before the load
# system was restricted to the nodes interpolation reads; every later change keeps the bytes.
GOLDEN_ANALYZE = {
    "model1": ["--builtin", "model1"],
    "model2": ["--builtin", "model2"],
    "model1_sweep": ["--builtin", "model1", *SWEEP],
    "model2_sweep": ["--builtin", "model2", *SWEEP],
    "model1_lambda50": ["--builtin", "model1", "--lambda", "50"],
    "sqrt_ladder": ["--config", SQRT_LADDER],
    "sqrt_ladder_sweep": ["--config", SQRT_LADDER, "--density", "64",
                          "--lambda-from", "-4", "--lambda-to", "4", "--steps", "9"],
    "family": ["--config", str(FIXTURES / "family.cfg"), "--density", "64"],
    "no_solution": ["--config", str(FIXTURES / "no_solution.cfg"), "--density", "64"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_analyze_stdout_matches_golden(capsys, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # model1 at lambda 50 is truncated
        assert main(["analyze", *GOLDEN_ANALYZE[name]]) == 0
    golden = (FIXTURES / f"analyze_{name}.stdout").read_bytes()
    assert capsys.readouterr().out.encode() == golden


# study_<name>.stdout holds the stdout of ``lvie study --builtin NAME --h0 1/8 --levels 10
# --no-timing``, written while lag systems and all others had separate substitution loops.
@pytest.mark.parametrize("name", ["model1", "model2"])
def test_study_stdout_matches_golden(capsys, name):
    argv = ["study", "--builtin", name, "--h0", "1/8", "--levels", "10", "--no-timing"]
    assert main(argv) == 0
    golden = (FIXTURES / f"study_{name}.stdout").read_bytes()
    assert capsys.readouterr().out.encode() == golden


# study_dense_<name>.stdout holds the stdout of ``lvie study --builtin NAME --h0 1/8 --levels 7
# --solver dense --no-timing``, written while the elimination updated every row at every step.
@pytest.mark.parametrize("name", ["model1", "model2"])
def test_dense_study_stdout_matches_golden(capsys, name):
    argv = ["study", "--builtin", name, "--h0", "1/8", "--levels", "7", "--solver", "dense", "--no-timing"]
    assert main(argv) == 0
    golden = (FIXTURES / f"study_dense_{name}.stdout").read_bytes()
    assert capsys.readouterr().out.encode() == golden
    if name == "model2":  # the benchmark's cli-study-dense checks the same bytes
        assert golden == Path(SQRT_LADDER).with_name("cli_study_dense.stdout").read_bytes()


def test_study_reads_builtins_through_the_module_global(capsys, monkeypatch):
    # Traced benchmark runs patch lvie.cli.builtin_problem to count kernel calls.
    import lvie.cli

    asked = []
    original = lvie.cli.builtin_problem
    monkeypatch.setattr(lvie.cli, "builtin_problem", lambda name: asked.append(name) or original("model1"))
    argv = ["study", "--builtin", "model2", "--h0", "1/8", "--levels", "7", "--solver", "dense", "--no-timing"]
    assert main(argv) == 0
    assert asked == ["model2"]
    assert capsys.readouterr().out.encode() == (FIXTURES / "study_dense_model1.stdout").read_bytes()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_analyze_non_finite_lambda(capsys, monkeypatch, lam):
    built = []
    monkeypatch.setattr(ResolventApprox, "__init__", lambda self, *a, **k: built.append(a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "--builtin", "model1", f"--lambda={lam}", "--density", "64"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lambda must be finite, got {float(lam)}\n"
    assert caught == []
    assert built == []  # refused before any table


@pytest.mark.parametrize("lam", ["1e8", "-1e8"])
def test_analyze_overflowing_lambda(capsys, lam):
    code = main(["analyze", "--builtin", "model1", "--lambda", lam, "--density", "16"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lambda too large, got {float(lam)}: its powers overflow a float\n"


@pytest.mark.parametrize("value", ["-1e-1", "-1E+3"])
@pytest.mark.parametrize("option", ["--lambda", "--lambda-from", "--lambda-to"])
def test_analyze_negative_exponent_value(capsys, option, value):
    # "--opt -1e-1" must read exactly like "--opt=-1e-1", not as a flag.
    base = ["analyze", "--builtin", "model1", "--density", "16"]
    if option != "--lambda":
        base += ["--lambda-from", "0", "--lambda-to", "0", "--steps", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lam = -1000 truncates the series
        assert main(base + [f"{option}={value}"]) == 0
        joined = capsys.readouterr()
        assert main(base + [option, value]) == 0
    assert capsys.readouterr() == joined


@pytest.mark.parametrize("option", ["--lambda", "--lambda-from", "--lambda-to"])
def test_analyze_negative_infinity_value(capsys, option):
    argv = ["analyze", "--builtin", "model1", "--density", "16"]
    if option != "--lambda":
        argv += ["--lambda-from", "0", "--lambda-to", "0", "--steps", "41"]
    argv += [option, "-inf"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lambda must be finite, got -inf\n"
    assert caught == []


@pytest.mark.parametrize(
    "argv, name",
    [
        (["study", "--builtin", "model1", "--h0", "-1/8", "--levels", "2"], "h0"),
        (["solve", "--builtin", "model1", "--h", "-1/8"], "h"),
    ],
)
def test_negative_rational_step(capsys, argv, name):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {name} must be positive\n"


def test_step_must_be_rational(capsys):
    assert main(["solve", "--builtin", "model1", "--h", "abc"]) == 1
    assert capsys.readouterr().err == "error: not a rational number: 'abc'\n"


def test_study_plotdata_refuses_zero_error(tmp_path, capsys):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(CONFIG.replace('"cos(t)"', '"1+2*t"').replace('kernel = "1"', 'kernel = "0"'))
    argv = ["study", "--config", str(cfg), "--h0", "1/8", "--levels", "3"]
    assert main(argv + ["--no-timing"]) == 0
    assert capsys.readouterr().out.count(",0.00000E+00,") == 3
    assert main(argv + ["--format", "plotdata"]) == 1
    assert capsys.readouterr().err == "error: plot data needs eps > 0; eps is 0.00000E+00 at h=1/8\n"


def test_analyze_sweep_needs_a_step(capsys):
    argv = ["analyze", "--builtin", "model1", "--lambda-from", "0", "--lambda-to", "1", "--steps", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: steps must be at least 1\n"


def test_analyze_incomplete_sweep(capsys):
    code = main(["analyze", "--builtin", "model1", "--lambda-from", "0"])
    assert code == 1
    assert "sweep needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--steps", "5"], "sweep needs --lambda-from, --lambda-to, and --steps"),
        (["--lambda-to", "1", "--steps", "5"], "sweep needs --lambda-from, --lambda-to, and --steps"),
        (
            ["--lambda", "0.5", "--lambda-from", "0", "--lambda-to", "1", "--steps", "5"],
            "--lambda cannot be combined with --lambda-from, --lambda-to or --steps",
        ),
        (["--lambda", "0.5", "--steps", "5"], "--lambda cannot be combined with --lambda-from, --lambda-to or --steps"),
    ],
    ids=["steps-alone", "no-lambda-from", "lambda-and-sweep", "lambda-and-steps"],
)
def test_analyze_refuses_options_it_would_ignore(capsys, options, message):
    assert main(["analyze", "--builtin", "model1", "--density", "16", *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_analyze_has_no_tol_flag(capsys):
    code = main(["analyze", "--builtin", "model1", "--tol", "1e-8"])
    assert code == 1
    assert "--tol" in capsys.readouterr().err


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


def test_analyze_refuses_a_table_past_the_node_limit(capsys):
    sqrt_ladder = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "sqrt_ladder.cfg"
    code = main(["analyze", "--config", str(sqrt_ladder), "--density", "20000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "quad_density 20000" in err and "3200 MB" in err


def test_analyze_names_the_point_of_a_domain_error(tmp_path, capsys):
    sqrt_ladder = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "sqrt_ladder.cfg"
    cfg = tmp_path / "ln.cfg"
    cfg.write_text(sqrt_ladder.read_text().replace('coeff = "t" }', 'coeff = "ln(t-0.7)" }'))
    code = main(["analyze", "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err == "error: invalid problem: a1 not evaluable: ln of a non-positive value at t=0\n"


def test_list_problems(capsys):
    code = main(["list-problems"])
    assert code == 0
    out = capsys.readouterr().out
    assert "model1" in out and "model2" in out


def test_unknown_builtin(capsys):
    code = main(["solve", "--builtin", "model3", "--h", "1/8"])
    assert code == 1
    assert "no such builtin" in capsys.readouterr().err


def test_help_is_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lvie")


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
