"""The package surface: exports loaded on first use, and the layers each entry point loads."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lvie

SRC = Path(lvie.__file__).resolve().parents[1]
SQRT_LADDER = SRC.parent / "bench" / "fixtures" / "sqrt_ladder.cfg"


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter on this lvie tree; return what it prints as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'lvie')))"


def _loaded_after(code: str) -> set:
    return set(_fresh(code + LOADED))


class TestImportSets:
    def test_problem_file_loads_the_problem_layer_only(self):
        loaded = _loaded_after(
            "import lvie\n"
            f"report = lvie.validate_problem(lvie.load_problem_config({str(SQRT_LADDER)!r}))\n"
            "assert report, report.violation"
        )
        assert loaded == {"lvie", "lvie.config", "lvie.problems", "lvie.expressions"}

    def test_builtin_problem_loads_problems_and_expressions(self):
        loaded = _loaded_after("import lvie\nassert lvie.validate_problem(lvie.builtin_problem('model1'))")
        assert loaded == {"lvie", "lvie.problems", "lvie.expressions"}

    def test_cli_dense_study_loads_no_resolvent_or_config(self):
        loaded = _loaded_after(
            "import os, lvie.cli\n"
            "assert lvie.cli.main(['study', '--builtin', 'model2', '--h0', '1/8', '--levels', '2',"
            " '--solver', 'dense', '--no-timing', '--out', os.devnull]) == 0"
        )
        assert {"lvie.study", "lvie.assembly"} <= loaded
        assert not loaded & {"lvie.resolvent", "lvie.config"}

    def test_cli_analyze_loads_no_collocation(self):
        loaded = _loaded_after(
            "import os, lvie.cli\n"
            "assert lvie.cli.main(['analyze', '--builtin', 'model1', '--density', '64',"
            " '--out', os.devnull]) == 0"
        )
        assert "lvie.resolvent" in loaded
        assert not loaded & {"lvie.study", "lvie.assembly"}


class TestResolventName:
    """``lvie.resolvent`` is the function even after its submodule is imported by name."""

    @pytest.mark.parametrize(
        "statement", ["importlib.import_module('lvie.resolvent')", "import lvie.resolvent"]
    )
    def test_fresh_interpreter(self, statement):
        kind = _fresh(
            f"import importlib, json, lvie\n{statement}\n"
            "print(json.dumps(type(lvie.resolvent).__name__))"
        )
        assert kind == "function"

    def test_binding_the_submodule_binds_the_function(self, monkeypatch):
        module = importlib.import_module("lvie.resolvent")
        monkeypatch.setattr(lvie, "resolvent", module)  # what the import system does on a first import
        assert lvie.resolvent is module.resolvent
        assert isinstance(lvie.resolvent, types.FunctionType)


class TestExports:
    def test_every_export_resolves_and_is_listed(self):
        listed = dir(lvie)
        for name in lvie.__all__:
            assert getattr(lvie, name) is not None
            assert name in listed

    def test_first_use_imports_and_caches(self):
        module = importlib.import_module("lvie.resolvent")
        vars(lvie).pop("classify", None)
        assert lvie.classify is module.classify
        assert vars(lvie)["classify"] is module.classify

    def test_submodule_names_import_the_submodule(self):
        assert lvie.grid is importlib.import_module("lvie.grid")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            lvie.no_such_name

    def test_star_import(self):
        namespace = {}
        exec("from lvie import *", namespace)
        assert set(lvie.__all__) <= set(namespace)
        assert namespace["resolvent"] is lvie.resolvent
        assert isinstance(namespace["resolvent"], types.FunctionType)
