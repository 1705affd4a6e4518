"""The benchmark's tracer patches lvie functions by name; they must exist.

``bench/tracing.py`` swaps traced wrappers into the lvie module namespaces
(``_compose``, ``kernel_table``, ``resolvent_table``, ``gauss_jordan``,
``rank_and_det``, ...).  Renaming or removing one of them should fail
here, not as a ``KeyError`` in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lvie.assembly import CollocationSystem
from lvie.config import load_problem_config
from lvie.problems import builtin_problem

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
RESOLVENT_MODULE = importlib.import_module("lvie.resolvent")
STUDY_MODULE = importlib.import_module("lvie.study")
SQRT_LADDER = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "sqrt_ladder.cfg"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("lvie_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_instrument_enters_and_restores(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    originals = {
        name: getattr(RESOLVENT_MODULE, name)
        for name in ("_compose", "gauss_jordan", "rank_and_det", "classify")
    }
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert RESOLVENT_MODULE.classify is not originals["classify"]
        p = builtin_problem("model1")
        cfg = RESOLVENT_MODULE.ResolventApprox(p, quad_density=16)
        RESOLVENT_MODULE.classify(p, cfg, 0.25)
        RESOLVENT_MODULE.resolvent(p, 0.5, 0.25, cfg, lam=0.25)
    for name, original in originals.items():
        assert getattr(RESOLVENT_MODULE, name) is original
    assert tracer.names[0] == "resolvent.ResolventApprox"
    for name in ("resolvent.classify", "solvers.rank_and_det", "resolvent.resolvent_table",
                 "resolvent.kernel_table", "resolvent.compose"):
        assert name in tracer.names
    assert np.all(np.isfinite(tracer.ends))


@pytest.mark.parametrize("name", ["model1", "sqrt_ladder"])
def test_instrumented_structured_solve(monkeypatch, name):
    # ``row_weights`` stays patchable, but the solve no longer calls it.
    tracing = _load_tracing(monkeypatch)
    problem = builtin_problem(name) if name == "model1" else load_problem_config(SQRT_LADDER)
    originals = {attr: getattr(STUDY_MODULE, attr) for attr in ("solve_collocation", "structured_solve")}
    row_weights = CollocationSystem.__dict__["row_weights"]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert CollocationSystem.__dict__["row_weights"] is not row_weights
        STUDY_MODULE.solve_collocation(problem, Fraction(1, 64))
    for attr, original in originals.items():
        assert getattr(STUDY_MODULE, attr) is original
    assert CollocationSystem.__dict__["row_weights"] is row_weights
    assert "solvers.structured_solve" in tracer.names
    assert tracer.names.count("assembly.row_weights") == 0
    assert np.all(np.isfinite(tracer.ends))
