"""Spans around calls into the lvie modules, recorded from outside the package.

A :class:`Tracer` keeps every span in memory: its name, start, end, parent
span and a few counted attributes (points evaluated, rows solved, ...).
:func:`instrument` swaps traced wrappers into the lvie module namespaces
for the duration of a ``with`` block and restores the originals on exit,
so untraced operations always run the unmodified code.  The package
itself is never edited.

Span names are ``<module>.<function>``.  Self time is a span's duration
minus the time its direct children cover; the layer metrics and the
bookkeeping checks are computed from one operation's span tree by
:func:`layer_metrics` and :func:`bookkeeping`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time

import numpy as np


class Tracer:
    """In-memory span store; single-threaded, like the code it traces."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append({})
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.attrs[idx]
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, note=None):
        """``fn`` inside a span; ``note(attrs, result, *args)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.attrs[idx]["error"] = 1
                raise
            finally:
                self.end(idx)
            if note is not None:
                note(self.attrs[idx], result, *args)
            return result

        return traced

    def dump(self) -> dict:
        """All spans in a compact JSON-ready form, times relative to the first."""
        table = sorted(set(self.names))
        code = {name: k for k, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [code[name], round(start - origin, 9), round(end - origin, 9), parent, attrs]
            for name, start, end, parent, attrs in zip(
                self.names, self.starts, self.ends, self.parents, self.attrs
            )
        ]
        return {"names": table, "fields": ["name", "start", "end", "parent", "attrs"], "spans": spans}


def _counted_function(tracer: Tracer, fn, layer: str):
    """A ScalarFunction that records a span around each call of ``fn``."""
    from lvie.problems import ScalarFunction

    if fn.arity == 1:

        def one(t):
            with tracer.span(layer) as attrs:
                attrs["points"] = int(np.size(t))
                return fn(t)

        return ScalarFunction(one, 1, fn.source)

    def two(t, s):
        idx = tracer.begin(layer)
        attrs = tracer.attrs[idx]
        attrs["points"] = int(np.size(t))
        attrs["useful"] = int(np.count_nonzero(s <= t))
        try:
            return fn(t, s)
        except Exception:
            attrs["error"] = 1
            raise
        finally:
            tracer.end(idx)

    return ScalarFunction(two, 2, fn.source)


def counted_problem(tracer: Tracer, problem):
    """``problem`` with every coefficient function wrapped in a counting span.

    The kernel records ``problems.kernel``; a0, f, the load coefficients
    and the exact solution record ``problems.coeff``.
    """
    from lvie.problems import LoadTerm

    coeff = functools.partial(_counted_function, tracer, layer="problems.coeff")
    return dataclasses.replace(
        problem,
        a0=coeff(problem.a0),
        rhs=coeff(problem.rhs),
        kernel=_counted_function(tracer, problem.kernel, "problems.kernel"),
        exact=None if problem.exact is None else coeff(problem.exact),
        loads=tuple(LoadTerm(term.point, coeff(term.coeff)) for term in problem.loads),
    )


def _set(attrs, **values):
    attrs.update(values)


# (module, attribute, span name, note) for every module-level function that
# the lvie code calls through its own module globals.
def _function_targets():
    resolvent = importlib.import_module("lvie.resolvent")  # lvie.resolvent is a function
    solvers = importlib.import_module("lvie.solvers")
    study = importlib.import_module("lvie.study")

    gj_note = lambda attrs, x, a, b, *rest: _set(attrs, flops=2 * len(x) ** 3)
    return [
        (study, "solve_collocation", "study.solve_collocation",
         lambda attrs, sol, *a: _set(attrs, N=sol.grid.last_index)),
        (study, "sup_error", "study.sup_error", None),
        (study, "build_grid", "grid.build_grid",
         lambda attrs, g, *a: _set(attrs, nodes=g.n_nodes)),
        (study, "assemble", "assembly.assemble",
         lambda attrs, system, *a: _set(
             attrs,
             n=system.size,
             dense_bytes=0 if system.matrix is None else system.matrix.nbytes,
         )),
        (study, "structured_solve", "solvers.structured_solve",
         lambda attrs, x, system, *a: _set(
             attrs, rows=system.size * (1 + len(system.load_columns))
         )),
        (study, "gauss_jordan", "solvers.gauss_jordan", gj_note),
        (solvers, "gauss_jordan", "solvers.gauss_jordan", gj_note),
        (resolvent, "gauss_jordan", "solvers.gauss_jordan", gj_note),
        (resolvent, "rank_and_det", "solvers.rank_and_det", None),
        (resolvent, "_compose", "resolvent.compose",
         lambda attrs, table, *a: _set(attrs, flops=2 * table.shape[0] ** 3)),
        (resolvent, "load_matrix", "resolvent.load_matrix", None),
        (resolvent, "classify", "resolvent.classify", None),
        (resolvent, "semi_analytic_solve", "resolvent.semi_analytic_solve", None),
        (resolvent, "solvability_sweep", "resolvent.solvability_sweep", None),
        (study, "run_study", "study.run_study", None),
    ]


def _method_targets():
    from lvie.assembly import CollocationSystem
    from lvie.resolvent import ResolventApprox

    return [
        (CollocationSystem, "row_weights", "assembly.row_weights", None),
        (ResolventApprox, "__init__", "resolvent.ResolventApprox", None),
        (ResolventApprox, "kernel_table", "resolvent.kernel_table", None),
        (ResolventApprox, "terms_needed", "resolvent.terms_needed",
         lambda attrs, result, *a: _set(attrs, terms=result[0])),
        (ResolventApprox, "resolvent_table", "resolvent.resolvent_table", None),
        (ResolventApprox, "reduced_tables", "resolvent.reduced_tables", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the lvie module and method calls through ``tracer`` spans."""
    saved = []
    try:
        for owner, attr, name, note in _function_targets() + _method_targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- analysis


@dataclasses.dataclass
class SpanTree:
    """The spans of one operation, indexed for aggregation."""

    names: list[str]
    starts: np.ndarray
    ends: np.ndarray
    parents: np.ndarray  # -1 for the root
    attrs: list[dict]

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTree":
        """The tree of a tracer that recorded exactly one root span."""
        return cls(
            names=tracer.names,
            starts=np.array(tracer.starts),
            ends=np.array(tracer.ends),
            parents=np.array(tracer.parents),
            attrs=tracer.attrs,
        )

    @functools.cached_property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    @functools.cached_property
    def self_times(self) -> np.ndarray:
        covered = np.zeros(len(self.names))
        np.add.at(covered, self.parents[1:], self.durations[1:])
        return self.durations - covered

    @functools.cached_property
    def _by_name(self) -> dict[str, list[int]]:
        index: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            index.setdefault(name, []).append(i)
        return index

    def where(self, name: str) -> np.ndarray:
        mask = np.zeros(len(self.names), dtype=bool)
        mask[self._by_name.get(name, [])] = True
        return mask

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, []))

    def total(self, name: str) -> float:
        """Wall time inside ``name``, counting nested calls of it once."""
        mask = self.where(name)
        outer = mask.copy()
        for i in np.flatnonzero(mask):
            p = self.parents[i]
            while p >= 0:
                if mask[p]:
                    outer[i] = False
                    break
                p = self.parents[p]
        return float(self.durations[outer].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_times[self.where(name)].sum())

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(self.attrs[i].get(key, 0) for i in self._by_name.get(name, [])))

    def descendants(self, i: int) -> np.ndarray:
        """Indices of the spans inside span ``i`` (spans are in start order)."""
        j = i + 1
        while j < len(self.names) and self.starts[j] < self.ends[i]:
            j += 1
        return np.arange(i + 1, j)


def layer_metrics(tree: SpanTree) -> dict[str, float]:
    """Per-layer numbers of one operation (0 for layers that did not run)."""
    kernel_points = tree.attr_sum("problems.kernel", "points")
    solves = np.flatnonzero(tree.where("study.solve_collocation"))
    return {
        "problems.kernel.calls": tree.count("problems.kernel"),
        "problems.kernel.points": kernel_points,
        "problems.kernel.s": tree.total("problems.kernel"),
        "problems.kernel.errors": tree.attr_sum("problems.kernel", "error"),
        "problems.kernel.useful_frac": (
            tree.attr_sum("problems.kernel", "useful") / kernel_points if kernel_points else 0.0
        ),
        "problems.coeff.calls": tree.count("problems.coeff"),
        "problems.coeff.s": tree.total("problems.coeff"),
        "grid.build_grid.s": tree.total("grid.build_grid"),
        "grid.nodes": tree.attr_sum("grid.build_grid", "nodes"),
        "assembly.assemble.s": tree.total("assembly.assemble"),
        "assembly.assemble.dense_bytes": tree.attr_sum("assembly.assemble", "dense_bytes"),
        "assembly.row_weights.calls": tree.count("assembly.row_weights"),
        "assembly.row_weights.s": tree.total("assembly.row_weights"),
        "solvers.structured_solve.s": tree.total("solvers.structured_solve"),
        "solvers.structured_solve.self_s": tree.self_total("solvers.structured_solve"),
        "solvers.structured_solve.rows": tree.attr_sum("solvers.structured_solve", "rows"),
        "solvers.gauss_jordan.s": tree.total("solvers.gauss_jordan"),
        "solvers.gauss_jordan.calls": tree.count("solvers.gauss_jordan"),
        "solvers.gauss_jordan.flops": tree.attr_sum("solvers.gauss_jordan", "flops"),
        "solvers.rank_and_det.s": tree.total("solvers.rank_and_det"),
        "solvers.rank_and_det.calls": tree.count("solvers.rank_and_det"),
        "resolvent.ResolventApprox.s": tree.total("resolvent.ResolventApprox"),
        "resolvent.kernel_table.s": tree.total("resolvent.kernel_table"),
        "resolvent.compositions": tree.count("resolvent.compose"),
        "resolvent.compose_flops": tree.attr_sum("resolvent.compose", "flops"),
        "resolvent.neumann_terms": tree.attr_sum("resolvent.terms_needed", "terms"),
        "resolvent.resolvent_table.s": tree.total("resolvent.resolvent_table"),
        "resolvent.reduced_tables.s": tree.total("resolvent.reduced_tables"),
        "resolvent.load_matrix.s": tree.total("resolvent.load_matrix"),
        "resolvent.semi_analytic_solve.s": tree.total("resolvent.semi_analytic_solve"),
        "resolvent.classify.self_s": tree.self_total("resolvent.classify"),
        "study.solve_collocation.s": tree.total("study.solve_collocation"),
        "study.finest_solve_s": float(tree.durations[solves[-1]]) if solves.size else 0.0,
        "study.sup_error.s": tree.total("study.sup_error"),
        "cli.main.s": tree.total("cli.main"),
    }


def levels(tree: SpanTree) -> list[dict]:
    """One row per ``solve_collocation`` span: N, path taken, counts, times."""
    rows = []
    for i in np.flatnonzero(tree.where("study.solve_collocation")):
        inside = tree.descendants(i)
        names = [tree.names[j] for j in inside]
        assemble = [j for j in inside if tree.names[j] == "assembly.assemble"]
        dense = bool(assemble) and tree.attrs[assemble[0]].get("dense_bytes", 0) > 0
        kernel_errors = sum(
            tree.attrs[j].get("error", 0) for j in inside if tree.names[j] == "problems.kernel"
        )
        rows.append(
            {
                "N": tree.attrs[i].get("N"),
                "path": ("dense-fallback" if kernel_errors else "dense") if dense else "streaming",
                "solve_s": float(tree.durations[i]),
                "kernel_calls": names.count("problems.kernel"),
                "kernel_errors": kernel_errors,
                "row_weights_calls": names.count("assembly.row_weights"),
                "gauss_jordan_calls": names.count("solvers.gauss_jordan"),
            }
        )
    return rows


def bookkeeping(
    tree: SpanTree, metrics: dict[str, float], expected_counts: dict[str, int]
) -> tuple[list[str], list[str]]:
    """Check one operation's span tree.

    Returns ``(broken, mismatches)``.  ``broken`` lists violations of the
    tracer's own invariants: an unclosed span, a child outside its
    parent, or self times that do not add back up to the root's time.
    ``mismatches`` lists counts that differ from their closed forms for
    the code as it stands: per level, streaming ``row_weights`` calls
    equal N+1 and kernel calls equal N; a dense level makes one kernel
    call, plus N row-by-row calls (and N ``row_weights`` calls) when the
    kernel raises above the diagonal; every level makes one
    ``gauss_jordan`` call.  ``expected_counts`` gives whole-operation
    closed forms, supplied by the workload, for entries of ``metrics``
    (the operation's :func:`layer_metrics`).
    """
    broken = []
    if not np.all(np.isfinite(tree.ends)):
        broken.append("unclosed span")
    inner = np.arange(1, len(tree.names))
    p = tree.parents[inner]
    outside = (tree.starts[inner] < tree.starts[p]) | (tree.ends[inner] > tree.ends[p])
    if outside.any():
        broken.append(f"{int(outside.sum())} spans lie outside their parent")
    root = float(tree.durations[0])
    drift = abs(float(tree.self_times.sum()) - root)
    if drift > 1e-9 * len(tree.names) + 1e-12:
        broken.append(f"self times add up to {root - drift:.9f} s of {root:.9f} s")

    mismatches = []
    for row in levels(tree):
        n_last = row["N"]
        if row["path"] == "streaming":
            want = {"row_weights_calls": n_last + 1, "kernel_calls": n_last}
        elif row["path"] == "dense":
            want = {"row_weights_calls": 0, "kernel_calls": 1}
        else:
            want = {"row_weights_calls": n_last, "kernel_calls": 1 + n_last}
        want["gauss_jordan_calls"] = 1
        for key, value in want.items():
            if row[key] != value:
                mismatches.append(f"N={n_last} {row['path']}: {key} {row[key]} != {value}")
    for key, value in expected_counts.items():
        if metrics[key] != value:
            mismatches.append(f"{key} {metrics[key]:g} != {value}")
    return broken, mismatches
