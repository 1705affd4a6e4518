"""Line coverage of ``src/lvie`` under the tier-1 tests, with the standard library only.

Run from anywhere::

    python tests/line_coverage.py

It runs the test suite in this process (``pytest -q``, a fixed Hypothesis
seed so that random examples cannot move the coverage) with a line tracer
on every frame whose code lies in ``src/lvie``, then compares the lines
that ran with the executable lines of each module: the line table
(``co_lines``) of every code object, less the lines of docstrings.  It
exits 1 when a test fails or a line outside ``ALLOWED`` did not run,
listing those lines.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lvie"
# (module file, stripped source line) pairs that run only in a child process.
ALLOWED = {("cli.py", "sys.exit(main())")}


def executable_lines(path: Path) -> set[int]:
    """Lines of ``path`` that carry bytecode, less its docstrings."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main() -> int:
    import pytest

    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}  # real path -> lines that ran
    by_name: dict[str, set[int] | None] = {}  # code file name -> its hits, None outside src/lvie

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_name:
            path = os.path.realpath(filename)
            by_name[filename] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        ran = by_name[filename]
        if ran is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hits.get(str(path.resolve()), set())):
            text = source[line - 1].strip()
            if (path.name, text) not in ALLOWED:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    print("\n".join(missed) if missed else f"line coverage: every executable line of {SRC.relative_to(ROOT)} ran")
    if status != 0:
        print(f"pytest exited with status {int(status)}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
