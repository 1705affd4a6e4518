"""Key-value problem files.

A problem file is plain text, one ``key = value`` per line::

    # comments start with '#'
    name   = "wave test"              # optional label
    t0     = 0.0
    T      = 1.0
    lambda = 0.25
    a0     = "t^2+1"
    kernel = "t-2*s^2"
    f      = "(t^2+1)*cos(t) - sin(t)"
    exact  = "cos(t)"                 # optional
    load   = { point = 0.3, coeff = "1-t^3" }
    load   = { point = 0.5, coeff = "t-2" }

``t0``, ``T`` and ``lambda`` are numbers; ``a0``, ``kernel``, ``f`` and
``exact`` are quoted expressions in the grammar of
:mod:`lvie.expressions`.  ``load`` lines may repeat, one per load term;
every other key appears at most once, as do ``point`` and ``coeff`` in a load.
"""

from __future__ import annotations

import os

from .expressions import ParseError
from .problems import LoadTerm, Problem, ScalarFunction

__all__ = ["ConfigError", "parse_problem_config", "load_problem_config"]

_REQUIRED = ("t0", "T", "lambda", "a0", "kernel", "f")
# Every key with the kind of its value and the message that refuses any
# other kind; "load" holds the keys of one load entry.
_KEYS = {
    "name": (str, "name must be a quoted string"),
    "t0": (float, "t0 must be a number"),
    "T": (float, "T must be a number"),
    "lambda": (float, "lambda must be a number"),
    "a0": (str, "a0 must be a quoted expression"),
    "kernel": (str, "kernel must be a quoted expression"),
    "f": (str, "f must be a quoted expression"),
    "exact": (str, "exact must be a quoted expression"),
    "load": {
        "point": (float, "load point must be a number"),
        "coeff": (str, "load coeff must be a quoted expression"),
    },
}


class ConfigError(ValueError):
    """Malformed problem file; the message names the offending line."""


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for c in line:
        if c == '"':
            in_quote = not in_quote
        if c == "#" and not in_quote:
            break
        out.append(c)
    return "".join(out)


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: expected a number or quoted string, got {raw!r}") from None


def _read(values: dict, kinds: dict, key: str, raw: str, lineno: int, unknown: str) -> None:
    """Store ``values[key] = (value, lineno)``; refuse a repeat, a key outside ``kinds`` or a wrong kind."""
    if key in values:
        raise ConfigError(f"line {lineno}: duplicate key {key!r}")
    if key not in kinds:
        raise ConfigError(f"line {lineno}: {unknown}")
    kind, message = kinds[key]
    value = _parse_value(raw, lineno)
    if not isinstance(value, kind):
        raise ConfigError(f"line {lineno}: {message}")
    values[key] = (value, lineno)


def _parse_load(raw: str, lineno: int) -> dict:
    raw = raw.strip()
    if not (raw.startswith("{") and raw.endswith("}")):
        raise ConfigError(f"line {lineno}: load value must look like {{ point = ..., coeff = \"...\" }}")
    exactly = "load needs exactly the keys 'point' and 'coeff'"
    fields: dict = {}
    for part in raw[1:-1].split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ConfigError(f"line {lineno}: malformed load entry {part.strip()!r}")
        key, _, val = part.partition("=")
        _read(fields, _KEYS["load"], key.strip(), val, lineno, exactly)
    if len(fields) != len(_KEYS["load"]):
        raise ConfigError(f"line {lineno}: {exactly}")
    return fields


def _expression(entry: tuple[str, int], arity: int, key: str) -> ScalarFunction:
    text, lineno = entry
    try:
        return ScalarFunction.from_expression(text, arity)
    except (ParseError, ValueError) as err:
        raise ConfigError(f"line {lineno}: bad expression for {key!r}: {err}") from None


def parse_problem_config(text: str, name: str = "config") -> Problem:
    """Parse problem-file text into a :class:`Problem`; every error is a :class:`ConfigError`."""
    values: dict = {}  # key -> (value, line)
    loads: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key == "load":
            loads.append(_parse_load(raw, lineno))
        else:
            _read(values, _KEYS, key, raw, lineno, f"unknown key {key!r}")

    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    fields = dict(
        loads=tuple(LoadTerm(ld["point"][0], _expression(ld["coeff"], 1, "load coeff")) for ld in loads),
        a0=_expression(values["a0"], 1, "a0"),
        kernel=_expression(values["kernel"], 2, "kernel"),
        rhs=_expression(values["f"], 1, "f"),
        exact=_expression(values["exact"], 1, "exact") if "exact" in values else None,
        name=values.get("name", (name,))[0],
    )
    try:
        return Problem(t0=values["t0"][0], T=values["T"][0], lam=values["lambda"][0], **fields)
    except ValueError as err:  # the interval, lambda or load points
        raise ConfigError(str(err)) from None


def load_problem_config(path: os.PathLike | str) -> Problem:
    """Read and parse a problem file; the file stem becomes the default name."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return parse_problem_config(text, name=stem)
