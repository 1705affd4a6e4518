import numpy as np
import pytest

from lvie.config import ConfigError, load_problem_config, parse_problem_config

GOOD = """
# a variant of the first benchmark problem
name   = "custom"
t0     = 0.0
T      = 1.0
lambda = 0.25
a0     = "t^2+1"
kernel = "t-2*s^2"
f      = "cos(t)"
exact  = "cos(t)"
load   = { point = 0.3, coeff = "1-t^3" }
load   = { point = 0.5, coeff = "t-2" }
"""


def test_parse_full_file():
    p = parse_problem_config(GOOD)
    assert p.name == "custom"
    assert (p.t0, p.T, p.lam) == (0.0, 1.0, 0.25)
    assert len(p.loads) == 2
    assert p.loads[0].point == 0.3
    assert p.loads[1].coeff(0.0) == -2.0
    assert p.kernel(1.0, 0.5) == 0.5
    assert p.exact(0.0) == 1.0


def test_loads_optional():
    text = "\n".join(
        line for line in GOOD.splitlines() if not line.startswith("load")
    )
    p = parse_problem_config(text)
    assert p.loads == ()


def test_exact_optional():
    text = "\n".join(
        line for line in GOOD.splitlines() if not line.startswith("exact")
    )
    assert parse_problem_config(text).exact is None


def test_missing_required_key():
    text = "\n".join(
        line for line in GOOD.splitlines() if not line.startswith("kernel")
    )
    with pytest.raises(ConfigError, match="missing required keys: kernel"):
        parse_problem_config(text)


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_problem_config(GOOD + '\nt0 = 0.5\n')


# A file without its load lines, then one bad line (line 10).
NO_LOADS = "\n".join(line for line in GOOD.splitlines() if not line.startswith("load")) + "\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ('name = "other"', "duplicate key 'name'"),
        ('t0 = "0"', "duplicate key 't0'"),
        ("name = 3", "duplicate key 'name'"),
        ("load = 0.3", 'load value must look like { point = ..., coeff = "..." }'),
        ("load = { point 0.3, coeff = \"t\" }", "malformed load entry 'point 0.3'"),
        ("load = { point = 0.3, coeff = 1 }", "load coeff must be a quoted expression"),
        ('load = { point = 0.3, point = 0.4, coeff = "t" }', "duplicate key 'point'"),
        ('load = { coeff = "t", point = 0.3, coeff = "1" }', "duplicate key 'coeff'"),
        ('load = { point = 0.3, coeff = "t", name = "x" }', "load needs exactly the keys 'point' and 'coeff'"),
        ("point = 0.3", "unknown key 'point'"),
        ("t0 0.0", "expected 'key = value'"),
    ],
)
def test_bad_line_is_refused_with_its_number(line, message):
    with pytest.raises(ConfigError) as info:
        parse_problem_config(NO_LOADS + line)
    assert str(info.value) == f"line {len(NO_LOADS.splitlines()) + 1}: {message}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("name = 3", "name must be a quoted string"),
        ('t0 = "0"', "t0 must be a number"),
        ("t0 = abc", "expected a number or quoted string, got 'abc'"),
    ],
)
def test_value_of_the_wrong_kind(line, message):
    text = "\n".join(item for item in NO_LOADS.splitlines() if not item.startswith(line.split()[0]))
    with pytest.raises(ConfigError, match=f": {message}$"):
        parse_problem_config(text + "\n" + line)


def test_name_repeating_the_default_is_a_duplicate():
    text = NO_LOADS.replace('name   = "custom"', 'name = "config"\nname = "custom"')
    with pytest.raises(ConfigError, match="duplicate key 'name'"):
        parse_problem_config(text)


def test_trailing_comma_in_load_accepted():
    p = parse_problem_config(NO_LOADS + 'load = { point = 0.3, coeff = "1-t^3", }')
    assert [term.point for term in p.loads] == [0.3]
    assert p.loads[0].coeff(1.0) == 0.0


def test_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'kernle'"):
        parse_problem_config('kernle = "t"')


def test_bad_expression_reports_line():
    bad = GOOD.replace('"t^2+1"', '"t^2+"')
    with pytest.raises(ConfigError, match="bad expression for 'a0'"):
        parse_problem_config(bad)


def test_malformed_load():
    with pytest.raises(ConfigError, match="load"):
        parse_problem_config('load = { point = 0.3 }')


def test_load_point_must_be_number():
    with pytest.raises(ConfigError, match="point must be a number"):
        parse_problem_config('load = { point = "0.3", coeff = "t" }')


def test_comment_inside_string_kept():
    p = parse_problem_config(GOOD.replace('"custom"', '"about # half"'))
    assert p.name == "about # half"


def test_number_where_string_expected():
    with pytest.raises(ConfigError, match="quoted expression"):
        parse_problem_config("a0 = 3.0")


def test_load_file(tmp_path):
    path = tmp_path / "wobble.cfg"
    path.write_text(GOOD.replace('name   = "custom"\n', ""), encoding="utf-8")
    p = load_problem_config(path)
    assert p.name == "wobble"
    np.testing.assert_allclose(p.a0(np.array([0.0, 1.0])), [1.0, 2.0])


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("T      = 1.0", "T      = -1.0", "interval start must precede interval end"),
        ("lambda = 0.25", "lambda = nan", "interval endpoints and lambda must be finite"),
        ("point = 0.5", "point = 1.5", "cannot place load points [0.3, 1.5]: load point 1.5 outside the open interval"),
        ("point = 0.5", "point = 0.3", "cannot place load points [0.3, 0.3]: load points not increasing"),
    ],
    ids=["interval", "lambda", "outside", "repeated"],
)
def test_ill_formed_problem_is_a_config_error(old, new, message):
    # Problem's own refusal, as a ConfigError with the same text.
    with pytest.raises(ConfigError) as info:
        parse_problem_config(GOOD.replace(old, new))
    assert str(info.value) == message
