"""The comparison of ``tests/same_bits.py``: what counts as a difference, and how it is reported."""

import numpy as np
import pytest

import same_bits
from same_bits import compare


def _entries(**values):
    return {key: np.asarray(value) for key, value in values.items()}


def test_identical_entries_pass():
    base = _entries(x=[1.0, 2.0], text="eps 1.0E-03\n")
    assert compare(base, _entries(x=[1.0, 2.0], text="eps 1.0E-03\n")) == []


def test_one_ulp_is_reported_with_its_relative_difference():
    moved = np.nextafter(2.0, 3.0)
    assert compare(_entries(x=[1.0, 2.0]), _entries(x=[1.0, moved])) == [
        f"x: largest relative difference {(moved - 2.0) / moved:.3g}"
    ]


def test_signed_zero_and_shape_are_differences():
    lines = compare(_entries(z=[0.0], y=[1.0]), _entries(z=[-0.0], y=[1.0, 1.0]))
    assert lines == ["y: shape or type float64(1,) -> float64(2,)", "z: largest relative difference 0"]


def test_text_reports_numbers_or_the_first_differing_line():
    base = _entries(a="h,eps\n1/8,1.00000E-03\n", b="unique\nfamily\n", c="x\n")
    new = _entries(a="h,eps\n1/8,1.00001E-03\n", b="unique\nno_solution\n", c="x")
    assert compare(base, new) == [
        "a: text numbers differ, largest relative difference 1e-05",
        "b: text differs from line 2",
        "c: text differs from line 1",
    ]


def test_missing_entries_are_named():
    assert compare(_entries(old=1.0), _entries(new=1.0)) == ["new: only in this tree", "old: only in base"]


@pytest.mark.parametrize("tree", [[], [str(same_bits.ROOT)]], ids=["default-tree", "this-tree"])
def test_manifest_writes_the_lvie_of_the_tree(tree, tmp_path, monkeypatch):
    monkeypatch.setattr(same_bits, "manifest", lambda: _entries(x=[1.0, 2.0]))
    out = tmp_path / "manifest.npz"
    assert same_bits.main(["--manifest", str(out), *tree]) == 0
    with np.load(out) as data:
        assert data["x"].tolist() == [1.0, 2.0]


def test_manifest_refuses_the_lvie_of_another_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(same_bits, "manifest", lambda: _entries(x=1.0))
    out = tmp_path / "manifest.npz"
    with pytest.raises(SystemExit, match="^same_bits: imported .*, not the lvie of "):
        same_bits.main(["--manifest", str(out), str(tmp_path)])
    assert not out.exists()
