"""The package parses as the oldest Python that pyproject.toml admits."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twoclass"
FLOOR = (3, 10)


def test_requires_python_is_the_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.M)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize(
    "source",
    [
        "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
        "try:\n    pass\nexcept* ValueError:\n    pass\n",
    ],
    ids=["type parameters (3.12)", "except* (3.11)"],
)
def test_the_floor_rejects_newer_syntax(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)
