"""No module of the package holds an assert statement.

python -O strips asserts, and every exactness failure must stay a hard
error (InternalConsistencyError, exit 3) however the interpreter runs, the
packed dots' fallback to plain contractions included."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artifact"
SOURCES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source):
    """The line numbers of the assert statements in source, nested ones too."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_lines_finds_every_assert():
    source = (
        "assert True\n"
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
    )
    assert assert_lines(source) == [1, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_holds_no_assert(path):
    assert assert_lines(path.read_text()) == []
