"""No module of the package keeps a module-level import that it never reads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "artifact"
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    """The names bound by module-level imports of source that nothing reads.

    A name is read when the module loads it anywhere or lists it in __all__.
    """
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unused_imports_finds_what_nothing_reads():
    source = (
        "import os, sys\n"
        "import os.path as osp\n"
        "from math import factorial, gcd as g\n"
        "__all__ = ['factorial']\n"
        "def f():\n"
        "    os = 1\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["g", "os", "osp"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
