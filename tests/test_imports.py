"""No module of the package keeps a module-level import that it never reads,
and no private module-level name is left that no module of the package reads."""

import ast
from collections import defaultdict
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


def unread_private_names(sources):
    """The private module-level names defined in sources that nothing reads.

    Private means one leading underscore: functions, classes and assigned
    constants.  A name is read when a top-level statement of any source,
    other than the one defining it, loads it as a name or an attribute, so
    a helper that only calls itself is not read.
    """
    defined, readers = {}, defaultdict(set)
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = node
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers[sub.id].add(node)
                elif isinstance(sub, ast.Attribute):
                    readers[sub.attr].add(node)
    return sorted(name for name, node in defined.items() if not readers[name] - {node})


def test_unread_private_names_finds_what_nothing_reads():
    first = (
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "def _alone(k):\n"
        "    return _alone(k - 1) if k else 0\n"
        "class _Node:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    # importing a name is not reading it; an attribute load is
    second = "from .first import _Node\n\ndef f(m):\n    return m._TABLE\n"
    third = "from .first import _Node\n\nNODE = _Node()\n"
    assert unread_private_names([first]) == ["_Node", "_TABLE", "_alone"]
    assert unread_private_names([first, second]) == ["_Node", "_alone"]
    assert unread_private_names([first, second, third]) == ["_alone"]


def test_package_reads_every_private_name():
    assert unread_private_names([path.read_text() for path in SOURCES]) == []
