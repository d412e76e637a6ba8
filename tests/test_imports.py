"""No module of the package or of its tests imports a name it never uses.

The scan reads each `src/secgroups/*.py` and `tests/*.py` with the standard
`ast` module: every name an import statement binds must be read somewhere
in that module, as a bare name or as the head of an attribute chain.  The
package `__init__.py` is exempt: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "secgroups"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in `source` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(bound.items(), key=lambda t: t[1])
            if name not in read]


def test_the_scan_sees_an_unused_import():
    source = ("from .a import used, unused\n"
              "import os.path\n"
              "def f():\n"
              "    return used + os.sep\n")
    assert unused_imports(source) == ["unused (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
