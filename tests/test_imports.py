"""Every name that a module of the package, of the tests or of ``scripts/``
imports is read somewhere in that module, and every private name the
package defines is read by some module of the package: AST scans, as the
toolchain has no linter. The package's ``__init__.py`` imports to
re-export and is exempt from the first."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "affsim").glob("*.py"))
MODULES = sorted(path for path in [*PACKAGE,
                                   *(ROOT / "tests").glob("*.py"),
                                   *(ROOT / "scripts").glob("*.py")]
                 if path.name != "__init__.py")


def unused_imports(source):
    """The names that the imports of ``source`` bind and no other name in it
    reads, sorted; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def unread_private_names(sources):
    """The private names (one leading underscore) that the ``sources`` of a
    package define at module level, as functions, classes, constants or
    methods of a module-level class, and that no source reads, as a name
    or an attribute, sorted."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(name.id for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_scan_finds_an_unread_private_name():
    sources = ["_A, B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\n"
               "class _K:\n    def __init__(self):\n        self._m()\n"
               "    def _m(self):\n        pass\n    def _n(self):\n        pass\n",
               "from m import _f, _K\n_f()\n_g = _K\n__all__ = []\n"]
    assert unread_private_names(sources) == ["_C", "_g", "_n"]


def test_every_private_name_is_read():
    assert unread_private_names([path.read_text() for path in PACKAGE]) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy.random\nfrom sys import argv as a, path\nprint(path)\n"
    assert unused_imports(source) == ["a", "numpy", "os"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
