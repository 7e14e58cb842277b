"""Every name that a module of the package, of the tests or of ``scripts/``
imports is read somewhere in that module: an AST scan, as the toolchain has
no linter. The package's ``__init__.py`` imports to re-export and is
exempt."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in [*(ROOT / "src" / "affsim").glob("*.py"),
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


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy.random\nfrom sys import argv as a, path\nprint(path)\n"
    assert unused_imports(source) == ["a", "numpy", "os"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
