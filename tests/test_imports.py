"""Every name that a module of the package, of the tests or of ``scripts/``
imports is read somewhere in that module, every private name the package
defines is read by some module of the package, the package checks
integers by one rule and builds outcome probabilities by one rule, and the
command line imports no private name of the package: AST scans, as the
toolchain has no linter. The package's
``__init__.py`` imports to re-export and is exempt from the first."""
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


def integer_rules(sources):
    """The scopes (``module``, ``module.function``, ``module.Class.method``
    and so on) of ``sources``, a dict of module name to text, that read
    ``operator.index`` or hold a string, docstrings aside, with "must be an
    integer" in it, sorted."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue  # a docstring
            index = (isinstance(child, ast.Attribute) and child.attr == "index"
                     and isinstance(child.value, ast.Name) and child.value.id == "operator"
                     or isinstance(child, ast.ImportFrom) and child.module == "operator"
                     and any(alias.name == "index" for alias in child.names))
            message = (isinstance(child, ast.Constant) and isinstance(child.value, str)
                       and "must be an integer" in child.value)
            if index or message:
                found.add(scope)
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def outcome_probability_rules(sources):
    """The scopes (named as by ``integer_rules``) of ``sources``, a dict of
    module name to text, that raise ``p`` or ``1 - p`` (``1.0 - p``) to a
    power, by ``**`` or a call of ``pow`` or ``power``, sorted."""
    found = set()

    def is_p(node):
        return (isinstance(node, ast.Name) and node.id == "p"
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Constant) and node.left.value == 1
                and is_p(node.right))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            power = (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow)
                     and is_p(child.left)
                     or isinstance(child, ast.Call) and child.args and is_p(child.args[0])
                     and (getattr(child.func, "id", None) == "pow"
                          or getattr(child.func, "attr", None) in ("pow", "power")))
            if power:
                found.add(scope)
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def private_imports(source):
    """The private names (one leading underscore) that ``source`` imports
    from a module of the package, relatively or by its ``affsim`` name,
    sorted."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "affsim"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name.split(".")[-1] for alias in node.names
                      if alias.name.split(".")[0] == "affsim"]
    return sorted(name for name in names if name.startswith("_") and not name.startswith("__"))


def test_scan_finds_a_private_import():
    source = ("from .engine import sweep, _check\nfrom affsim.core import _integer as i\n"
              "from . import _cli\nfrom numpy import _core\nfrom affsim_x import _y\n"
              "from .core import __all__\nimport affsim._z, os._w\n")
    assert private_imports(source) == ["_check", "_cli", "_integer", "_z"]


def test_cli_imports_no_private_name():
    # The command line reaches the other modules through public names only.
    assert private_imports((ROOT / "src" / "affsim" / "cli.py").read_text()) == []


def test_scan_finds_a_second_integer_rule():
    sources = {
        "a": 'import operator\ndef _one(v):\n    """v must be an integer."""\n'
             '    return operator.index(v)\n'
             'class K:\n    def check(self, v):\n        def inner():\n'
             '            raise ValueError(f"{v} must be an integer, got {v!r}")\n',
        "b": "from operator import index\nTEXT = 'seeds must be an integer'\n"
             "def f(values):\n    return list(map(operator.index, values))\n",
    }
    assert integer_rules(sources) == ["a.K.check.inner", "a._one", "b", "b.f"]


def test_one_integer_rule():
    # Every integer the package checks goes through core._integer.
    assert integer_rules({path.stem: path.read_text() for path in PACKAGE}) == ["core._integer"]


def test_scan_finds_a_second_outcome_probability_rule():
    sources = {
        "a": "def _one(k, p):\n    return p ** k * (1.0 - p) ** 0\n"
             "class K:\n    def gain(self, p, k):\n        return k * p * (1 - p) ** (k - 1)\n"
             "def g(p, b, r):\n    return b ** -r, (p - 1) ** 2, q ** 2, p * 2\n",
        "b": "def f(p):\n    return np.power(p, 2), math.pow(1 - p, 3), pow(p, 2)\n"
             "TOP = (1 - p) ** 2\n",
    }
    assert outcome_probability_rules(sources) == ["a.K.gain", "a._one", "b", "b.f"]


def test_one_outcome_probability_rule():
    # A closed form such as k * p * (1 - p) ** (k - 1) rounds differently
    # from the outcome probabilities the greedy's tables sum.
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert outcome_probability_rules(sources) == ["protocols._selected_mass"]


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
