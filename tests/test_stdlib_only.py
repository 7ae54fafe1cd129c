"""The package has no runtime dependency: every module imports only the
standard library and the package itself, and uses every name it imports.
Every private helper it defines is also used."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wittartin"


def outside_imports(tree):
    """(line, top-level module) of each import in tree from outside the
    standard library and the package; relative imports stay inside."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.extend((node.lineno, alias.name.partition(".")[0])
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.partition(".")[0]))
    return [(line, root) for line, root in roots
            if root not in sys.stdlib_module_names and root != "wittartin"]


def test_the_package_has_modules():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert outside_imports(tree) == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom numpy.linalg import inv\n"
                     "from . import exactlin\nimport wittartin.tube\n")
    assert outside_imports(tree) == [(2, "numpy")]


def unused_imports(tree):
    """(line, name) of each name an import in tree binds that the module
    never reads; ``from __future__`` imports are directives, not names."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((node.lineno,
                          (alias.asname or alias.name).partition(".")[0])
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, alias.asname or alias.name)
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


# __init__.py imports in order to re-export.
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from .exactlin import Matrix, kernel as k\nk(os)\n")
    assert unused_imports(tree) == [(3, "Matrix")]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def private_definitions(tree):
    """(name, node) of each _-prefixed module-level function, class or
    assigned name (a constant) and of each _-prefixed method of a
    module-level class.  Dunder names are the language's hooks, not
    helpers."""
    nodes = []
    for node in tree.body:
        nodes.append(node)
        if isinstance(node, ast.ClassDef):
            nodes.extend(node.body)
    named = [(node.name, node) for node in nodes if isinstance(node, DEFS)]
    named += [(target.id, node) for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
              if isinstance(target, ast.Name)]
    return [(name, node) for name, node in named
            if name.startswith("_") and not name.endswith("__")]


def references(node):
    """The names read under node, as plain names and as attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def dead_helpers(trees):
    """(module, name) of each private definition in trees, a dict from
    module name to tree, that nothing outside its own body reads."""
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return [(module, name) for module, tree in trees.items()
            for name, node in private_definitions(tree)
            if everywhere[name] == references(node)[name]]


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_helpers(trees) == []


def test_a_dead_helper_is_caught():
    tree = ast.parse("_READ = 2\n_UNREAD: int = 3\n\n"
                     "def _used():\n    return _READ\n\n"
                     "def _dead(n):\n    return _dead(n - 1)\n\n"
                     "class C:\n"
                     "    def _method(self):\n        return _used()\n\n"
                     "    def _unread(self):\n        return 0\n\n"
                     "    def __eq__(self, other):\n"
                     "        return self._method()\n")
    assert dead_helpers({"m.py": tree}) == [("m.py", "_dead"),
                                            ("m.py", "_unread"),
                                            ("m.py", "_UNREAD")]
