"""The package has no runtime dependency: every module imports only the
standard library and the package itself, and uses every name it imports."""

import ast
import sys
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
