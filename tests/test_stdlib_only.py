"""The runtime is standard-library only: every absolute import in the package
names a standard-library module."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "basepack").glob("*.py"))


def absolute_imports(tree: ast.AST):
    """The top-level module of every absolute import, at any depth (imports
    inside functions too), with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_every_package_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "core.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_standard_library(path):
    outside = [
        f"{path.name}:{line} imports {name}"
        for name, line in absolute_imports(ast.parse(path.read_text(), str(path)))
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_check_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import numpy.linalg\n    from scipy import sparse\n")
    assert list(absolute_imports(tree)) == [("numpy", 2), ("scipy", 3)]
