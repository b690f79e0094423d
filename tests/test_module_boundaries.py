"""An underscored name is private to its module: no ``basepack`` module
imports one from a sibling, at module level or inside a function."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "basepack").glob("*.py"))


def private_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and name of every underscored name imported from the package."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "basepack")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_from_a_sibling():
    assert {path.name for path in SOURCES} >= {"core.py", "graphs.py", "constructions.py"}
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in private_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_check_sees_relative_absolute_and_nested_imports():
    tree = ast.parse(
        "from .graphs import _BYTE_BITS, MultiGraph\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    from basepack.core import _place\n"
        "    from . import _secret\n"
        "from os import _exit\n"
    )
    assert private_imports(tree) == [(1, "_BYTE_BITS"), (4, "_place"), (5, "_secret")]
