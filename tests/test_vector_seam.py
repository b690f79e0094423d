"""One place chooses between GF(2) vectors and oracle queries: outside the
matroid constructors in ``constructions.py``, only ``core.py``
(``class_states``, and the ``Matroid`` that stores them) touches
``Matroid.gf2``."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "basepack").glob("*.py"))
READERS = {"core.py", "constructions.py"}


def gf2_lines(tree: ast.AST) -> list[int]:
    """The line of every ``.gf2`` attribute, read or written, at any depth."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "gf2"]


def test_only_core_and_constructions_touch_the_vectors():
    assert {path.name for path in SOURCES} >= READERS | {"solvers.py", "gadget.py"}
    outside = [
        f"{path.name}:{line}"
        for path in SOURCES if path.name not in READERS
        for line in gf2_lines(ast.parse(path.read_text(), str(path)))
    ]
    assert outside == []


def test_the_check_sees_reads_inside_functions():
    tree = ast.parse("def f(m):\n    if m.gf2 is not None:\n        return g(m).gf2[0]\n")
    assert gf2_lines(tree) == [2, 3]
