"""Every exception class the package defines is one some `except` clause of
the package names: a class that no caller tells apart from its base is not
needed. Found by parsing, so docstrings and comments never count."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entspec"


def _trees():
    return [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]


def _names(node):
    """The class names an except clause's type spells, bare or as attributes."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    return {getattr(node, "id", None) or getattr(node, "attr", None)}


def test_every_exception_class_is_caught_by_name():
    nodes = [n for tree in _trees() for n in ast.walk(tree)]
    defined = {n.name for n in nodes if isinstance(n, ast.ClassDef)
               and any(ast.unparse(b).endswith(("Error", "Exception")) for b in n.bases)}
    caught = {name for n in nodes if isinstance(n, ast.ExceptHandler) and n.type
              for name in _names(n.type)}
    assert {"EntspecError", "ConfigError"} <= defined
    assert sorted(defined - caught) == []
