"""Every name the package exports has a reader outside its own tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entspec"

# Exported for tests to compare against; nothing in the package calls them.
ALLOWED = {
    "certificate_theory_bound": "the closed-form comparator that the tdmrg tests hold the naive bound to",
    "basis_product_state": "builds the product inputs of the existence-check tests",
}


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _reader_lines():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    return [line for p in files for line in p.read_text().splitlines()]


def test_every_export_has_a_reader():
    lines = _reader_lines()
    unread = []
    for name in _exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert sorted(unread) == sorted(ALLOWED)
