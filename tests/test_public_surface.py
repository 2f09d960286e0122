"""Every name the package exports, and every field of its result
dataclasses, has a reader outside the tests."""

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

# Dataclass fields with no `.name` reader in the package or the benchmark.
# A class entry covers all of its fields.
FIELDS_ALLOWED = {
    "StepRecord": "every field reaches the tdmrg results.csv through dataclasses.asdict",
    "RateSample": "every field reaches the sie-rate results.csv through dataclasses.asdict",
    "t_c": "AgspOperator's integration window, kept as convergence data for the quadrature",
    "MergeSeries.exact": "the dense reference that the merge-series tests compare against",
    "TruncationParams.exponent_base": "the tests check the budget's base 6 + 4/kappa + log2 d0",
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


def _dataclass_fields():
    """(class, field) for every annotated field of a @dataclass in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                continue
            out += [(node.name, st.target.id) for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
    return out


def test_every_result_field_has_a_reader():
    text = "\n".join(_reader_lines())
    unread = [
        f"{cls}.{name}"
        for cls, name in _dataclass_fields()
        if not re.search(rf"\.{name}\b", text)
        and not {cls, name, f"{cls}.{name}"} & set(FIELDS_ALLOWED)
    ]
    assert unread == []
