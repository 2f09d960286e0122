"""Every name the package exports, every method of its classes, and every
field of its result dataclasses has a reader outside the tests; every
defaulted parameter of a public function is passed by a call outside the
tests, and left out by at least one call."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entspec"

# Exported for tests to compare against; nothing in the package calls them.
# A "Class.method" entry is a method or property of a package class.
ALLOWED = {
    "certificate_theory_bound": "the closed-form comparator that the tdmrg tests hold the naive bound to",
    "basis_product_state": "builds the product inputs of the existence-check tests",
    "SaturationDynamics.per_pair_state": "the closed-form pulse state the tests hold expm(-i V x)|00> to",
    "SaturationDynamics.protocol_entropy": "the order-1/2 protocol entropy the tests hold protocol_entropy_half to",
    "ToyTwoQubit.hamiltonian": "the matrix the tests evolve to check rate, spectrum and state against",
    "ToyTwoQubit.state": "the closed-form state the tests hold expm(-i H t)|00> to",
    "CompressionRecord.stitching_bound": "the bound the mps tests hold the compression error to",
}

# Defaulted parameters that no call in the package or the benchmark passes.
DEFAULTS_ALLOWED = {
    "adiabatic_evolve.start_steps": "bench/tracer.py reads it by name to count refinement rounds",
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


def _reader_files():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "bench").glob("*.py"))


def _reader_lines():
    return [line for p in _reader_files() for line in p.read_text().splitlines()]


def _methods():
    """(class, name) for every public method and property of a package class."""
    return [(node.name, f.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def test_every_export_has_a_reader():
    lines = _reader_lines()
    unread = []
    for name in _exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    text = "\n".join(lines)
    unread += [f"{cls}.{name}" for cls, name in _methods() if not re.search(rf"\.{name}\b", text)]
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


def _public_functions():
    """name -> (parameters, defaulted parameters) of every public module-level
    function of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                params = [x.arg for x in a.posonlyargs + a.args]
                defaulted = params[len(params) - len(a.defaults):]
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out[node.name] = (params, defaulted)
    return out


def _passed_per_call(files):
    """name -> one set per call in `files` of the parameters that call
    passes, for every public function; a call with *args or **kwargs may
    pass any of them and counts as passing none."""
    functions = _public_functions()
    calls = {name: [] for name in functions}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in calls:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            if starred or any(k.arg is None for k in node.keywords):
                calls[name].append(set())
            else:
                calls[name].append(set(functions[name][0][: len(node.args)])
                                   | {k.arg for k in node.keywords})
    return calls


def test_every_default_is_passed_outside_the_tests():
    """A default no caller overrides is a constant: an option only tests set
    is not allowed."""
    calls = _passed_per_call(_reader_files())
    unpassed = [f"{name}.{param}" for name, (_, defaulted) in _public_functions().items()
                for param in defaulted if not any(param in c for c in calls[name])]
    assert sorted(unpassed) == sorted(DEFAULTS_ALLOWED)


def test_every_default_is_used_by_some_call():
    """A default that every call in the package, the benchmark and the tests
    overrides is never used: the parameter is required."""
    tests = sorted(Path(__file__).parent.glob("*.py"))
    calls = _passed_per_call(_reader_files() + tests)
    always = [f"{name}.{param}" for name, (_, defaulted) in _public_functions().items()
              for param in defaulted
              if calls[name] and all(param in c for c in calls[name])]
    assert always == []
