"""Every name the package exports, every method of its classes, and every
field of its result dataclasses has a reader outside the tests; every
defaulted parameter of a public function is passed by a call outside the
tests, and left out by at least one call.

A reader is code, found by parsing: an export is read where a name or an
attribute access spells it, and a method, property or field only where an
attribute access does. Docstrings and comments never count."""

import ast
from collections import defaultdict
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

# Member names that more than one package class defines, where one of them
# is a method or property. An attribute access `.name` cannot tell those
# classes apart, so each class's member names its reader here.
SHARED = {
    "matrix": {
        "AgspOperator": "agsp_arealaw.boundary_adiabatic_experiment applies the filter",
        "BipartiteOperator": "se_strength.operator_schmidt_upper splits it",
        "DensePropagator": "build_agsp and check_unitary_se_growth build u f(w) u^dagger",
        "LocalTerm": "models._term_entries scatters it into the chain matrix",
    },
    "se_strength_exact": {
        "SaturationDynamics": "cli.exp_saturation reports it",
        "ToyTwoQubit": "dynamics.toy_rate_experiment scales the bound by it",
    },
    "entropy": {
        "RateSample": "reaches the sie-rate results.csv through dataclasses.asdict",
        "UnboundedDynamics": "dynamics.unbounded_experiment tabulates it",
    },
    "rate": {
        "RateSample": "dynamics.rate_bound_check compares it to its bound",
        "ToyTwoQubit": "dynamics.toy_rate_experiment tabulates it",
    },
    "n_sites": {
        "MatrixProductState": "mps.to_dense and TdmrgConfig check the chain length",
        "PureState": "spectra.schmidt_decompose checks the cut against it",
    },
    "d": {
        "ChainHamiltonian": "ChainHamiltonian.dense strides by it and cli._tdmrg_from_params sizes the MPS",
        "MatrixProductState": "mps.to_dense, mps.add and tdmrg_run read the site dimension",
        "WidthResult": "cli.exp_kolmogorov writes it to results.csv",
    },
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
    "MergeSeries.exact": "the dense reference that the merge-series tests compare against",
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


def _read_names():
    """(names, attributes): every ast.Name id and every ast.Attribute attr
    in the package (less __init__.py) and the benchmark. bench/tracer.py
    wraps each "module", "Class.function" pair of its LAYERS table through
    getattr, so those names count as attribute accesses too."""
    nodes = [n for p in _reader_files() for n in ast.walk(ast.parse(p.read_text()))]
    layers = next(node.value for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")
    wrapped = {part for pairs in ast.literal_eval(layers).values()
               for _, path in pairs for part in path.split(".")}
    return ({n.id for n in nodes if isinstance(n, ast.Name)},
            {n.attr for n in nodes if isinstance(n, ast.Attribute)} | wrapped)


def _methods():
    """(class, name) for every public method and property of a package class."""
    return [(node.name, f.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def _differ(found, listed):
    """(found but not listed, listed but not found), both sorted."""
    return sorted(set(found) - set(listed)), sorted(set(listed) - set(found))


def test_every_export_has_a_reader():
    names, attributes = _read_names()
    unread = [name for name in _exported_names() if name not in names | attributes]
    unread += [f"{cls}.{name}" for cls, name in _methods() if name not in attributes]
    assert _differ(unread, ALLOWED) == ([], [])


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
    _, attributes = _read_names()
    unread = [
        f"{cls}.{name}"
        for cls, name in _dataclass_fields()
        if name not in attributes
        and not {cls, name, f"{cls}.{name}"} & set(FIELDS_ALLOWED)
    ]
    assert unread == []


def test_shared_member_names_name_each_reader():
    """A second class with a method of the same name would hide an unread
    one from the attribute scan, so every shared name is listed by class."""
    classes = defaultdict(set)
    for cls, name in _methods() + _dataclass_fields():
        classes[name].add(cls)
    methods = {name for _, name in _methods()}
    shared = [f"{cls}.{name}" for name, owners in classes.items()
              if name in methods and len(owners) > 1 for cls in owners]
    listed = [f"{cls}.{name}" for name, readers in SHARED.items() for cls in readers]
    assert _differ(shared, listed) == ([], [])


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
