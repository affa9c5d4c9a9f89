import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("sampling", "complexes", "spectra", "trees", "arboreal", "limitlaw", "experiments")


@pytest.mark.parametrize("layer", LAYERS)
def test_public_names_are_defined_in_their_module(layer):
    # tools that look up every __all__ name (the benchmark's tracer does) must
    # not meet a name whose object was deleted or lives in another module
    module = importlib.import_module(f"steinerlab.{layer}")
    for name in module.__all__:
        assert name in vars(module), f"{layer}.__all__ lists {name}, which the module does not define"
        obj = vars(module)[name]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"{layer}.{name} comes from {obj.__module__}"


def test_package_exports_are_layer_names():
    # the package re-exports each layer's __all__ and nothing else; `experiments` stays out
    import steinerlab

    layers = [importlib.import_module(f"steinerlab.{layer}") for layer in LAYERS if layer != "experiments"]
    public = {name for name, obj in vars(steinerlab).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == {name for m in layers for name in m.__all__}
    for m in layers:
        for name in m.__all__:
            assert vars(steinerlab)[name] is vars(m)[name], f"steinerlab.{name} is not {m.__name__}.{name}"


def test_package_exports_the_failures_rows_record():
    from steinerlab import NumericalFailure, SamplerExhausted
    from steinerlab.sampling import SamplerExhausted as sampler_exhausted
    from steinerlab.spectra import NumericalFailure as numerical_failure

    assert NumericalFailure is numerical_failure and SamplerExhausted is sampler_exhausted


def test_oracles_stay_out_of_the_package():
    import oracles
    import steinerlab

    defined = [name for name, obj in vars(oracles).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == "oracles"]
    assert "exact_rank" in defined
    modules = [steinerlab, *(importlib.import_module(f"steinerlab.{layer}") for layer in LAYERS)]
    for name in defined:
        for module in modules:
            assert name not in vars(module), f"{module.__name__} has the test oracle {name}"


def test_src_never_imports_tests():
    src = Path(importlib.import_module("steinerlab").__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in {"tests", "oracles", "conftest"}, f"{path.name} imports {name}"


def test_import_leaves_out_unused_scipy():
    # scipy.integrate pulled these in: about 0.25 s and 20 MB on every CLI call
    src = Path(importlib.import_module("steinerlab").__file__).parent.parent
    code = (
        "import sys; import steinerlab, steinerlab.cli; "
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


DENSE_EIGENSOLVERS = {"eigvalsh", "eigh", "eigvals", "eig"}


def test_one_dense_eigensolve():
    # the full spectrum is an output only of `spectrum`; besides it only the restricted
    # solve, up to its dense cap, calls a dense eigensolver
    src = Path(importlib.import_module("steinerlab").__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}  # node -> name of the top-level definition holding it
        for top in tree.body:
            name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                scopes.setdefault(node, name)
        for node, scope in scopes.items():
            if isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.alias):
                used = node.name.split(".")[-1]
            else:
                continue
            if used in DENSE_EIGENSOLVERS:
                callers.add(f"{path.stem}.{scope}")
    assert callers == {"spectra.spectral_summary", "spectra.restricted_extreme"}, callers


@pytest.mark.parametrize("needle", ["coboundary_matrix(", "frexp"])
def test_one_restricted_eigensolve(needle):
    # delta and the shift live in `spectra.restricted_extreme` alone
    src = Path(importlib.import_module("steinerlab").__file__).parent
    files = {path.name for path in src.glob("*.py") if needle in path.read_text()}
    assert files == {"spectra.py"}, files


@pytest.mark.parametrize("needle", [".substream(", "csv.writer(", "complex_n{"])
def test_one_trial_source_and_one_table_writer(needle):
    # trial (n, t) is drawn, named and written in `experiments` alone; the CLI reuses them
    src = Path(importlib.import_module("steinerlab").__file__).parent
    hits = [f"{path.name}:{number}" for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1) if needle in line]
    assert len(hits) == 1 and hits[0].startswith("experiments.py:"), hits


def test_one_trial_loop():
    # every ensemble command loops over its trials, and records a trial that
    # failed, through `experiments.ExperimentConfig.run` alone
    src = Path(importlib.import_module("steinerlab").__file__).parent
    loops, failures = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.comprehension)) and any(
                getattr(part, "attr", getattr(part, "id", None)) == "trials" for part in ast.walk(child.iter)
            ):
                loops.add(scope)
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "RowFailure":
                failures.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert loops == {"experiments.ExperimentConfig.run"}, loops
    assert failures == {"experiments.ExperimentConfig.run"}, failures


def test_one_integer_width_rule():
    # the "past int64" bound, 2^63, is decided in `spectra.power_width` alone
    src = Path(importlib.import_module("steinerlab").__file__).parent
    owners = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 63:
                    owners.add(f"{path.stem}.{name}")
    assert owners == {"spectra.power_width"}, owners


def test_src_imports_no_sparse_linalg():
    # the extreme eigenvalue above the dense cap is a plain Lanczos recurrence, not ARPACK
    src = Path(importlib.import_module("steinerlab").__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [name for name in names if name.startswith("scipy.sparse.linalg")], path.name


def test_one_lanczos_solve():
    # the recurrence and its tridiagonal solve run in `spectra._lanczos_extreme` alone, called
    # by `spectra.restricted_extreme` alone; the tree count's zero threshold is the closed
    # form (d + 1) max degree, not a second Lanczos
    src = Path(importlib.import_module("steinerlab").__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if called in {"eigh_tridiagonal", "_lanczos_extreme"}:
                        callers.add(f"{path.stem}.{name}:{called}")
    assert callers == {"spectra._lanczos_extreme:eigh_tridiagonal", "spectra.restricted_extreme:_lanczos_extreme"}, callers
    trees = ast.parse((src / "trees.py").read_text())
    imported = {alias.name for node in ast.walk(trees) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_lanczos_extreme" not in imported


def test_the_restricted_solve_finds_the_smallest_eigenvalue_only():
    # the gap top is minus the smallest eigenvalue of -A, so the solve takes no end to find
    from steinerlab import spectra

    assert list(inspect.signature(spectra.restricted_extreme).parameters) == ["M", "n", "d"]
    assert "which" not in inspect.signature(spectra._lanczos_extreme).parameters
    src = Path(importlib.import_module("steinerlab").__file__).parent
    ends = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value in {"SA", "LA"}]
    assert not ends, ends


def test_one_face_order():
    # face ranks, the one face order of B's rows, delta's columns and the sampler's
    # cover check, come from `complexes.lex_ranks` alone; a sampled system is an
    # int64 block array, not a frozenset of vertex tuples
    src = Path(importlib.import_module("steinerlab").__file__).parent
    formulas = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and ("lex_rank" in node.name or "binom" in node.name):
                formulas.add(f"{path.stem}.{node.name}")
    assert formulas == {"complexes.lex_ranks"}, formulas
    sampling = ast.parse((src / "sampling.py").read_text())
    assert not [node for node in ast.walk(sampling) if isinstance(node, ast.Name) and node.id == "frozenset"]


def test_the_complex_owns_its_operators():
    # B and L = B B^T are built in `complexes.PureComplex` alone, once per complex;
    # every other layer reads `X.boundary`, `X.laplacian` and `X.adjacency`
    src = Path(importlib.import_module("steinerlab").__file__).parent
    builders = set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"\b(boundary_matrix|sparse_laplacian|signed_adjacency)\b", text), path.name
        tree = ast.parse(text)
        for top in tree.body:
            name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                gram = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                        and isinstance(node.right, ast.Attribute) and node.right.attr == "T"
                        and ast.dump(node.right.value) == ast.dump(node.left))
                incidence = (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_signed_incidence"
                             and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "faces")
                if gram or incidence:
                    builders.add(f"{path.stem}.{name}:{'gram' if gram else 'incidence'}")
    assert builders == {"complexes.PureComplex:gram", "complexes.PureComplex:incidence"}, builders


def test_one_operator_contract():
    # B, L and A are made canonical and read-only by `complexes._canonical_read_only`
    # alone, so scipy's in-place sorts leave them be and no layer copies one to sort it
    src = Path(importlib.import_module("steinerlab").__file__).parent
    helpers, copies = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                inner = list(ast.walk(node))
                sorts = any(isinstance(part, ast.Attribute) and part.attr in {"sum_duplicates", "sort_indices"}
                            for part in inner)
                freezes = any(isinstance(part, ast.Attribute) and part.attr == "writeable"
                              and isinstance(part.ctx, ast.Store) for part in inner)
                if sorts and freezes:
                    helpers.add(f"{path.stem}.{node.name}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "copy"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr in {"boundary", "laplacian", "adjacency"}):
                copies.append(f"{path.name}:{node.lineno}")
    assert helpers == {"complexes._canonical_read_only"}, helpers
    assert {path.name for path in src.glob("*.py") if "_canonical_read_only" in path.read_text()} == {"complexes.py"}
    assert not copies, copies
