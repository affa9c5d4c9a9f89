import ast
import importlib
import inspect
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
    import steinerlab

    layers = [importlib.import_module(f"steinerlab.{layer}") for layer in LAYERS]
    for name, obj in vars(steinerlab).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        assert any(name in m.__all__ and vars(m)[name] is obj for m in layers), (
            f"steinerlab exports {name}, which no layer lists in its __all__"
        )


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
    # the full spectrum is an output only of `spectrum`; every other route is sparse
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
    assert callers == {"spectra.spectral_summary"}


@pytest.mark.parametrize("needle", ["LinearOperator(", "coboundary_matrix(", "frexp"])
def test_one_restricted_eigensolve(needle):
    # delta, the shift and the deflated operator live in `spectra.restricted_extreme` alone
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
