import importlib
import inspect

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
