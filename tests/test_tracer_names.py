"""Every name the benchmark tracer wraps must exist in dustlab.

``perfbench/tracer.py`` patches functions and methods by name; a renamed
or deleted one breaks the traced benchmark run.  The tracer is loaded from
its file, as the benchmark loads it, and is not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,name", [(m, f) for m, names in tracer.FUNCTIONS.items()
                                         for f in names])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"dustlab.{module}"), name, None))


@pytest.mark.parametrize("module,cls,method", tracer.METHODS)
def test_traced_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(f"dustlab.{module}"), cls)
    assert callable(vars(owner).get(method))
