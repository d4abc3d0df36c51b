"""Contract: every layer the end-to-end benchmark's tracer wraps exists.

``perfbench/tracer.py`` patches the ``repro`` callables named in its
``LAYER_TARGETS`` table, looking a class method up in its owner's
``__dict__`` and a function up as a module attribute.  The tracer's own
tests live outside the default ``tests`` collection, so this check keeps a
deletion or a move in ``src/`` that would break a traced benchmark run
from passing the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_TARGETS = _load_tracer().LAYER_TARGETS


@pytest.mark.parametrize(
    "name, module_name, attribute, kind",
    LAYER_TARGETS,
    ids=[f"{target[0]}:{target[2]}" for target in LAYER_TARGETS],
)
def test_layer_target_resolves(name, module_name, attribute, kind):
    module = importlib.import_module(module_name)
    if kind == "function":
        assert callable(getattr(module, attribute, None)), (
            f"{name}: {module_name} has no function {attribute}"
        )
        return
    class_name, method = attribute.split(".")
    owner = getattr(module, class_name, None)
    assert owner is not None, f"{name}: {module_name} has no class {class_name}"
    assert callable(owner.__dict__.get(method)), (
        f"{name}: {method} is not defined on {class_name} itself"
    )
