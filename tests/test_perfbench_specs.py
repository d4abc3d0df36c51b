"""Contract: the end-to-end benchmark's run specs still build.

``perfbench/train_child.py`` builds the ``table4_bgf`` and ``figure7_gs``
workloads from registered presets through ``RunSpec.with_overrides``, and
``perfbench/tests/test_tracer.py`` builds a small figure7 spec the same way;
both still pass the retired ``workers`` knob.  Those files are loaded here
by path, so a spec-layer change that would break a benchmark run fails the
tier-1 suite.  The override keeps accepting a once-valid (positive int)
worker count and drops it; every other value fails naming ``workers``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.api import get_experiment
from repro.config import ComputeSpec, RunSpec, ValidationError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(path, name):
    """Load ``path`` as module ``name`` with ``perfbench/`` importable,
    leaving ``sys.path`` and the bare benchmark module names as found."""
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for added in set(sys.modules) - saved_modules:
            if added in ("run", "tracer", "train_child", "loadgen"):
                del sys.modules[added]
    return module


@pytest.fixture(scope="module")
def train_child():
    return _load(PERFBENCH / "train_child.py", "perfbench_train_child")


@pytest.fixture(scope="module")
def tracer_tests():
    return _load(PERFBENCH / "tests" / "test_tracer.py", "perfbench_test_tracer")


@pytest.mark.parametrize("workload", ["table4_bgf", "figure7_gs"])
def test_train_child_specs_build_and_materialize(train_child, workload):
    spec = train_child.build_spec(workload, seed=2)
    assert spec.seed == 2
    assert "workers" not in spec.params
    get_experiment(spec.experiment).materialize_kwargs(spec)


def test_figure7_gs_keeps_the_paper_tier(train_child):
    spec = train_child.build_spec("figure7_gs", seed=0)
    assert spec.compute == ComputeSpec(dtype="float32")


def test_tracer_test_specs_build(tracer_tests):
    for spec in tracer_tests._small_specs():
        get_experiment(spec.experiment).materialize_kwargs(spec)


@pytest.mark.parametrize("name", ["figure7", "table4"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_positive_workers_override_changes_nothing(name, workers):
    preset = get_experiment(name).preset("paper")
    assert preset.with_overrides(workers=workers).to_dict() == preset.to_dict()
    cut = preset.with_overrides(epochs=2)
    assert cut.with_overrides(workers=workers).to_dict() == cut.to_dict()


@pytest.mark.parametrize("workers", [0, -1, True, "4", 2.5])
def test_other_workers_overrides_fail_naming_the_knob(workers):
    with pytest.raises(ValidationError, match="workers"):
        get_experiment("figure7").preset("paper").with_overrides(workers=workers)


def test_parent_era_compute_dict_loads_dtype_only():
    stored = {"dtype": "float32", "workers": 2}
    assert ComputeSpec.from_dict(stored) == ComputeSpec(dtype="float32")
    run = RunSpec.from_dict({"experiment": "figure7", "compute": stored})
    assert run.to_dict()["compute"] == {"dtype": "float32"}
