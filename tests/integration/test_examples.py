"""Smoke tests for the runnable examples.

Only the fast examples are executed end-to-end (the training-heavy ones are
covered indirectly through the experiment-driver tests); the rest are
checked for importability so a broken import cannot ship.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = [
    "quickstart.py",
    "image_classification.py",
    "recommender_system.py",
    "anomaly_detection.py",
    "hardware_projection.py",
]


def _load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_examples_directory_has_all_scripts(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        for expected in ALL_EXAMPLES:
            assert expected in names

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_imports_and_defines_main(self, name):
        module = _load_example(name)
        assert callable(getattr(module, "main", None)), f"{name} must define main()"


class TestFastExamplesRun:
    def test_hardware_projection_runs(self, capsys):
        module = _load_example("hardware_projection.py")
        module.main()
        output = capsys.readouterr().out
        assert "GeoMean" in output
        assert "TIMELY" in output
