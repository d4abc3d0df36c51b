"""The dataset-name knobs of figure 7 (``datasets``), table 4
(``image_benchmarks``) and figure 8 (``dataset_name``).

Every entry must be a registered benchmark name; a non-string or unknown
entry fails naming the knob before any data is built, so a bad entry late
in a list fails before the earlier datasets train.
"""

import pytest

from repro.api import run_experiment
from repro.api.cli import main
from repro.config import RunSpec
from repro.experiments import fig7_logprob, fig8_noise, table4_accuracy
from repro.utils.validation import ValidationError

#: experiment name -> (runner module, knob, whether the knob is a sequence)
KNOBS = {
    "figure7": (fig7_logprob, "datasets", True),
    "table4": (table4_accuracy, "image_benchmarks", True),
    "figure8": (fig8_noise, "dataset_name", False),
}


@pytest.fixture
def no_data(monkeypatch):
    """Make every runner's dataset loader fail, so a check that passes
    data construction shows up as an AssertionError."""

    def fail(*args, **kwargs):
        raise AssertionError("data was built before the dataset names were checked")

    for module, _, _ in KNOBS.values():
        monkeypatch.setattr(module, "load_benchmark_dataset", fail)


@pytest.mark.parametrize("bad", [3, True, None, 2.5, "nope"])
@pytest.mark.parametrize("name", list(KNOBS))
def test_bad_entry_rejected_before_any_data(no_data, name, bad):
    _, knob, is_sequence = KNOBS[name]
    value = ("mnist", bad) if is_sequence else bad
    spec = RunSpec(experiment=name).with_overrides(**{knob: value})
    with pytest.raises(ValidationError, match=knob):
        run_experiment(spec)


@pytest.mark.parametrize("name", ["figure7", "table4"])
def test_bare_string_for_a_name_list_rejected(no_data, name):
    module, knob, _ = KNOBS[name]
    runner = getattr(module, f"run_{name}")
    with pytest.raises(ValidationError, match=knob):
        runner(**{knob: "mnist"})


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "figure7", "--set", "datasets=3"],
        ["run", "table4", "--set", "image_benchmarks=true"],
        ["run", "figure8", "--set", "dataset_name=5"],
    ],
    ids=["figure7", "table4", "figure8"],
)
def test_cli_exits_2_naming_the_knob(no_data, capsys, argv):
    assert main(argv) == 2
    knob = argv[-1].split("=")[0]
    assert knob in capsys.readouterr().err
