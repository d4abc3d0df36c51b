"""The count knobs of the training experiments (epochs, chain and beta
counts, figure 11's run budget).

Each must be an int at or above its minimum.  A string, a bool, a float or
a too-small count fails with a ``ValidationError`` naming the knob before
any data is built: a string once died as a ``TypeError`` deep inside a
trainer, after the dataset was built, and ``epochs=true`` trained for one
epoch.
"""

import pytest

from repro.api import run_experiment
from repro.api.cli import main
from repro.config import RunSpec
from repro.experiments import (
    fig7_logprob,
    fig8_noise,
    fig9_mae_noise,
    fig10_roc_noise,
    fig11_bias_kl,
    table4_accuracy,
)
from repro.utils.validation import ValidationError

#: experiment name -> {count knob: its smallest valid value}; figure7's
#: ``train_samples`` is covered in test_training_experiments.py.
COUNT_KNOBS = {
    "figure7": {"epochs": 2, "batch_size": 1, "ais_chains": 1, "ais_betas": 2,
                "gs_chains": 1},
    "table4": {"epochs": 1, "batch_size": 1, "gs_chains": 1, "train_samples": 1},
    "figure8": {"epochs": 1, "batch_size": 1, "ais_chains": 1, "ais_betas": 2},
    "figure9": {"epochs": 1},
    "figure10": {"epochs": 1, "roc_points": 2, "n_bins": 2},
    "figure11": {"n_visible": 1, "n_hidden": 1, "n_distributions": 1,
                 "runs_per_distribution": 1, "n_samples": 1, "ml_iterations": 1,
                 "cd_epochs": 1, "cd_long_k": 1},
}

CASES = [
    (name, knob, minimum)
    for name, knobs in COUNT_KNOBS.items()
    for knob, minimum in knobs.items()
]


@pytest.fixture
def no_data(monkeypatch):
    """Make every runner's data source fail, so a check that runs after
    the data is built shows up as an AssertionError."""

    def fail(*args, **kwargs):
        raise AssertionError("data was built before the count knobs were checked")

    for module in (fig7_logprob, table4_accuracy, fig8_noise, fig9_mae_noise,
                   fig10_roc_noise):
        monkeypatch.setattr(module, "load_benchmark_dataset", fail)
    monkeypatch.setattr(fig11_bias_kl, "_random_training_distribution", fail)


@pytest.mark.parametrize("bad", ["abc", True, 2.5, "below"])
@pytest.mark.parametrize("name, knob, minimum", CASES, ids=[f"{n}-{k}" for n, k, _ in CASES])
def test_bad_count_rejected_by_name_before_any_data(no_data, name, knob, minimum, bad):
    value = minimum - 1 if bad == "below" else bad
    spec = RunSpec(experiment=name).with_overrides(**{knob: value})
    with pytest.raises(ValidationError, match=knob):
        run_experiment(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "figure7", "--set", "epochs=abc"],
        ["run", "figure9", "--set", "epochs=abc"],
        ["run", "figure9", "--set", "epochs=true"],
        ["run", "figure10", "--set", "epochs=abc"],
        ["run", "figure10", "--set", "epochs=true"],
        ["run", "figure11", "--set", "n_distributions=abc"],
        ["run", "figure11", "--set", "cd_epochs=abc"],
        ["run", "figure11", "--set", "ml_iterations=abc"],
    ],
    ids=lambda argv: f"{argv[1]}-{argv[-1]}",
)
def test_cli_exits_2_naming_the_knob(no_data, capsys, argv):
    assert main(argv) == 2
    knob = argv[-1].split("=")[0]
    assert f"{knob} must be" in capsys.readouterr().err


@pytest.mark.parametrize("n_bins", [2, 16])
def test_figure10_n_bins_needs_onehot_before_any_data(no_data, n_bins):
    """``n_bins`` quantizes the one-hot encoding only; under the default
    ``direct`` encoding it once changed nothing, silently."""
    spec = RunSpec(experiment="figure10").with_overrides(n_bins=n_bins, encoding="direct")
    with pytest.raises(ValidationError, match="n_bins applies only to encoding='onehot'"):
        run_experiment(spec)
