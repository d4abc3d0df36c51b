"""The ``noise_configs`` knob of figures 8-10.

Entries are :class:`~repro.config.NoiseSpec` values or their ``to_dict()``
mappings; anything else fails naming the knob before any data is built.
A ``RunSpec`` records the entries as those mappings, so a custom sweep's
recorded spec is plain JSON data that replays to the same rows.
"""

import json

import pytest

from repro.api import run_experiment
from repro.config import NoiseSpec, RunSpec
from repro.experiments import fig8_noise, fig9_mae_noise, fig10_roc_noise
from repro.utils.validation import ValidationError

RUNNERS = {
    "figure8": (fig8_noise, fig8_noise.run_figure8),
    "figure9": (fig9_mae_noise, fig9_mae_noise.run_figure9),
    "figure10": (fig10_roc_noise, fig10_roc_noise.run_figure10),
}

BAD_VALUES = {
    "float": 0.1,
    "pair": (0.1, 0.1),
    "string": "0.1_0.1",
    "empty": (),
    "bare-spec": NoiseSpec(0.1, 0.1),
    "bare-mapping": {"variation_rms": 0.1, "noise_rms": 0.1},
    "negative-rms": ({"variation_rms": -0.1, "noise_rms": 0.0},),
    "unknown-key": ({"variation": 0.1},),
    "mixed": (NoiseSpec(), 0.3),
}


@pytest.fixture
def no_data(monkeypatch):
    """Make every runner's dataset loader fail, so a check that passes
    data construction shows up as an AssertionError."""

    def fail(*args, **kwargs):
        raise AssertionError("data was built before noise_configs was checked")

    for module, _ in RUNNERS.values():
        monkeypatch.setattr(module, "load_benchmark_dataset", fail)


@pytest.mark.parametrize("bad", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
@pytest.mark.parametrize("name", list(RUNNERS))
def test_bad_entries_rejected_before_any_data(no_data, name, bad):
    _, runner = RUNNERS[name]
    with pytest.raises(ValidationError, match="noise_configs"):
        runner(noise_configs=bad)


@pytest.mark.parametrize("value", [0.1, (0.1, 0.1), "abc"], ids=["float", "pair", "string"])
@pytest.mark.parametrize("name", list(RUNNERS))
def test_set_override_rejected_before_any_data(no_data, name, value):
    """What ``--set noise_configs=...`` can produce: a number, a tuple of
    numbers or a string."""
    spec = RunSpec(experiment=name).with_overrides(noise_configs=value)
    with pytest.raises(ValidationError, match="noise_configs"):
        run_experiment(spec)


def test_run_spec_stores_noise_specs_as_plain_data():
    spec = RunSpec(
        experiment="figure8",
        params={"noise_configs": (NoiseSpec(), NoiseSpec(0.1, 0.2))},
    )
    assert spec.params["noise_configs"] == (
        {"variation_rms": 0.0, "noise_rms": 0.0},
        {"variation_rms": 0.1, "noise_rms": 0.2},
    )
    assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


@pytest.mark.parametrize(
    "name, params",
    [
        ("figure8", {"epochs": 1, "ais_chains": 8, "ais_betas": 20}),
        ("figure9", {"epochs": 1}),
        ("figure10", {"epochs": 1}),
    ],
)
def test_recorded_custom_sweep_replays_to_identical_rows(name, params):
    sweep = (NoiseSpec(), NoiseSpec(0.1, 0.1))
    result = run_experiment(
        RunSpec(experiment=name, params={**params, "noise_configs": sweep})
    )
    assert {row["noise_config"] for row in result.rows} == {"0_0", "0.1_0.1"}
    recorded = json.loads(json.dumps(result.metadata["run_spec"]))
    replay = run_experiment(RunSpec.from_dict(recorded))
    assert replay.rows == result.rows
