"""Registry tests: coverage of all ten artifacts, preset round trips,
param validation, and run_spec metadata recording."""

import dataclasses

import pytest

from repro.api import get_experiment, list_experiments, run_experiment
from repro.api import registry
from repro.api.registry import runspec_from_legacy_config
from repro.config import ComputeSpec, RunSpec, ValidationError
from repro.experiments.fig7_logprob import PAPER_FIGURE7_CONFIG
from repro.experiments.table4_accuracy import PAPER_TABLE4_CONFIG

ALL_EXPERIMENTS = [
    "figure5", "figure6", "table2", "table3", "figure7",
    "table4", "figure8", "figure9", "figure10", "figure11",
]


class TestRegistryCoverage:
    def test_all_ten_artifacts_registered_in_order(self):
        assert [e.name for e in list_experiments()] == ALL_EXPERIMENTS

    def test_every_experiment_has_a_ci_preset(self):
        for experiment in list_experiments():
            assert "ci" in experiment.presets

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            get_experiment("figure99")

    def test_unknown_preset_rejected_with_available_list(self):
        with pytest.raises(ValidationError, match="available presets"):
            get_experiment("table2").preset("paper")


class TestSparsePresets:
    """The sparse MovieLens/fraud variants exposed by the run registry."""

    @pytest.mark.parametrize("name", ["figure9", "figure10"])
    def test_sparse_preset_replaces_streamed(self, name):
        experiment = get_experiment(name)
        assert "streamed" not in experiment.presets
        preset = experiment.preset("sparse")
        assert preset.preset == "sparse"
        kwargs = experiment.materialize_kwargs(preset)
        assert kwargs["engine"] == "gs"
        assert kwargs["encoding"] == "onehot"
        assert kwargs["sparse"] is True
        assert kwargs["epochs"] == 10
        assert "streaming" not in kwargs and "chunk_size" not in kwargs

    @pytest.mark.parametrize("name", ["figure9", "figure10"])
    def test_old_streamed_run_spec_fails_before_training(self, name, monkeypatch):
        """A RunSpec saved from a retired ``streamed`` preset names the two
        retired knobs and never reaches the runner."""
        old = RunSpec(
            experiment=name,
            preset="streamed",
            params={
                **get_experiment(name).preset("sparse").params,
                "streaming": True,
                "chunk_size": 64,
            },
        )
        experiment = get_experiment(name)
        monkeypatch.setitem(
            registry._REGISTRY,
            name,
            dataclasses.replace(
                experiment, runner=lambda **_: pytest.fail("runner was called")
            ),
        )
        with pytest.raises(ValidationError, match=r"chunk_size.*streaming"):
            run_experiment(old)


class TestPresetRoundTrips:
    """Satellite: RunSpec.from_dict(spec.to_dict()) == spec for every
    registered preset of every experiment."""

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_every_preset_survives_the_dict_round_trip(self, name):
        for preset_name, preset in get_experiment(name).presets.items():
            rebuilt = RunSpec.from_dict(preset.to_dict())
            assert rebuilt == preset, (name, preset_name)

    def test_paper_presets_match_the_legacy_config_dicts(self):
        """The declarative presets are conversions of the tuned dicts; the
        materialized runner kwargs must agree knob for knob."""
        for name, config in (
            ("figure7", PAPER_FIGURE7_CONFIG),
            ("table4", PAPER_TABLE4_CONFIG),
        ):
            experiment = get_experiment(name)
            kwargs = experiment.materialize_kwargs(experiment.presets["paper"])
            kwargs.pop("seed")
            assert kwargs == {
                key: (tuple(v) if isinstance(v, list) else v)
                for key, v in config.items()
            }

    @pytest.mark.parametrize("name", ["figure7", "table4"])
    def test_paper_presets_run_serial_kernels(self, name):
        """Sharding on top of a multi-threaded BLAS oversubscribes the cores,
        so the paper presets default to one worker."""
        assert get_experiment(name).preset("paper").compute.workers == 1


class TestMaterializeKwargs:
    def test_unknown_params_rejected(self):
        experiment = get_experiment("figure7")
        with pytest.raises(ValidationError, match="does not accept"):
            experiment.materialize_kwargs(
                RunSpec(experiment="figure7", params={"epohcs": 3})
            )

    def test_seed_on_seedless_experiment_rejected(self):
        experiment = get_experiment("table2")
        with pytest.raises(ValidationError, match="seed"):
            experiment.materialize_kwargs(RunSpec(experiment="table2", seed=3))

    def test_compute_knob_on_unthreaded_experiment_rejected(self):
        experiment = get_experiment("table2")
        with pytest.raises(ValidationError, match="workers"):
            experiment.materialize_kwargs(
                RunSpec(experiment="table2", compute=ComputeSpec(workers=4))
            )

    def test_default_compute_on_unthreaded_experiment_is_fine(self):
        experiment = get_experiment("table2")
        kwargs = experiment.materialize_kwargs(
            RunSpec(experiment="table2", compute=ComputeSpec())
        )
        assert kwargs == {}

    def test_scalar_overrides_for_sequence_knobs_wrap_into_tuples(self):
        """A bare --set datasets=mnist means a one-element sequence, not an
        iterable of characters."""
        experiment = get_experiment("figure7")
        kwargs = experiment.materialize_kwargs(
            RunSpec(
                experiment="figure7",
                params={"datasets": "mnist", "methods": "cd1"},
            )
        )
        assert kwargs["datasets"] == ("mnist",)
        assert kwargs["methods"] == ("cd1",)
        kwargs = get_experiment("table2").materialize_kwargs(
            RunSpec(experiment="table2", params={"node_counts": 400})
        )
        assert kwargs["node_counts"] == (400,)

    def test_compute_knobs_thread_into_figure7(self):
        experiment = get_experiment("figure7")
        kwargs = experiment.materialize_kwargs(
            RunSpec(
                experiment="figure7",
                seed=2,
                compute=ComputeSpec(dtype="float32", workers=4),
            )
        )
        assert kwargs["dtype"] == "float32"
        assert kwargs["workers"] == 4
        assert kwargs["seed"] == 2
        assert "fast_path" not in kwargs  # a retired knob, never threaded


class TestRunExperiment:
    def test_records_run_spec_in_metadata(self):
        result = run_experiment(RunSpec(experiment="table2"))
        recorded = result.metadata["run_spec"]
        assert recorded["experiment"] == "table2"
        assert recorded["preset"] == "ci"
        rebuilt = RunSpec.from_dict(recorded)
        assert rebuilt.experiment == "table2"

    def test_recorded_compute_is_concrete(self):
        result = run_experiment(
            RunSpec(experiment="figure5", compute=ComputeSpec())
        )
        assert result.metadata["run_spec"]["compute"] == {
            "dtype": "float64",
            "workers": 1,
        }

    def test_compute_recorded_even_without_a_compute_spec(self):
        """A compute-threading experiment run with compute=None records the
        default compute block that drove the kernels; a non-threading
        experiment stays compute: None (recording it would break replay
        validation)."""
        result = run_experiment(
            RunSpec(experiment="figure7").with_overrides(
                datasets=("mnist",), epochs=2, ais_chains=4, ais_betas=10,
                train_samples=16, methods=("cd1",),
            )
        )
        recorded = result.metadata["run_spec"]
        assert recorded["compute"] == {"dtype": "float64", "workers": 1}
        assert RunSpec.from_dict(recorded).compute == ComputeSpec()
        assert run_experiment(
            RunSpec(experiment="table2")
        ).metadata["run_spec"]["compute"] is None

    def test_rejects_non_runspec(self):
        with pytest.raises(ValidationError, match="RunSpec"):
            run_experiment({"experiment": "table2"})


class TestLegacyConfigConversion:
    def test_compute_knobs_split_out(self):
        spec = runspec_from_legacy_config(
            "figure7", {"scale": "paper", "dtype": "float32", "workers": 2}
        )
        assert spec.compute == ComputeSpec(dtype="float32", workers=2)
        assert spec.params == {"scale": "paper"}
        assert spec.preset == "paper"

    def test_seed_moves_to_the_typed_field(self):
        spec = runspec_from_legacy_config("figure8", {"seed": 9, "epochs": 2})
        assert spec.seed == 9
        assert spec.params == {"epochs": 2}
