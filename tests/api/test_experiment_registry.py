"""Registry tests: coverage of all ten artifacts, preset round trips,
param validation, and run_spec metadata recording."""

import pytest

from repro.api import get_experiment, list_experiments, run_experiment
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


class TestStreamedPresets:
    """The streamed MovieLens/fraud variants exposed by the run registry."""

    @pytest.mark.parametrize("name", ["figure9", "figure10"])
    def test_streamed_preset_registered(self, name):
        preset = get_experiment(name).preset("streamed")
        assert preset.preset == "streamed"
        kwargs = get_experiment(name).materialize_kwargs(preset)
        assert kwargs["engine"] == "gs"
        assert kwargs["encoding"] == "onehot"
        assert kwargs["sparse"] is True
        assert kwargs["streaming"] is True
        assert kwargs["chunk_size"] >= 1


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
        assert "fast_path" not in kwargs  # figure7 does not thread it


class TestRunExperiment:
    def test_records_resolved_run_spec_in_metadata(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        result = run_experiment(RunSpec(experiment="table2"))
        recorded = result.metadata["run_spec"]
        assert recorded["experiment"] == "table2"
        assert recorded["preset"] == "ci"
        rebuilt = RunSpec.from_dict(recorded)
        assert rebuilt.experiment == "table2"

    def test_resolved_compute_is_concrete(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = run_experiment(
            RunSpec(experiment="figure5", compute=ComputeSpec())
        )
        assert result.metadata["run_spec"]["compute"]["workers"] == 2

    def test_env_driven_compute_recorded_even_without_a_compute_spec(
        self, monkeypatch
    ):
        """A compute-threading experiment run with compute=None still records
        the environment default that actually drove the kernels, so the
        recorded spec reproduces on another host; a non-threading experiment
        stays compute: None (recording it would break replay validation)."""
        monkeypatch.setenv("REPRO_WORKERS", "garbage")
        with pytest.raises(ValidationError, match="REPRO_WORKERS"):
            run_experiment(
                RunSpec(experiment="figure7").with_overrides(
                    datasets=("mnist",), epochs=2, ais_chains=4, ais_betas=10,
                    train_samples=16, methods=("cd1",),
                )
            )
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = run_experiment(
            RunSpec(experiment="figure7").with_overrides(
                datasets=("mnist",), epochs=2, ais_chains=4, ais_betas=10,
                train_samples=16, methods=("cd1",),
            )
        )
        recorded = result.metadata["run_spec"]
        assert recorded["compute"]["workers"] == 2
        assert run_experiment(
            RunSpec(experiment="table2")
        ).metadata["run_spec"]["compute"] is None

    def test_garbage_env_fails_before_running(self, monkeypatch):
        """A spec that defers workers to the environment fails loudly (naming
        REPRO_WORKERS) at resolve time, before the experiment starts."""
        monkeypatch.setenv("REPRO_WORKERS", "garbage")
        with pytest.raises(ValidationError, match="REPRO_WORKERS"):
            run_experiment(
                RunSpec(experiment="table2", compute=ComputeSpec())
            )

    def test_rejects_non_runspec(self):
        with pytest.raises(ValidationError, match="RunSpec"):
            run_experiment({"experiment": "table2"})


class TestLegacyConfigConversion:
    def test_compute_knobs_split_out(self):
        spec = runspec_from_legacy_config(
            "figure7", {"scale": "paper", "dtype": "float32", "workers": "auto"}
        )
        assert spec.compute == ComputeSpec(dtype="float32", workers="auto")
        assert spec.params == {"scale": "paper"}
        assert spec.preset == "paper"

    def test_seed_moves_to_the_typed_field(self):
        spec = runspec_from_legacy_config("figure8", {"seed": 9, "epochs": 2})
        assert spec.seed == 9
        assert spec.params == {"epochs": 2}
