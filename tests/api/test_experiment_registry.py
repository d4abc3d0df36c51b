"""Registry tests: coverage of all ten artifacts, preset round trips,
param validation, and run_spec metadata recording."""

import dataclasses

import pytest

from repro.api import get_experiment, list_experiments, run_experiment
from repro.api import registry
from repro.config import ComputeSpec, RunSpec, ValidationError

ALL_EXPERIMENTS = [
    "figure5", "figure6", "table2", "table3", "figure7",
    "table4", "figure8", "figure9", "figure10", "figure11",
]


def _snapshot(experiment, preset="ci", *, compute=None, **params):
    return {
        "experiment": experiment,
        "preset": preset,
        "seed": 0,
        "compute": compute,
        "params": params,
    }


PAPER_COMPUTE = {"dtype": "float32"}

#: Every registered preset's ``to_dict()``, written out as data: changing a
#: tuned value, or adding or dropping a preset, has to change this table.
#: perfbench's ``figure7_gs`` workload is built from the figure7 paper
#: preset, so this table also keeps that workload's spec fixed.
PRESET_SNAPSHOTS = {
    **{(name, "ci"): _snapshot(name) for name in ALL_EXPERIMENTS},
    ("figure7", "paper"): _snapshot(
        "figure7", "paper",
        compute=PAPER_COMPUTE,
        datasets=["mnist", "kmnist"],
        scale="paper",
        epochs=5,
        methods=["cd1", "BGF"],
        gs_chains=64,
        ais_chains=64,
        ais_betas=500,
    ),
    ("table4", "paper"): _snapshot(
        "table4", "paper",
        compute=PAPER_COMPUTE,
        image_benchmarks=["mnist", "kmnist"],
        include_dbn=False,
        include_recommender=False,
        include_anomaly=False,
        scale="paper",
        epochs=10,
        gs_chains=8,
    ),
    ("figure8", "paper"): _snapshot("figure8", "paper", scale="paper"),
    ("figure9", "paper"): _snapshot("figure9", "paper", scale="paper"),
    ("figure9", "sparse"): _snapshot(
        "figure9", "sparse", engine="gs", encoding="onehot", sparse=True, epochs=10
    ),
    ("figure10", "paper"): _snapshot("figure10", "paper", scale="paper"),
    ("figure10", "sparse"): _snapshot(
        "figure10", "sparse",
        engine="gs", encoding="onehot", n_bins=16, sparse=True, epochs=10,
    ),
}


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

    def test_the_snapshot_names_every_registered_preset(self):
        registered = {
            (experiment.name, preset)
            for experiment in list_experiments()
            for preset in experiment.presets
        }
        assert registered == set(PRESET_SNAPSHOTS)

    @pytest.mark.parametrize(
        "name, preset", list(PRESET_SNAPSHOTS), ids="/".join
    )
    def test_preset_matches_its_snapshot(self, name, preset):
        assert get_experiment(name).preset(preset).to_dict() == PRESET_SNAPSHOTS[
            (name, preset)
        ]

    @pytest.mark.parametrize("name", ["figure7", "table4"])
    def test_paper_preset_drops_a_workers_override(self, name):
        """perfbench cuts the paper presets with ``with_overrides(...,
        workers=1)``; the retired knob's override changes nothing."""
        preset = get_experiment(name).preset("paper")
        spec = preset.with_overrides(workers=1)
        assert spec.to_dict() == preset.to_dict()
        get_experiment(name).materialize_kwargs(spec)


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
        with pytest.raises(ValidationError, match="dtype"):
            experiment.materialize_kwargs(
                RunSpec(experiment="table2", compute=ComputeSpec(dtype="float32"))
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
                compute=ComputeSpec(dtype="float32"),
            )
        )
        assert kwargs["dtype"] == "float32"
        assert kwargs["seed"] == 2
        # Retired knobs are never threaded.
        assert "fast_path" not in kwargs and "workers" not in kwargs


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
        assert result.metadata["run_spec"]["compute"] == {"dtype": "float64"}

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
        assert recorded["compute"] == {"dtype": "float64"}
        assert RunSpec.from_dict(recorded).compute == ComputeSpec()
        assert run_experiment(
            RunSpec(experiment="table2")
        ).metadata["run_spec"]["compute"] is None

    def test_rejects_non_runspec(self):
        with pytest.raises(ValidationError, match="RunSpec"):
            run_experiment({"experiment": "table2"})


class TestOverrideRouting:
    def test_compute_knobs_split_out(self):
        spec = RunSpec(experiment="figure7").with_overrides(
            scale="paper", dtype="float32"
        )
        assert spec.compute == ComputeSpec(dtype="float32")
        assert spec.params == {"scale": "paper"}
        assert spec.preset == "custom"

    def test_seed_moves_to_the_typed_field(self):
        spec = RunSpec(experiment="figure8").with_overrides(seed=9, epochs=2)
        assert spec.seed == 9
        assert spec.params == {"epochs": 2}
