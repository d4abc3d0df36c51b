"""Golden-schema regression tests for the fig7/table4 summary contracts.

The paper-scale wiring (``scale="paper"``, ``dtype``, ``train_samples``,
method subsetting) rides on the same drivers that produce the CI-scale
artifacts, so these tests pin the *shape* of the CI-scale output — exact
row keys, value types, finiteness, metadata keys — independently of the
numeric values.  A knob that silently adds, drops, or retypes a column
fails here even if every trend test still passes.
"""

import math

import numpy as np
import pytest

from repro.api import run_experiment
from repro.config import RunSpec
from repro.experiments.fig7_logprob import (
    PAPER_FIGURE7_CONFIG,
    run_figure7,
    run_figure7_paper,
)
from repro.experiments.table4_accuracy import PAPER_TABLE4_CONFIG, run_table4

RUN_SPEC_KEYS = {"experiment", "preset", "seed", "compute", "params"}
COMPUTE_KEYS = {"dtype", "workers", "fast_path"}

FIG7_ROW_KEYS = {"dataset", "method", "epoch", "avg_log_probability"}
FIG7_METADATA_KEYS = {
    "datasets", "scale", "epochs", "learning_rate", "gs_chains", "methods",
    "dtype", "train_samples", "workers", "seed",
}
TABLE4_ROW_KEYS = {
    "benchmark", "metric", "rbm_cd10", "rbm_bgf", "dbn_cd10", "dbn_bgf",
}
TABLE4_METADATA_KEYS = {
    "scale", "epochs", "learning_rate", "gs_chains", "dtype", "train_samples",
    "workers", "seed",
}


@pytest.fixture(scope="module")
def fig7_ci():
    return run_figure7(
        datasets=("mnist",), epochs=2, ais_chains=8, ais_betas=20,
        train_samples=80, seed=0,
    )


@pytest.fixture(scope="module")
def table4_ci():
    return run_table4(
        image_benchmarks=("mnist",), include_dbn=False,
        include_recommender=False, include_anomaly=False,
        epochs=2, train_samples=100, seed=0,
    )


class TestFigure7Schema:
    def test_row_keys_exact(self, fig7_ci):
        for row in fig7_ci.rows:
            assert set(row) == FIG7_ROW_KEYS

    def test_row_value_types(self, fig7_ci):
        for row in fig7_ci.rows:
            assert isinstance(row["dataset"], str)
            assert isinstance(row["method"], str)
            assert isinstance(row["epoch"], int) and not isinstance(
                row["epoch"], bool
            )
            assert type(row["avg_log_probability"]) is float
            assert math.isfinite(row["avg_log_probability"])

    def test_methods_and_epoch_grid(self, fig7_ci):
        methods = {row["method"] for row in fig7_ci.rows}
        assert methods == {"cd1", "cd10", "BGF"}
        for method in methods:
            epochs = sorted(
                row["epoch"] for row in fig7_ci.rows if row["method"] == method
            )
            assert epochs == [0, 1, 2]  # shared initial point + 2 epochs

    def test_metadata_keys_exact(self, fig7_ci):
        assert set(fig7_ci.metadata) == FIG7_METADATA_KEYS
        assert fig7_ci.metadata["scale"] == "ci"
        assert fig7_ci.metadata["dtype"] == "float64"

    def test_new_knobs_do_not_change_row_schema(self):
        """The precision/subset knobs must not perturb the column contract."""
        result = run_figure7(
            datasets=("mnist",), epochs=2, ais_chains=6, ais_betas=12,
            methods=("cd1",), gs_chains=3, dtype="float32", train_samples=48,
            seed=1,
        )
        for row in result.rows:
            assert set(row) == FIG7_ROW_KEYS
        assert {row["method"] for row in result.rows} == {"cd1", "gs-pcd3"}
        assert set(result.metadata) == FIG7_METADATA_KEYS

    def test_paper_preset_resolves_to_known_knobs(self):
        """The paper preset only sets knobs the driver declares (so it can
        never fork the schema), and override forwarding works."""
        assert set(PAPER_FIGURE7_CONFIG) < FIG7_METADATA_KEYS | {"ais_chains", "ais_betas"}
        with pytest.raises(TypeError):
            run_figure7_paper(unknown_knob=1)


class TestTable4Schema:
    def test_row_keys_exact(self, table4_ci):
        for row in table4_ci.rows:
            assert set(row) == TABLE4_ROW_KEYS

    def test_row_value_types(self, table4_ci):
        for row in table4_ci.rows:
            assert isinstance(row["benchmark"], str)
            assert row["metric"] == "accuracy"
            for key in ("rbm_cd10", "rbm_bgf"):
                assert isinstance(row[key], float)
                assert 0.0 <= row[key] <= 1.0
            # DBN disabled at this scale: placeholders must be NaN floats,
            # not missing keys.
            assert math.isnan(row["dbn_cd10"]) and math.isnan(row["dbn_bgf"])

    def test_metadata_keys_exact(self, table4_ci):
        assert set(table4_ci.metadata) == TABLE4_METADATA_KEYS
        assert table4_ci.metadata["scale"] == "ci"
        assert table4_ci.metadata["dtype"] == "float64"

    def test_gs_chains_adds_exactly_one_column(self):
        result = run_table4(
            image_benchmarks=("mnist",), include_dbn=False,
            include_recommender=False, include_anomaly=False,
            epochs=2, train_samples=64, gs_chains=4, dtype="float32", seed=2,
        )
        for row in result.rows:
            assert set(row) == TABLE4_ROW_KEYS | {"rbm_gs"}
            assert isinstance(row["rbm_gs"], float)
            assert np.isfinite(row["rbm_gs"])

    def test_paper_preset_resolves_to_known_knobs(self):
        assert set(PAPER_TABLE4_CONFIG) < TABLE4_METADATA_KEYS | {
            "image_benchmarks", "include_dbn", "include_recommender",
            "include_anomaly",
        }


class TestRunSpecMetadataSchema:
    """Satellite: results produced through repro.api carry the resolved
    RunSpec under metadata["run_spec"], with a frozen key contract."""

    @pytest.fixture(scope="class")
    def spec_result(self, request):
        monkeypatch = pytest.MonkeyPatch()
        request.addfinalizer(monkeypatch.undo)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        spec = RunSpec(experiment="figure7").with_overrides(
            datasets=("mnist",), epochs=2, ais_chains=6, ais_betas=12,
            train_samples=48, methods=("cd1",), seed=1,
        )
        return spec, run_experiment(spec)

    def test_run_spec_key_contract(self, spec_result):
        _, result = spec_result
        recorded = result.metadata["run_spec"]
        assert set(recorded) == RUN_SPEC_KEYS
        assert recorded["experiment"] == "figure7"
        assert recorded["preset"] == "custom"
        assert recorded["seed"] == 1

    def test_recorded_spec_round_trips(self, spec_result):
        spec, result = spec_result
        rebuilt = RunSpec.from_dict(result.metadata["run_spec"])
        # figure7 threads compute knobs, so the recorded spec fills in the
        # resolved environment defaults (REPRO_WORKERS cleared -> workers=1)
        # even though the input spec left compute unset; resolving is
        # idempotent, so a second resolve must be the identity.
        from repro.config import ComputeSpec

        assert rebuilt == spec.resolve().replace(compute=ComputeSpec().resolve())
        assert rebuilt.resolve() == rebuilt

    def test_driver_metadata_still_present_alongside_run_spec(self, spec_result):
        _, result = spec_result
        assert set(result.metadata) == FIG7_METADATA_KEYS | {"run_spec"}

    def test_resolved_compute_schema(self):
        result = run_experiment(
            RunSpec(experiment="table2").with_overrides(node_counts=(400,))
        )
        recorded = result.metadata["run_spec"]
        assert recorded["compute"] is None or set(recorded["compute"]) == COMPUTE_KEYS
        assert recorded["params"] == {"node_counts": [400]}
