"""Tests for the training-based experiment drivers (Figures 7-11, Table 4).

These use heavily reduced parameters (one or two datasets, few epochs, small
AIS settings) so the whole module stays within CI time while still checking
the *claims* each driver is meant to reproduce.
"""

import numpy as np
import pytest

from repro.api import get_experiment, run_experiment
from repro.config import NoiseSpec
from repro.experiments.fig7_logprob import format_figure7, run_figure7, trajectories
from repro.experiments.fig8_noise import final_logprob_by_config, format_figure8, run_figure8
from repro.experiments.fig9_mae_noise import format_figure9, mae_by_config, run_figure9
from repro.experiments.fig10_roc_noise import auc_by_config, format_figure10, run_figure10
from repro.experiments.fig11_bias_kl import (
    cdf_points,
    format_figure11,
    kl_samples_by_method,
    run_figure11,
)
from repro.experiments.table4_accuracy import format_table4, run_table4
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def figure7_result():
    return run_figure7(
        datasets=("mnist",), epochs=6, ais_chains=20, ais_betas=60, seed=0
    )


@pytest.fixture(scope="module")
def figure8_result():
    return run_figure8(
        noise_configs=(NoiseSpec(0.0, 0.0), NoiseSpec(0.1, 0.1), NoiseSpec(0.3, 0.3)),
        epochs=6, ais_chains=20, ais_betas=60, seed=0,
    )


@pytest.fixture(scope="module")
def table4_result():
    return run_table4(
        image_benchmarks=("mnist",),
        include_dbn=False,
        include_recommender=True,
        include_anomaly=True,
        epochs=15,
        seed=0,
    )


class TestFigure7:
    def test_row_structure(self, figure7_result):
        assert set(figure7_result.rows[0]) == {
            "dataset", "method", "epoch", "avg_log_probability",
        }
        methods = {row["method"] for row in figure7_result.rows}
        assert methods == {"cd1", "cd10", "BGF"}

    def test_trajectories_start_from_shared_initial_point(self, figure7_result):
        series = trajectories(figure7_result)["mnist"]
        initial_values = {method: values[0] for method, values in series.items()}
        assert len(set(np.round(list(initial_values.values()), 6))) == 1

    def test_log_probability_rises_for_every_method(self, figure7_result):
        """Figure 7's trend: trajectories increase substantially over training."""
        for method, values in trajectories(figure7_result)["mnist"].items():
            assert values[-1] > values[0] + 0.3, method

    def test_bgf_tracks_cd_quality(self, figure7_result):
        """The BGF improvement is comparable to the CD-10 improvement."""
        series = trajectories(figure7_result)["mnist"]
        cd10_gain = series["cd10"][-1] - series["cd10"][0]
        bgf_gain = series["BGF"][-1] - series["BGF"][0]
        assert bgf_gain > 0.4 * cd10_gain

    def test_epoch_count(self, figure7_result):
        series = trajectories(figure7_result)["mnist"]
        for values in series.values():
            assert len(values) == 7  # initial point + 6 epochs

    def test_formatting(self, figure7_result):
        text = format_figure7(figure7_result)
        assert "improvement" in text

    def test_rejects_too_few_epochs(self):
        with pytest.raises(Exception):
            run_figure7(epochs=1)

    @pytest.mark.parametrize("train_samples", [7, 10_000])
    def test_train_samples_builds_only_the_rows_it_reads(self, monkeypatch, train_samples):
        """Building just the training prefix gives the rows of a run that
        builds the whole dataset and slices it."""
        import repro.experiments.fig7_logprob as fig7

        def run():
            return fig7.run_figure7(
                datasets=("mnist",), epochs=2, ais_chains=8, ais_betas=20,
                gs_chains=4, train_samples=train_samples, seed=3,
            ).rows

        calls = []
        real_loader = fig7.load_benchmark_dataset

        def full_loader(name, *, train_rows=None, **kwargs):
            calls.append(train_rows)
            return real_loader(name, **kwargs)

        prefix_rows = run()
        monkeypatch.setattr(fig7, "load_benchmark_dataset", full_loader)
        assert run() == prefix_rows
        assert calls == [train_samples]

    @pytest.mark.parametrize("train_samples", [0, -5, 2.5])
    def test_rejects_bad_train_samples(self, train_samples):
        with pytest.raises(ValidationError, match="train_samples"):
            run_figure7(datasets=("mnist",), epochs=2, train_samples=train_samples)


class TestFigure8:
    def test_all_configs_present(self, figure8_result):
        finals = final_logprob_by_config(figure8_result)
        assert set(finals) == {"0_0", "0.1_0.1", "0.3_0.3"}

    def test_training_improves_under_every_noise_level(self, figure8_result):
        rows = figure8_result.rows
        by_config = {}
        for row in rows:
            by_config.setdefault(row["noise_config"], []).append(row["avg_log_probability"])
        for config, series in by_config.items():
            assert series[-1] > series[0], config

    def test_moderate_noise_is_harmless(self, figure8_result):
        """Fig. 8's claim: up to ~10% RMS the final quality is essentially
        unchanged relative to the ideal substrate."""
        finals = final_logprob_by_config(figure8_result)
        ideal = finals["0_0"]
        assert abs(finals["0.1_0.1"] - ideal) < 1.5

    def test_formatting(self, figure8_result):
        assert "noise_config" in format_figure8(figure8_result)


class TestTable4:
    def test_row_structure(self, table4_result):
        benchmarks = [row["benchmark"] for row in table4_result.rows]
        assert benchmarks == ["mnist", "recommender", "anomaly"]

    def test_image_accuracy_close_between_methods(self, table4_result):
        row = table4_result.row_by("benchmark", "mnist")
        assert row["rbm_cd10"] > 0.5
        assert row["rbm_bgf"] > 0.5
        assert abs(row["rbm_cd10"] - row["rbm_bgf"]) < 0.15

    def test_recommender_beats_baseline_for_both_methods(self, table4_result):
        row = table4_result.row_by("benchmark", "recommender")
        assert row["rbm_cd10"] < 1.5
        assert row["rbm_bgf"] < 1.5

    def test_anomaly_auc_high_for_both_methods(self, table4_result):
        row = table4_result.row_by("benchmark", "anomaly")
        assert row["rbm_cd10"] > 0.85
        assert row["rbm_bgf"] > 0.85
        assert abs(row["rbm_cd10"] - row["rbm_bgf"]) < 0.08

    def test_formatting(self, table4_result):
        text = format_table4(table4_result)
        assert "benchmark" in text and "rbm_bgf" in text


class TestWorkersShardsOnlyTheGS:
    """``--set workers=k`` reaches the GS trainer and the AIS estimator;
    the BGF's per-sample loop is serial, so its spec carries the dtype
    alone and its rows do not move with ``workers``."""

    def test_table4_bgf_rows_equal_across_workers(self):
        rows = {
            workers: run_experiment(
                get_experiment("table4").preset("ci").with_overrides(
                    image_benchmarks=("mnist",), include_dbn=False,
                    include_recommender=False, include_anomaly=False,
                    epochs=2, train_samples=60, gs_chains=4, workers=workers,
                )
            ).rows
            for workers in (1, 2)
        }
        assert [row["rbm_bgf"] for row in rows[2]] == [row["rbm_bgf"] for row in rows[1]]

    def test_figure7_bgf_runs_at_two_workers(self):
        result = run_experiment(
            get_experiment("figure7").preset("ci").with_overrides(
                datasets=("mnist",), methods=("BGF",), epochs=2, train_samples=40,
                ais_chains=4, ais_betas=10, workers=2,
            )
        )
        assert {row["method"] for row in result.rows} == {"BGF"}


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(
            noise_configs=(NoiseSpec(0.0, 0.0), NoiseSpec(0.3, 0.3)),
            epochs=20, seed=0,
        )

    def test_mae_reported_per_config(self, result):
        maes = mae_by_config(result)
        assert set(maes) == {"0_0", "0.3_0.3"}

    def test_mae_band_is_narrow(self, result):
        """Fig. 9: the final MAE varies only slightly across noise levels."""
        maes = list(mae_by_config(result).values())
        assert max(maes) - min(maes) < 0.2

    def test_mae_beats_baseline(self, result):
        for row in result.rows:
            assert row["mae"] < row["baseline_mae"] * 1.05

    def test_formatting(self, result):
        assert "baseline_mae" in format_figure9(result)

    def test_engine_validated(self):
        with pytest.raises(ValidationError):
            run_figure9(engine="tpu")

    def test_sparse_requires_gs_engine(self):
        with pytest.raises(ValidationError):
            run_figure9(engine="bgf", sparse=True)


@pytest.mark.sparse
class TestFigure9Sparse:
    """The registry's sparse MovieLens variant at CI scale."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(
            noise_configs=(NoiseSpec(0.0, 0.0),),
            epochs=12,
            engine="gs",
            encoding="onehot",
            sparse=True,
            seed=0,
        )

    def test_metadata_records_the_sparse_configuration(self, result):
        assert result.metadata["engine"] == "gs"
        assert result.metadata["encoding"] == "onehot"
        assert result.metadata["sparse"] is True
        assert "streaming" not in result.metadata

    def test_mae_beats_baseline(self, result):
        for row in result.rows:
            assert row["mae"] < row["baseline_mae"] * 1.05


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10(
            noise_configs=(NoiseSpec(0.0, 0.0), NoiseSpec(0.3, 0.3)),
            epochs=12, seed=0,
        )

    def test_auc_high_under_all_noise_levels(self, result):
        for config, auc in auc_by_config(result).items():
            assert auc > 0.85, config

    def test_auc_band_is_narrow(self, result):
        """Fig. 10: final AUC confined to a narrow band across noise levels."""
        aucs = list(auc_by_config(result).values())
        assert max(aucs) - min(aucs) < 0.08

    def test_roc_curves_are_monotone(self, result):
        for row in result.rows:
            tpr = np.asarray(row["roc_tpr"])
            assert np.all(np.diff(tpr) >= -1e-9)

    def test_formatting(self, result):
        assert "auc" in format_figure10(result)

    def test_sparse_requires_gs_engine(self):
        with pytest.raises(ValidationError):
            run_figure10(engine="bgf", sparse=True)
        with pytest.raises(ValidationError):
            run_figure10(engine="nonsense")


@pytest.mark.sparse
class TestFigure10Sparse:
    """The registry's sparse fraud variant at CI scale."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10(
            noise_configs=(NoiseSpec(0.0, 0.0),),
            epochs=8,
            engine="gs",
            encoding="onehot",
            n_bins=8,
            sparse=True,
            seed=0,
        )

    def test_auc_stays_high(self, result):
        for config, auc in auc_by_config(result).items():
            assert auc > 0.85, config

    def test_metadata_records_the_sparse_configuration(self, result):
        assert result.metadata["engine"] == "gs"
        assert result.metadata["sparse"] is True
        assert "streaming" not in result.metadata


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure11(
            n_distributions=2,
            runs_per_distribution=1,
            ml_iterations=120,
            cd_epochs=30,
            cd_long_k=20,
            seed=0,
        )

    def test_all_methods_present(self, result):
        samples = kl_samples_by_method(result)
        assert set(samples) == {"ML", "cd1", "cd20", "BGF"}

    def test_kl_values_finite_and_positive(self, result):
        for method, values in kl_samples_by_method(result).items():
            assert np.all(np.isfinite(values)), method
            assert np.all(values >= 0), method

    def test_bgf_bias_comparable_to_cd(self, result):
        """Appendix A's claim: BGF does not introduce a worse estimation bias
        than the conventional CD algorithm."""
        samples = kl_samples_by_method(result)
        assert samples["BGF"].mean() < samples["cd1"].mean() * 1.5

    def test_cdf_points(self, result):
        values, probabilities = cdf_points(kl_samples_by_method(result)["ML"])
        assert values.shape == probabilities.shape
        assert probabilities[-1] == pytest.approx(1.0)
        assert np.all(np.diff(values) >= 0)

    def test_formatting(self, result):
        assert "mean_kl" in format_figure11(result)
