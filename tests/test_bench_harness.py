"""Unit tests for the benchmark harness's filtering and honesty layers.

The harness is two scripts in ``benchmarks/`` (outside the package), loaded
here by path.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_kernels = _load_script("bench_kernels")
annotate_oversubscription = _kernels.annotate_oversubscription
blas_threads = _kernels.blas_threads
run_benchmarks = _kernels.run_benchmarks
compare_benchmarks = _load_script("compare_bench").compare_benchmarks


def _results(cpu_count, names):
    return {
        "meta": {"cpu_count": cpu_count},
        "kernels": {name: {"speedup": 1.0} for name in names},
    }


class TestAnnotateOversubscription:
    def test_flags_worker_entries_wider_than_the_machine(self):
        results = _results(2, ["ais_logz_784x500_float32_workers4"])
        flagged = annotate_oversubscription(results)
        assert flagged == ["ais_logz_784x500_float32_workers4"]
        assert results["kernels"][flagged[0]]["oversubscribed"] is True

    def test_leaves_fitting_worker_entries_alone(self):
        results = _results(8, ["substrate_settle_batch_p256_784x500_float32_workers4"])
        assert annotate_oversubscription(results) == []
        assert "oversubscribed" not in next(iter(results["kernels"].values()))

    def test_ignores_non_worker_entries(self):
        results = _results(1, ["gs_training_epoch_784x500_sparse", "ais_logz_49x32"])
        assert annotate_oversubscription(results) == []
        for row in results["kernels"].values():
            assert "oversubscribed" not in row

    def test_exact_width_is_not_oversubscribed(self):
        results = _results(4, ["ais_logz_784x500_float32_workers4"])
        assert annotate_oversubscription(results) == []

    def test_missing_cpu_count_is_a_no_op(self):
        results = {"meta": {}, "kernels": {"x_workers8": {"speedup": 1.0}}}
        assert annotate_oversubscription(results) == []

    def test_worker_suffix_must_terminate_the_name(self):
        results = _results(1, ["substrate_workers4_variant"])
        assert annotate_oversubscription(results) == []


class TestBlasThreads:
    def test_library_default_is_none(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert blas_threads() is None

    def test_openblas_variable_wins_over_omp(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        assert blas_threads() == 1

    def test_omp_variable_is_the_fallback(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert blas_threads() == 2


class TestOnlyFilter:
    def test_only_restricts_to_matching_kernels(self):
        results = run_benchmarks(repeats=1, include_large=False, only="cd1")
        assert list(results["kernels"]) == ["cd1_training_epoch_49x32"]
        row = results["kernels"]["cd1_training_epoch_49x32"]
        # One implementation: a single timed leg and no speedup.
        assert row == {"fast_median_s": row["fast_median_s"]}
        assert row["fast_median_s"] > 0
        assert "blas_threads" in results["meta"]

    def test_paired_rows_keep_both_legs(self):
        results = run_benchmarks(
            repeats=1, only="substrate_conditional_sampling_784x500_float32"
        )
        row = results["kernels"]["substrate_conditional_sampling_784x500_float32"]
        assert row["legacy_median_s"] > 0 and row["fast_median_s"] > 0
        assert row["speedup"] == row["legacy_median_s"] / row["fast_median_s"]

    def test_multichain_rows_are_single_leg(self):
        results = run_benchmarks(repeats=1, include_large=False, only="gs_")
        for name in ("gs_pcd8_training_epoch_49x32", "gs_multichain_negative_phase_p8_49x32"):
            row = results["kernels"][name]
            assert row == {"fast_median_s": row["fast_median_s"]}

    def test_image_dataset_row_is_single_leg(self):
        results = run_benchmarks(repeats=1, only="image_dataset")
        row = results["kernels"]["image_dataset_kmnist_paper"]
        assert row == {"fast_median_s": row["fast_median_s"]}

    def test_only_with_no_match_raises(self):
        with pytest.raises(ValueError, match="matches no benchmark entries"):
            run_benchmarks(repeats=1, include_large=False, only="no-such-kernel")


class TestCompareGate:
    OLD = {
        "kernels": {
            "single": {"fast_median_s": 0.010},
            "paired": {"legacy_median_s": 0.04, "fast_median_s": 0.01, "speedup": 4.0},
        }
    }

    def _new(self, single_s, speedup):
        return {
            "kernels": {
                "single": {"fast_median_s": single_s},
                "paired": {"fast_median_s": 0.01, "speedup": speedup},
            }
        }

    def test_speedup_metric_gates_only_rows_carrying_it(self):
        report, regressions = compare_benchmarks(
            self.OLD, self._new(1.0, 3.9), threshold=0.5, metric="speedup"
        )
        assert regressions == []
        assert any(line.startswith("paired") for line in report)
        assert "not gated (no speedup in both files): single" in report

    def test_speedup_metric_still_flags_a_dropped_ratio(self):
        _, regressions = compare_benchmarks(
            self.OLD, self._new(0.010, 1.0), threshold=0.5, metric="speedup"
        )
        assert regressions == ["paired"]

    def test_median_metric_gates_every_row(self):
        _, regressions = compare_benchmarks(self.OLD, self._new(0.020, 4.0))
        assert regressions == ["single"]

    def test_speedup_metric_with_no_gated_row_is_bad_input(self):
        old = {"kernels": {"single": {"fast_median_s": 0.01}}}
        with pytest.raises(ValueError, match="speedup"):
            compare_benchmarks(old, old, metric="speedup")
