"""Unit tests for the benchmark harness's filtering and honesty layers."""

import pytest

from repro.bench import annotate_oversubscription, run_benchmarks
from repro.bench.kernels import blas_threads


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
        assert row["legacy_median_s"] > 0 and row["fast_median_s"] > 0
        assert "blas_threads" in results["meta"]

    def test_only_with_no_match_raises(self):
        with pytest.raises(ValueError, match="matches no benchmark entries"):
            run_benchmarks(repeats=1, include_large=False, only="no-such-kernel")
