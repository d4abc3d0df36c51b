"""Tests for the analytic experiment drivers (Figures 5-6, Tables 2-3)."""

import numpy as np
import pytest

from repro.experiments import (
    format_figure5,
    format_figure6,
    format_table2,
    format_table3,
    run_figure5,
    run_figure6,
    run_table2,
    run_table3,
)


class TestFigure5Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5()

    def test_rows_cover_all_benchmarks_plus_geomean(self, result):
        workloads = [row["workload"] for row in result.rows]
        assert len(workloads) == 12
        assert workloads[-1] == "GeoMean"
        assert "MNIST_RBM" in workloads and "RC_RBM" in workloads

    def test_headline_speedup(self, result):
        geomean = result.row_by("workload", "GeoMean")
        assert 20 <= geomean["TPU"] <= 45
        assert geomean["GPU"] > geomean["TPU"]

    def test_formatting(self, result):
        text = format_figure5(result)
        assert "GeoMean" in text
        assert "TPU" in text

    def test_metadata(self, result):
        assert result.metadata["batch_size"] == 500
        assert result.metadata["cd_k"] == 10

    def test_custom_cd_k(self):
        shallow = run_figure5(cd_k=1)
        deep = run_figure5(cd_k=10)
        # More Gibbs steps per update increase the TPU's relative cost.
        assert (
            deep.row_by("workload", "GeoMean")["TPU"]
            > shallow.row_by("workload", "GeoMean")["TPU"]
        )


class TestFigure6Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6()

    def test_headline_energy_saving(self, result):
        geomean = result.row_by("workload", "GeoMean")
        assert 500 <= geomean["TPU"] <= 3000

    def test_gs_between_bgf_and_tpu(self, result):
        geomean = result.row_by("workload", "GeoMean")
        assert 1.0 < geomean["GS"] < geomean["TPU"]

    def test_formatting(self, result):
        assert "GeoMean" in format_figure6(result)


class TestTable2Driver:
    def test_rows_and_columns(self):
        result = run_table2()
        assert len(result.rows) == 8
        assert "area_mm2@1600" in result.rows[0]
        assert "power_mw@400" in result.rows[0]

    def test_custom_node_counts(self):
        result = run_table2((200,))
        assert "area_mm2@200" in result.rows[0]

    def test_formatting(self):
        text = format_table2(run_table2())
        assert "CU (BGF)" in text
        assert "Total (Gibbs sampler)" in text


class TestTable3Driver:
    def test_rows(self):
        result = run_table3()
        accelerators = [row["accelerator"] for row in result.rows]
        assert accelerators == ["TPU v1", "TPU v4", "TIMELY", "BGF (1600x1600)"]

    def test_bgf_values(self):
        result = run_table3()
        bgf = result.row_by("accelerator", "BGF (1600x1600)")
        assert bgf["tops_per_mm2"] == pytest.approx(119, rel=0.1)
        assert bgf["tops_per_watt"] == pytest.approx(3657, rel=0.1)

    def test_formatting(self):
        assert "TIMELY" in format_table3(run_table3())
