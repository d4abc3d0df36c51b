"""Tests for the Table-3 accelerator comparison."""

import pytest

from repro.hardware.comparison import (
    BGF_CLOCK_HZ,
    TIMELY,
    AcceleratorSummary,
    bgf_summary,
    table3_rows,
    tpu_summary,
)
from repro.hardware.tpu import TPU_V1, TPU_V4
from repro.utils.validation import ValidationError


class TestAcceleratorSummary:
    def test_derived_metrics(self):
        summary = AcceleratorSummary("x", tops=100.0, area_mm2=50.0, power_w=25.0)
        assert summary.tops_per_mm2 == pytest.approx(2.0)
        assert summary.tops_per_watt == pytest.approx(4.0)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            AcceleratorSummary("x", tops=0.0, area_mm2=1.0, power_w=1.0)


class TestTable3Reproduction:
    def test_tpu_rows_match_paper(self):
        v1 = tpu_summary(TPU_V1)
        assert v1.tops_per_mm2 == pytest.approx(1.16, abs=0.02)
        assert v1.tops_per_watt == pytest.approx(2.30, abs=0.02)
        v4 = tpu_summary(TPU_V4)
        assert v4.tops_per_mm2 == pytest.approx(1.91, abs=0.05)
        assert v4.tops_per_watt == pytest.approx(1.62, abs=0.05)

    def test_timely_row_matches_paper(self):
        assert TIMELY.tops_per_mm2 == pytest.approx(38.3, rel=0.01)
        assert TIMELY.tops_per_watt == pytest.approx(21.0, rel=0.01)

    def test_bgf_row_matches_paper(self):
        """Paper: ~119 TOPS/mm^2 and ~3657 TOPS/W at 1600x1600."""
        summary = bgf_summary(1600)
        assert summary.tops_per_mm2 == pytest.approx(119, rel=0.1)
        assert summary.tops_per_watt == pytest.approx(3657, rel=0.1)

    def test_ordering_of_efficiency(self):
        """The qualitative Table-3 takeaway: BGF >> TIMELY >> TPUs in both metrics."""
        rows = {row["accelerator"]: row for row in table3_rows()}
        bgf = rows["BGF (1600x1600)"]
        timely = rows["TIMELY"]
        tpu = rows["TPU v1"]
        assert bgf["tops_per_mm2"] > timely["tops_per_mm2"] > tpu["tops_per_mm2"]
        assert bgf["tops_per_watt"] > timely["tops_per_watt"] > tpu["tops_per_watt"]

    def test_table_has_four_rows(self):
        assert len(table3_rows()) == 4

    def test_bgf_scales_with_array_size(self):
        small = bgf_summary(400)
        large = bgf_summary(1600)
        # Efficiency per area improves with size because O(N) circuits amortize.
        assert large.tops_per_watt > small.tops_per_watt

    @pytest.mark.parametrize("n_nodes", [400, 800, 1600])
    def test_bgf_throughput_is_one_mac_per_coupling_unit_per_cycle(self, n_nodes):
        assert bgf_summary(n_nodes).tops == pytest.approx(n_nodes**2 * BGF_CLOCK_HZ / 1e12)

    def test_invalid_nodes(self):
        with pytest.raises(ValidationError):
            bgf_summary(0)
