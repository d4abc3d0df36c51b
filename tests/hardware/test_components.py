"""Tests for the component area/power library (Table 2)."""

import pytest

from repro.hardware.components import (
    BGF_LIBRARY,
    CU_BGF,
    CU_GIBBS,
    GIBBS_SAMPLER_LIBRARY,
    SubunitCost,
    table2_rows,
)
from repro.utils.validation import ValidationError

#: The paper's Table 2, excluding the comparator row at 1600 nodes (whose
#: printed value, 0.96 mm^2, is inconsistent with its own O(N) scaling; the
#: model follows the scaling law -> 0.096 mm^2, see EXPERIMENTS.md).
PAPER_TABLE2_AREA = {
    ("CU (Gibbs)", 400): 0.03, ("CU (Gibbs)", 800): 0.12, ("CU (Gibbs)", 1600): 0.48,
    ("CU (BGF)", 400): 1.28, ("CU (BGF)", 800): 5.12, ("CU (BGF)", 1600): 20.5,
    ("SU", 400): 0.0024, ("SU", 800): 0.0048, ("SU", 1600): 0.0096,
    ("Comparator", 400): 0.024, ("Comparator", 800): 0.048,
    ("DTC", 400): 0.0004, ("DTC", 800): 0.0008, ("DTC", 1600): 0.0016,
    ("RNG", 400): 0.007, ("RNG", 800): 0.014, ("RNG", 1600): 0.028,
}
PAPER_TABLE2_POWER = {
    ("CU (Gibbs)", 400): 30, ("CU (Gibbs)", 800): 120, ("CU (Gibbs)", 1600): 480,
    ("CU (BGF)", 400): 36, ("CU (BGF)", 800): 144, ("CU (BGF)", 1600): 576,
    ("SU", 400): 3.26, ("SU", 800): 6.52, ("SU", 1600): 13.04,
    ("Comparator", 400): 2, ("Comparator", 800): 4, ("Comparator", 1600): 8,
    ("DTC", 400): 7, ("DTC", 800): 14, ("DTC", 1600): 28,
    ("RNG", 400): 18.24, ("RNG", 800): 36.48, ("RNG", 1600): 72.96,
}


class TestSubunitCost:
    def test_counts(self):
        assert CU_GIBBS.count(400) == 160_000
        quad = SubunitCost("x", 1.0, 1.0, "quadratic")
        lin = SubunitCost("y", 1.0, 1.0, "linear")
        assert quad.count(10) == 100
        assert lin.count(10) == 10

    def test_invalid_scaling(self):
        with pytest.raises(ValidationError):
            SubunitCost("bad", 1.0, 1.0, "cubic")

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            SubunitCost("bad", -1.0, 1.0, "linear")

    def test_invalid_node_count(self):
        with pytest.raises(ValidationError):
            CU_GIBBS.count(0)


class TestTable2Reproduction:
    @pytest.mark.parametrize("key, expected", sorted(PAPER_TABLE2_AREA.items()))
    def test_component_areas_match_paper(self, key, expected):
        component, nodes = key
        rows = {row["component"]: row for row in table2_rows((nodes,))}
        assert rows[component][f"area_mm2@{nodes}"] == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("key, expected", sorted(PAPER_TABLE2_POWER.items()))
    def test_component_powers_match_paper(self, key, expected):
        component, nodes = key
        rows = {row["component"]: row for row in table2_rows((nodes,))}
        assert rows[component][f"power_mw@{nodes}"] == pytest.approx(expected, rel=0.05)

    def test_totals_match_paper_at_400_and_800(self):
        # Paper: Gibbs total 0.065 / 0.19 mm^2 and 60.5 / 181 mW;
        #        BGF total 1.32 / 5.19 mm^2 and 66.5 / 205 mW.
        assert GIBBS_SAMPLER_LIBRARY.total_area_mm2(400) == pytest.approx(0.065, rel=0.05)
        assert GIBBS_SAMPLER_LIBRARY.total_area_mm2(800) == pytest.approx(0.19, rel=0.05)
        assert GIBBS_SAMPLER_LIBRARY.total_power_mw(400) == pytest.approx(60.5, rel=0.05)
        assert GIBBS_SAMPLER_LIBRARY.total_power_mw(800) == pytest.approx(181, rel=0.05)
        assert BGF_LIBRARY.total_area_mm2(400) == pytest.approx(1.32, rel=0.05)
        assert BGF_LIBRARY.total_area_mm2(800) == pytest.approx(5.19, rel=0.05)
        assert BGF_LIBRARY.total_power_mw(400) == pytest.approx(66.5, rel=0.05)
        assert BGF_LIBRARY.total_power_mw(800) == pytest.approx(205, rel=0.05)

    def test_bgf_1600_area_close_to_paper(self):
        # Paper prints 21.5 mm^2; our scaling-consistent comparator gives ~20.6.
        assert BGF_LIBRARY.total_area_mm2(1600) == pytest.approx(21.5, rel=0.06)

    def test_bgf_1600_power_close_to_paper(self):
        assert BGF_LIBRARY.total_power_mw(1600) == pytest.approx(700, rel=0.02)

    def test_coupling_units_dominate_area(self):
        """Sec. 3.1: "the vast majority of the area is devoted to the coupling
        units" — check that it dominates at every reported size."""
        for nodes in (400, 800, 1600):
            breakdown = BGF_LIBRARY.breakdown(nodes)
            cu_area = breakdown["CU (BGF)"][0]
            total = BGF_LIBRARY.total_area_mm2(nodes)
            assert cu_area / total > 0.9

    def test_bgf_coupling_unit_much_larger_than_gibbs(self):
        """The charge-pump training circuit makes the BGF coupling unit ~40x
        larger (1.28 vs 0.03 mm^2 per 400x400 array)."""
        ratio = CU_BGF.area_mm2 / CU_GIBBS.area_mm2
        assert 30 < ratio < 60

    def test_bgf_chip_much_smaller_than_tpu(self):
        """Sec. 4.3: a 1600x1600 BGF (~21 mm^2) is small next to the ~330 mm^2 TPU."""
        assert BGF_LIBRARY.total_area_mm2(1600) < 331.0 / 10

    def test_table2_rows_structure(self):
        rows = table2_rows()
        names = [row["component"] for row in rows]
        assert names[-2:] == [
            "Total (Gibbs sampler)",
            "Total (Boltzmann gradient follower)",
        ]
        assert len(rows) == 8

    def test_table2_rows_empty_nodes_rejected(self):
        with pytest.raises(ValidationError):
            table2_rows(())

    def test_breakdowns_sum_to_totals(self):
        for nodes in (400, 1600):
            gibbs_total = sum(a for a, _ in GIBBS_SAMPLER_LIBRARY.breakdown(nodes).values())
            assert gibbs_total == pytest.approx(GIBBS_SAMPLER_LIBRARY.total_area_mm2(nodes))
            bgf_total = sum(p for _, p in BGF_LIBRARY.breakdown(nodes).values())
            assert bgf_total == pytest.approx(BGF_LIBRARY.total_power_mw(nodes))
