"""Accelerator efficiency comparison: Table 3 (TOPS/mm^2 and TOPS/W).

Table 3 compares the TPU v1/v4, the TIMELY processing-in-memory
accelerator, and a 1600x1600 Boltzmann gradient follower.  The BGF row is
derived, not quoted: the coupling array performs ``N^2`` effective
multiply-accumulate-equivalent operations per 1 GHz control cycle, and its
area/power come from the Table-2 component model — which is how the paper
arrives at ~119 TOPS/mm^2 and ~3657 TOPS/W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hardware.components import BGF_LIBRARY
from repro.hardware.tpu import TPU_V1, TPU_V4
from repro.utils.validation import ValidationError, check_positive


@dataclass(frozen=True)
class AcceleratorSummary:
    """One row of Table 3."""

    name: str
    tops: float
    area_mm2: float
    power_w: float

    def __post_init__(self) -> None:
        check_positive(self.tops, name="tops")
        check_positive(self.area_mm2, name="area_mm2")
        check_positive(self.power_w, name="power_w")

    @property
    def tops_per_mm2(self) -> float:
        return self.tops / self.area_mm2

    @property
    def tops_per_watt(self) -> float:
        return self.tops / self.power_w


#: TIMELY (Li et al., ISCA 2020) — quoted directly from the paper's Table 3.
TIMELY = AcceleratorSummary(name="TIMELY", tops=21.0 * 1.0, area_mm2=21.0 / 38.3, power_w=1.0)


#: Control clock of the BGF's coupling array (1 GHz).
BGF_CLOCK_HZ = 1e9


def bgf_summary(n_nodes: int = 1600) -> AcceleratorSummary:
    """Derive the BGF row of Table 3 from the component model.

    Effective throughput: every :data:`BGF_CLOCK_HZ` control cycle the
    ``n_nodes x n_nodes`` coupling array contributes one MAC-equivalent
    operation per coupling unit (two "ops" in the TOPS convention).
    """
    if n_nodes <= 0:
        raise ValidationError(f"n_nodes must be positive, got {n_nodes}")
    ops_per_second = 1.0 * n_nodes * n_nodes * BGF_CLOCK_HZ
    tops = ops_per_second / 1e12
    area = BGF_LIBRARY.total_area_mm2(n_nodes)
    power = BGF_LIBRARY.total_power_w(n_nodes)
    return AcceleratorSummary(name=f"BGF ({n_nodes}x{n_nodes})", tops=tops, area_mm2=area, power_w=power)


def tpu_summary(model=TPU_V1) -> AcceleratorSummary:
    """Summarize a TPU model using its compute-array area (as Table 3 does)."""
    return AcceleratorSummary(
        name=model.name,
        tops=model.peak_tops,
        area_mm2=model.compute_area_mm2,
        power_w=model.busy_power_w,
    )


def table3_rows(n_nodes: int = 1600) -> List[dict]:
    """Regenerate Table 3 as a list of row dicts."""
    summaries = [tpu_summary(TPU_V1), tpu_summary(TPU_V4), TIMELY, bgf_summary(n_nodes)]
    return [
        {
            "accelerator": s.name,
            "tops_per_mm2": s.tops_per_mm2,
            "tops_per_watt": s.tops_per_watt,
        }
        for s in summaries
    ]
