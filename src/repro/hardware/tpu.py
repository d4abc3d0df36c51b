"""TPU baseline model (the paper's digital host and comparison point).

The paper's baseline is the TPU v1 described by Jouppi et al. (ISCA 2017):
a 28 nm, ~331 mm^2 die whose 256x256 MAC array (about 24% of the die)
delivers 92 TOPS peak at 8-bit precision, with a measured busy power of
roughly 40 W.  Table 3 also quotes TPU v4 figures.  ``TPUModel`` captures
the handful of parameters the analytical performance/energy model needs,
plus a simple utilization model for RBM-shaped matrix work: a layer whose
dimensions do not fill the 256x256 systolic array leaves part of it idle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import ValidationError, check_positive


@dataclass(frozen=True)
class TPUModel:
    """Analytical model of a TPU-class digital accelerator.

    Attributes
    ----------
    name:
        Model name (e.g. ``"TPU v1"``).
    peak_tops:
        Peak throughput in tera-operations per second (8-bit MACs count as
        two operations, following the vendor convention).
    die_area_mm2:
        Total die area in mm^2.
    mac_array_fraction:
        Fraction of the die occupied by the MAC array (used for the
        TOPS/mm^2 comparison of Table 3, which normalizes to compute area).
    busy_power_w:
        Average power while executing (W).
    systolic_dim:
        Side length of the square systolic MAC array.
    base_utilization:
        Achievable fraction of peak on well-shaped dense workloads
        (captures memory-bandwidth and pipeline overheads).
    """

    name: str = "TPU v1"
    peak_tops: float = 92.0
    die_area_mm2: float = 331.0
    mac_array_fraction: float = 0.24
    busy_power_w: float = 40.0
    systolic_dim: int = 256
    base_utilization: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.peak_tops, name="peak_tops")
        check_positive(self.die_area_mm2, name="die_area_mm2")
        check_positive(self.busy_power_w, name="busy_power_w")
        if not 0 < self.mac_array_fraction <= 1:
            raise ValidationError("mac_array_fraction must be in (0, 1]")
        if not 0 < self.base_utilization <= 1:
            raise ValidationError("base_utilization must be in (0, 1]")
        if self.systolic_dim <= 0:
            raise ValidationError("systolic_dim must be positive")

    # ------------------------------------------------------------------ #
    def utilization(self, rows: int, cols: int) -> float:
        """Fraction of peak achieved on a (rows x cols) matrix operand.

        Dimensions smaller than the systolic array leave lanes idle; larger
        dimensions tile perfectly.
        """
        if rows <= 0 or cols <= 0:
            raise ValidationError("matrix dimensions must be positive")
        row_fill = min(1.0, rows / self.systolic_dim)
        col_fill = min(1.0, cols / self.systolic_dim)
        return self.base_utilization * row_fill * col_fill

    def effective_tops(self, rows: int, cols: int) -> float:
        """Effective throughput (TOPS) on a (rows x cols)-shaped layer."""
        return self.peak_tops * self.utilization(rows, cols)

    def time_for_ops(self, ops: float, rows: int, cols: int) -> float:
        """Seconds to execute ``ops`` operations on a (rows x cols) layer."""
        check_positive(ops, name="ops", strict=False)
        return ops / (self.effective_tops(rows, cols) * 1e12)

    @property
    def compute_area_mm2(self) -> float:
        """Area of the MAC array alone (the Table-3 normalization)."""
        return self.die_area_mm2 * self.mac_array_fraction


#: TPU v1 (Jouppi et al. 2017): 92 TOPS, 331 mm^2 die (24% MAC array), ~40 W.
TPU_V1 = TPUModel()

#: TPU v4 (Jouppi et al. 2023): ~275 TOPS, larger compute area, ~170 W.
TPU_V4 = TPUModel(
    name="TPU v4",
    peak_tops=275.0,
    die_area_mm2=600.0,
    mac_array_fraction=0.24,
    busy_power_w=170.0,
    systolic_dim=128,
    base_utilization=0.5,
)
