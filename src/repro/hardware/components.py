"""Per-unit area/power of the accelerator sub-circuits, and Table 2.

The paper characterizes every sub-circuit in a 45 nm process (GPDK045) and
reports, in Table 2, the area and power of the Gibbs-sampler and
Boltzmann-gradient-follower building blocks at three array sizes
(400x400, 800x800, 1600x1600).  The per-unit costs below are back-derived
from the 400x400 column of that table; scaling is O(N^2) for the coupling
units and O(N) for everything else, exactly as stated in the paper.

Note: the paper's printed comparator area at 1600 nodes (0.96 mm^2) is not
consistent with its own O(N) scaling (0.024 -> 0.048 -> 0.96); this model
follows the scaling law, which yields 0.096 mm^2.  EXPERIMENTS.md records
the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class SubunitCost:
    """Area/power of one instance of a sub-circuit and how its count scales.

    Attributes
    ----------
    name:
        Sub-circuit name (matching Table 2's row labels).
    area_mm2:
        Area of one instance in mm^2.
    power_mw:
        Power of one instance in mW.
    scaling:
        ``"quadratic"`` (count = N^2, coupling units) or ``"linear"``
        (count = N, per-node circuits).
    """

    name: str
    area_mm2: float
    power_mw: float
    scaling: str

    def __post_init__(self) -> None:
        if self.scaling not in ("linear", "quadratic"):
            raise ValidationError(
                f"scaling must be 'linear' or 'quadratic', got {self.scaling!r}"
            )
        if self.area_mm2 < 0 or self.power_mw < 0:
            raise ValidationError("area and power must be non-negative")

    def count(self, n_nodes: int) -> int:
        """Number of instances in an ``n_nodes x n_nodes`` array."""
        if n_nodes <= 0:
            raise ValidationError(f"n_nodes must be positive, got {n_nodes}")
        return n_nodes * n_nodes if self.scaling == "quadratic" else n_nodes

    def total_area(self, n_nodes: int) -> float:
        """Total area (mm^2) of all instances at the given array size."""
        return self.area_mm2 * self.count(n_nodes)

    def total_power(self, n_nodes: int) -> float:
        """Total power (mW) of all instances at the given array size."""
        return self.power_mw * self.count(n_nodes)


# Per-unit costs back-derived from the 400x400 column of Table 2.
_BASE_NODES = 400

#: Coupling unit of the Gibbs-sampler design (resistor + programming cell).
CU_GIBBS = SubunitCost("CU (Gibbs)", 0.03 / _BASE_NODES**2, 30.0 / _BASE_NODES**2, "quadratic")
#: Coupling unit of the BGF design (adds the charge-pump training circuit).
CU_BGF = SubunitCost("CU (BGF)", 1.28 / _BASE_NODES**2, 36.0 / _BASE_NODES**2, "quadratic")
#: Sigmoid unit, one per node.
SIGMOID_UNIT = SubunitCost("SU", 0.0024 / _BASE_NODES, 3.26 / _BASE_NODES, "linear")
#: Dynamic comparator, one per node.
COMPARATOR = SubunitCost("Comparator", 0.024 / _BASE_NODES, 2.0 / _BASE_NODES, "linear")
#: Digital-to-time converter, one per (visible) node.
DTC = SubunitCost("DTC", 0.0004 / _BASE_NODES, 7.0 / _BASE_NODES, "linear")
#: Random number generator, one per node.
RNG = SubunitCost("RNG", 0.007 / _BASE_NODES, 18.24 / _BASE_NODES, "linear")

#: Sub-circuits common to both designs (everything except the coupling unit).
PER_NODE_UNITS: Tuple[SubunitCost, ...] = (SIGMOID_UNIT, COMPARATOR, DTC, RNG)


@dataclass(frozen=True)
class ComponentLibrary:
    """The set of sub-circuits making up one accelerator design."""

    name: str
    coupling_unit: SubunitCost
    per_node_units: Tuple[SubunitCost, ...] = PER_NODE_UNITS

    def breakdown(self, n_nodes: int) -> Dict[str, Tuple[float, float]]:
        """Per-sub-circuit ``(area mm^2, power mW)`` at the given array size."""
        rows: Dict[str, Tuple[float, float]] = {
            self.coupling_unit.name: (
                self.coupling_unit.total_area(n_nodes),
                self.coupling_unit.total_power(n_nodes),
            )
        }
        for unit in self.per_node_units:
            rows[unit.name] = (unit.total_area(n_nodes), unit.total_power(n_nodes))
        return rows

    def total_area_mm2(self, n_nodes: int) -> float:
        """Total accelerator area in mm^2."""
        return sum(area for area, _ in self.breakdown(n_nodes).values())

    def total_power_mw(self, n_nodes: int) -> float:
        """Total accelerator power in mW."""
        return sum(power for _, power in self.breakdown(n_nodes).values())

    def total_power_w(self, n_nodes: int) -> float:
        """Total accelerator power in W."""
        return self.total_power_mw(n_nodes) / 1000.0


#: The two designs evaluated in the paper.
GIBBS_SAMPLER_LIBRARY = ComponentLibrary("Gibbs sampler", CU_GIBBS)
BGF_LIBRARY = ComponentLibrary("Boltzmann gradient follower", CU_BGF)

#: The three array sizes reported in Table 2.
TABLE2_NODE_COUNTS: Tuple[int, ...] = (400, 800, 1600)


def table2_rows(node_counts: Sequence[int] = TABLE2_NODE_COUNTS) -> List[Dict[str, object]]:
    """Regenerate Table 2: one row per sub-circuit plus the two totals.

    Each row is a dict with ``component`` and, for every node count ``N``,
    ``area_mm2@N`` and ``power_mw@N`` keys — mirroring the paper's layout.
    """
    if not node_counts:
        raise ValidationError("node_counts must not be empty")
    component_rows: List[Dict[str, object]] = []
    units: List[SubunitCost] = [CU_GIBBS, CU_BGF, *PER_NODE_UNITS]
    for unit in units:
        row: Dict[str, object] = {"component": unit.name}
        for n in node_counts:
            row[f"area_mm2@{n}"] = unit.total_area(n)
            row[f"power_mw@{n}"] = unit.total_power(n)
        component_rows.append(row)
    for library in (GIBBS_SAMPLER_LIBRARY, BGF_LIBRARY):
        row = {"component": f"Total ({library.name})"}
        for n in node_counts:
            row[f"area_mm2@{n}"] = library.total_area_mm2(n)
            row[f"power_mw@{n}"] = library.total_power_mw(n)
        component_rows.append(row)
    return component_rows
