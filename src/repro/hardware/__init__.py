"""Analytical hardware models: area, power, execution time and energy.

The paper's Figures 5-6 and Tables 2-3 are produced from circuit-level
area/power characterization (Cadence 45 nm) combined with an analytical
execution model ("execution time is just the product of the number of
iterations and the cycle count per iteration", Sec. 4.1).  This package
reproduces that methodology:

* :mod:`~repro.hardware.components` — per-unit area/power of the coupling
  units, sigmoid units, comparators, DTCs and RNGs, and the Table-2
  breakdown at 400/800/1600 nodes.
* :mod:`~repro.hardware.tpu` / :mod:`~repro.hardware.gpu` — the digital
  baselines (TPU v1/v4 from Jouppi et al., a Tesla-T4-class GPU).
* :mod:`~repro.hardware.perf_model` — per-benchmark execution-time and
  energy models for TPU, GPU, the Gibbs sampler and the Boltzmann gradient
  follower (Figures 5 and 6).
* :mod:`~repro.hardware.comparison` — the TOPS/mm^2 and TOPS/W comparison
  of Table 3.
"""

from repro.hardware.components import (
    ComponentLibrary,
    SubunitCost,
    table2_rows,
)
from repro.hardware.tpu import TPUModel, TPU_V1, TPU_V4
from repro.hardware.gpu import GPUModel, TESLA_T4
from repro.hardware.perf_model import (
    WorkloadSpec,
    AcceleratorTiming,
    PerformanceModel,
    benchmark_workloads,
)
from repro.hardware.comparison import AcceleratorSummary, table3_rows

__all__ = [
    "ComponentLibrary",
    "SubunitCost",
    "table2_rows",
    "TPUModel",
    "TPU_V1",
    "TPU_V4",
    "GPUModel",
    "TESLA_T4",
    "WorkloadSpec",
    "AcceleratorTiming",
    "PerformanceModel",
    "benchmark_workloads",
    "AcceleratorSummary",
    "table3_rows",
]
