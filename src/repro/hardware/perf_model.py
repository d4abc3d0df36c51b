"""Execution-time and energy models for TPU, GPU, GS and BGF (Figures 5-6).

The paper's methodology (Sec. 4.1): "execution time is just the product of
the number of iterations and the cycle count per iteration"; anything not
carried out on the Ising hardware runs on the host, which is the same TPU
as the baseline; digital portions clock at 1 GHz; the BRIM trajectory
advances one phase point in roughly a dozen picoseconds; and the reported
numbers use an image batch size of 500.

The model decomposes one CD-k training step per sample into

* dense MAC work (matrix-vector products and gradient outer products),
  executed at a utilization-scaled fraction of the digital device's peak;
* element-wise sampling work (sigmoid, random number, compare per unit),
  executed on the digital device's much slower element-wise path — the
  paper's motivation explicitly notes the probability sampling "may be much
  more costly" than the MACs;
* for GS: per-step substrate settles paced by the host interface, plus the
  host-side gradient computation, array re-programming and sample readback
  (the Amdahl bottleneck the text attributes ~a quarter of GS's host wait
  to communication);
* for BGF: a free-running substrate whose positive settle and negative
  annealing trajectory advance at the BRIM phase-point rate, with the
  charge-pump updates taking a couple of 1 GHz control cycles, and a single
  ADC readout at the very end of training.

Absolute constants are calibrated to the component data the paper cites
(TPU v1 area/power/throughput, BRIM time constants, Table 2 power); the
reproduced artifact is the *relative* picture: BGF ~29x faster and ~1000x
more energy-efficient than the TPU, GS ~2x faster than the TPU, the GPU
slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.registry import (
    FIGURE5_DBN_BENCHMARKS,
    FIGURE5_RBM_BENCHMARKS,
    get_benchmark,
)
from repro.hardware.components import BGF_LIBRARY, GIBBS_SAMPLER_LIBRARY
from repro.hardware.gpu import GPUModel, TESLA_T4
from repro.hardware.tpu import TPUModel, TPU_V1
from repro.utils.validation import ValidationError

#: Nominal training-set sizes of the paper's benchmarks (samples per epoch).
NOMINAL_SAMPLE_COUNTS: Dict[str, int] = {
    "mnist": 60_000,
    "kmnist": 60_000,
    "fmnist": 60_000,
    "emnist": 124_800,
    "cifar10": 50_000,
    "smallnorb": 24_300,
    "recommender": 1_682,
    "anomaly": 284_807,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """One bar of Figures 5/6: a network to train and its workload parameters.

    Attributes
    ----------
    name:
        Display name, matching the paper's x-axis labels (e.g. ``MNIST_RBM``).
    layers:
        RBM layers to train, as ``(n_visible, n_hidden)`` pairs.  A plain
        RBM has one layer; a DBN lists every greedily-trained layer.
    n_samples:
        Training samples per epoch.
    cd_k:
        Gibbs steps per gradient estimate in the software/GS algorithm.
    batch_size:
        Minibatch size (500 for the paper's timing runs).
    epochs:
        Number of passes over the data (relative results are insensitive).
    """

    name: str
    layers: Tuple[Tuple[int, int], ...]
    n_samples: int
    cd_k: int = 10
    batch_size: int = 500
    epochs: int = 1

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValidationError("a workload needs at least one RBM layer")
        for m, n in self.layers:
            if m <= 0 or n <= 0:
                raise ValidationError(f"layer sizes must be positive, got ({m}, {n})")
        if self.n_samples <= 0 or self.cd_k < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ValidationError("n_samples, cd_k, batch_size and epochs must be positive")


@dataclass(frozen=True)
class AcceleratorTiming:
    """Execution time and energy of one accelerator on one workload."""

    accelerator: str
    workload: str
    seconds: float
    joules: float


@dataclass(frozen=True)
class PerformanceModel:
    """Analytical timing/energy model for the four execution substrates.

    Attributes (calibration constants)
    ----------------------------------
    tpu, gpu:
        Digital baseline models.
    tpu_element_op_seconds:
        Per-unit cost of a sigmoid+random+compare sampling step on the TPU's
        element-wise path.
    gpu_element_op_seconds:
        Same for the GPU.
    gs_settle_seconds:
        Duration of one host-paced conditional settle-and-latch on the GS
        substrate (analog settling plus synchronization with the host clock).
    bgf_positive_settle_seconds:
        Free-running settle of the hidden nodes for the BGF positive phase.
    bgf_update_cycles:
        1 GHz control cycles per charge-pump update phase.
    brim_phase_point_seconds:
        Duration of one phase point of the free-running BRIM trajectory
        ("roughly a dozen picoseconds").
    interface_bytes_per_second:
        Host <-> accelerator link bandwidth used for GS programming and
        sample readback.
    accelerator_nodes:
        Array size of the (fixed-capacity) accelerator chip; the paper
        assumes "enough nodes to fit the largest problems", i.e. 1600.
    digital_clock_hz:
        Clock of the digital control portions of GS/BGF.
    host_average_power_w:
        Average TPU power while driving this workload.  RBM training leaves
        the MAC array largely idle, so the average sits between the TPU's
        idle (~28 W) and fully-busy (~40 W) figures; Table 3 continues to
        use the busy figure for the peak-efficiency comparison.
    """

    tpu: TPUModel = TPU_V1
    gpu: GPUModel = TESLA_T4
    tpu_element_op_seconds: float = 0.4e-9
    gpu_element_op_seconds: float = 0.1e-9
    gs_settle_seconds: float = 110e-9
    bgf_positive_settle_seconds: float = 12e-9
    bgf_update_cycles: int = 2
    brim_phase_point_seconds: float = 12e-12
    interface_bytes_per_second: float = 64e9
    accelerator_nodes: int = 1600
    digital_clock_hz: float = 1e9
    host_average_power_w: float = 28.0

    # ------------------------------------------------------------------ #
    # Workload decomposition helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def mac_ops_per_sample(m: int, n: int, cd_k: int) -> float:
        """Dense MAC operations per training sample (2 ops per MAC).

        Positive phase (1 product), cd_k negative steps (2 products each),
        and the two gradient outer products.
        """
        return 2.0 * m * n * (2 * cd_k + 3)

    @staticmethod
    def sampling_ops_per_sample(m: int, n: int, cd_k: int) -> float:
        """Element-wise sampling operations per training sample.

        One sigmoid+random+compare per unit sampled: the hidden layer in the
        positive phase and both layers in every negative step.
        """
        return float(n + cd_k * (m + n))

    # ------------------------------------------------------------------ #
    # Per-substrate timing
    # ------------------------------------------------------------------ #
    def tpu_time(self, workload: WorkloadSpec) -> float:
        """Seconds for the TPU to train the workload."""
        total = 0.0
        for m, n in workload.layers:
            mac_time = self.tpu.time_for_ops(self.mac_ops_per_sample(m, n, workload.cd_k), m, n)
            sample_time = self.sampling_ops_per_sample(m, n, workload.cd_k) * self.tpu_element_op_seconds
            total += workload.n_samples * (mac_time + sample_time)
        return total * workload.epochs

    def gpu_time(self, workload: WorkloadSpec) -> float:
        """Seconds for the GPU to train the workload."""
        total = 0.0
        for m, n in workload.layers:
            n_batches = int(np.ceil(workload.n_samples / workload.batch_size))
            mac_ops = workload.n_samples * self.mac_ops_per_sample(m, n, workload.cd_k)
            # One kernel per Gibbs half-step plus the update kernels per batch.
            kernel_launches = n_batches * (2 * workload.cd_k + 4)
            mac_time = self.gpu.time_for_ops(mac_ops, n_steps=kernel_launches)
            sample_time = (
                workload.n_samples
                * self.sampling_ops_per_sample(m, n, workload.cd_k)
                * self.gpu_element_op_seconds
            )
            total += mac_time + sample_time
        return total * workload.epochs

    def gs_time_breakdown(self, workload: WorkloadSpec) -> Dict[str, float]:
        """GS time split into substrate, host compute, and communication."""
        substrate = 0.0
        host_compute = 0.0
        communication = 0.0
        for m, n in workload.layers:
            n_batches = int(np.ceil(workload.n_samples / workload.batch_size))
            # 1 positive settle + cd_k full Gibbs steps (2 settles each would
            # double-count; the substrate alternates, so cd_k steps cost cd_k
            # settles of each layer -> (1 + 2*cd_k) settles total).
            settles_per_sample = 1 + 2 * workload.cd_k
            substrate += workload.n_samples * settles_per_sample * self.gs_settle_seconds
            # Host computes the gradient outer products and the update.
            host_ops = workload.n_samples * 4.0 * m * n + n_batches * 2.0 * m * n
            host_compute += self.tpu.time_for_ops(host_ops, m, n)
            # Communication: reprogram m*n 8-bit weights per batch, read the
            # three binary sample vectors back per sample, stream the input.
            program_bytes = n_batches * m * n
            readback_bytes = workload.n_samples * (2 * m + n) / 8.0
            stream_bytes = workload.n_samples * m
            communication += (program_bytes + readback_bytes + stream_bytes) / self.interface_bytes_per_second
        return {
            "substrate": substrate * workload.epochs,
            "host_compute": host_compute * workload.epochs,
            "communication": communication * workload.epochs,
        }

    def gs_time(self, workload: WorkloadSpec) -> float:
        """Seconds for the Gibbs-sampler architecture to train the workload."""
        return float(sum(self.gs_time_breakdown(workload).values()))

    def bgf_time(self, workload: WorkloadSpec) -> float:
        """Seconds for the Boltzmann gradient follower to train the workload."""
        total = 0.0
        update_time = 2 * self.bgf_update_cycles / self.digital_clock_hz
        for m, n in workload.layers:
            anneal = workload.cd_k * (m + n) * self.brim_phase_point_seconds
            per_sample = self.bgf_positive_settle_seconds + anneal + update_time
            readout = m * n / self.interface_bytes_per_second + n * 1e-6  # column-wise ADC scan
            total += workload.n_samples * per_sample + readout
        return total * workload.epochs

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #
    def tpu_energy(self, workload: WorkloadSpec) -> float:
        return self.host_average_power_w * self.tpu_time(workload)

    def gpu_energy(self, workload: WorkloadSpec) -> float:
        return self.gpu.energy_for_time(self.gpu_time(workload))

    def gs_energy(self, workload: WorkloadSpec) -> float:
        breakdown = self.gs_time_breakdown(workload)
        substrate_power = GIBBS_SAMPLER_LIBRARY.total_power_w(self.accelerator_nodes)
        host_time = breakdown["host_compute"] + breakdown["communication"]
        return substrate_power * breakdown["substrate"] + self.host_average_power_w * host_time

    def bgf_energy(self, workload: WorkloadSpec) -> float:
        power = BGF_LIBRARY.total_power_w(self.accelerator_nodes)
        return power * self.bgf_time(workload)

    # ------------------------------------------------------------------ #
    # Figure generators
    # ------------------------------------------------------------------ #
    def evaluate(self, workload: WorkloadSpec) -> Dict[str, AcceleratorTiming]:
        """Time/energy of all four substrates on one workload."""
        return {
            "TPU": AcceleratorTiming("TPU", workload.name, self.tpu_time(workload), self.tpu_energy(workload)),
            "GPU": AcceleratorTiming("GPU", workload.name, self.gpu_time(workload), self.gpu_energy(workload)),
            "GS": AcceleratorTiming("GS", workload.name, self.gs_time(workload), self.gs_energy(workload)),
            "BGF": AcceleratorTiming("BGF", workload.name, self.bgf_time(workload), self.bgf_energy(workload)),
        }

    def figure5_rows(
        self, workloads: Optional[Sequence[WorkloadSpec]] = None
    ) -> List[Dict[str, float]]:
        """Execution time normalized to BGF for every workload, plus the geomean.

        Each row: ``{"workload": name, "TPU": x, "GS": x, "GPU": x, "BGF": 1.0}``.
        """
        workloads = list(workloads) if workloads is not None else benchmark_workloads()
        rows: List[Dict[str, float]] = []
        ratios: Dict[str, List[float]] = {"TPU": [], "GS": [], "GPU": []}
        for workload in workloads:
            timings = self.evaluate(workload)
            bgf = timings["BGF"]
            row: Dict[str, float] = {"workload": workload.name, "BGF": 1.0}
            for key in ("TPU", "GS", "GPU"):
                ratio = timings[key].seconds / bgf.seconds
                row[key] = ratio
                ratios[key].append(ratio)
            rows.append(row)
        geomean_row: Dict[str, float] = {"workload": "GeoMean", "BGF": 1.0}
        for key, values in ratios.items():
            geomean_row[key] = float(np.exp(np.mean(np.log(values))))
        rows.append(geomean_row)
        return rows

    def figure6_rows(
        self, workloads: Optional[Sequence[WorkloadSpec]] = None
    ) -> List[Dict[str, float]]:
        """Energy normalized to BGF for every workload, plus the geomean."""
        workloads = list(workloads) if workloads is not None else benchmark_workloads()
        rows: List[Dict[str, float]] = []
        ratios: Dict[str, List[float]] = {"TPU": [], "GS": [], "GPU": []}
        for workload in workloads:
            timings = self.evaluate(workload)
            bgf = timings["BGF"]
            row: Dict[str, float] = {"workload": workload.name, "BGF": 1.0}
            for key in ("TPU", "GS", "GPU"):
                ratio = timings[key].joules / bgf.joules
                row[key] = ratio
                ratios[key].append(ratio)
            rows.append(row)
        geomean_row: Dict[str, float] = {"workload": "GeoMean", "BGF": 1.0}
        for key, values in ratios.items():
            geomean_row[key] = float(np.exp(np.mean(np.log(values))))
        rows.append(geomean_row)
        return rows


def benchmark_workloads(cd_k: int = 10, batch_size: int = 500) -> List[WorkloadSpec]:
    """The eleven Figure-5/6 workloads in the paper's plotting order.

    Six single-RBM benchmarks, four DBN benchmarks (their greedily-trained
    layer stack), and the recommender RBM (``RC_RBM``).
    """
    workloads: List[WorkloadSpec] = []
    for name in FIGURE5_RBM_BENCHMARKS:
        cfg = get_benchmark(name)
        workloads.append(
            WorkloadSpec(
                name=f"{name.upper()}_RBM",
                layers=(cfg.rbm_shape,),
                n_samples=NOMINAL_SAMPLE_COUNTS[name],
                cd_k=cd_k,
                batch_size=batch_size,
            )
        )
    for name in FIGURE5_DBN_BENCHMARKS:
        cfg = get_benchmark(name)
        assert cfg.dbn_layers is not None
        layer_pairs = tuple(
            (cfg.dbn_layers[i], cfg.dbn_layers[i + 1]) for i in range(len(cfg.dbn_layers) - 1)
        )
        workloads.append(
            WorkloadSpec(
                name=f"{name.upper()}_DBN",
                layers=layer_pairs,
                n_samples=NOMINAL_SAMPLE_COUNTS[name],
                cd_k=cd_k,
                batch_size=batch_size,
            )
        )
    rec = get_benchmark("recommender")
    workloads.append(
        WorkloadSpec(
            name="RC_RBM",
            layers=(rec.rbm_shape,),
            n_samples=NOMINAL_SAMPLE_COUNTS["recommender"],
            cd_k=cd_k,
            batch_size=min(batch_size, 100),
        )
    )
    return workloads
