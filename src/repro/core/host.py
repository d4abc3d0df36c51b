"""Host-side accounting for the accelerator architectures.

The paper's Fig. 5/6 discussion notes that "communication between the Ising
substrate and host is fully accounted for and amounts to about a quarter of
[the] time GS spends waiting for host", and that removing this Amdahl
bottleneck is precisely BGF's advantage.  ``HostStatistics`` counts the
host<->device interactions the functional models perform so the tests and
examples can verify that structural claim (BGF needs orders of magnitude
fewer host interactions than GS), independent of the analytic performance
model in :mod:`repro.hardware`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class HostStatistics:
    """Counters for host <-> Ising-substrate interactions."""

    programming_writes: int = 0
    sample_reads: int = 0
    gradient_updates_on_host: int = 0
    training_samples_streamed: int = 0
    final_weight_readouts: int = 0

    def record_programming(self) -> None:
        """Count a (re)programming of the coupling array by the host."""
        self.programming_writes += 1

    def record_sample_read(self, count: int = 1) -> None:
        """Count host readouts of node states (positive/negative samples)."""
        self.sample_reads += int(count)

    def record_host_update(self) -> None:
        """Count a gradient computation/parameter update performed on the host."""
        self.gradient_updates_on_host += 1

    def record_sample_streamed(self, count: int = 1) -> None:
        """Count training samples streamed from host to the visible latches."""
        self.training_samples_streamed += int(count)

    def record_final_readout(self) -> None:
        """Count an end-of-training ADC readout of the coupling array."""
        self.final_weight_readouts += 1
