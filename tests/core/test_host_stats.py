"""Tests for the host-interaction accounting."""

from repro.core import HostStatistics


class TestHostStatistics:
    def test_starts_at_zero(self):
        stats = HostStatistics()
        assert stats == HostStatistics(0, 0, 0, 0, 0)

    def test_counters_accumulate(self):
        stats = HostStatistics()
        for _ in range(3):
            stats.record_programming()
        stats.record_sample_read(2)
        stats.record_host_update()
        stats.record_final_readout()
        stats.record_sample_streamed(10)
        assert stats.programming_writes == 3
        assert stats.sample_reads == 2
        assert stats.gradient_updates_on_host == 1
        assert stats.final_weight_readouts == 1
        assert stats.training_samples_streamed == 10
