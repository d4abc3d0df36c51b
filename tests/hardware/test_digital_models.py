"""Tests for the TPU and GPU baseline models."""

import pytest

from repro.hardware import GPUModel, TESLA_T4, TPUModel, TPU_V1
from repro.utils.validation import ValidationError


class TestTPUModel:
    def test_v1_matches_jouppi_numbers(self):
        assert TPU_V1.peak_tops == pytest.approx(92.0)
        assert TPU_V1.die_area_mm2 == pytest.approx(331.0)
        assert TPU_V1.busy_power_w == pytest.approx(40.0)

    def test_utilization_penalizes_small_layers(self):
        full = TPU_V1.utilization(512, 512)
        small = TPU_V1.utilization(512, 64)
        assert small < full
        assert small == pytest.approx(full * 64 / 256)

    def test_utilization_caps_at_base(self):
        assert TPU_V1.utilization(4096, 4096) == pytest.approx(TPU_V1.base_utilization)

    def test_time_for_ops_scales_linearly(self):
        t1 = TPU_V1.time_for_ops(1e9, 512, 512)
        t2 = TPU_V1.time_for_ops(2e9, 512, 512)
        assert t2 == pytest.approx(2 * t1)

    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            TPU_V1.utilization(0, 10)

    def test_invalid_configuration(self):
        with pytest.raises(ValidationError):
            TPUModel(peak_tops=0.0)
        with pytest.raises(ValidationError):
            TPUModel(mac_array_fraction=1.5)
        with pytest.raises(ValidationError):
            TPUModel(base_utilization=0.0)


class TestGPUModel:
    def test_defaults(self):
        assert TESLA_T4.peak_tops == pytest.approx(65.0)
        assert TESLA_T4.board_power_w == pytest.approx(70.0)

    def test_effective_tops_below_peak(self):
        assert TESLA_T4.effective_tops() < TESLA_T4.peak_tops

    def test_kernel_launch_floor(self):
        """For tiny workloads the launch overhead dominates."""
        tiny = TESLA_T4.time_for_ops(1e3, n_steps=100)
        assert tiny >= 100 * TESLA_T4.min_kernel_time_s

    def test_time_scales_with_ops(self):
        a = TESLA_T4.time_for_ops(1e12, n_steps=1)
        b = TESLA_T4.time_for_ops(2e12, n_steps=1)
        assert b > a

    def test_energy(self):
        assert TESLA_T4.energy_for_time(1.0) == pytest.approx(70.0)

    def test_invalid_configuration(self):
        with pytest.raises(ValidationError):
            GPUModel(peak_tops=-1.0)
        with pytest.raises(ValidationError):
            GPUModel(base_utilization=2.0)

    def test_invalid_steps(self):
        with pytest.raises(ValidationError):
            TESLA_T4.time_for_ops(1e6, n_steps=0)
