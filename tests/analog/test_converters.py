"""Tests for the DTC/ADC converter models."""

import numpy as np
import pytest

from repro.analog import (
    AnalogToDigitalConverter,
    DigitalToTimeConverter,
    dequantize_symmetric,
    quantize_symmetric,
    quantize_uniform,
)
from repro.utils.validation import ValidationError


class TestQuantizeUniform:
    def test_endpoints_exact(self):
        values = np.array([0.0, 1.0])
        np.testing.assert_array_equal(quantize_uniform(values, 8, (0.0, 1.0)), values)

    def test_number_of_levels(self):
        values = np.linspace(0, 1, 1000)
        quantized = quantize_uniform(values, 3, (0.0, 1.0))
        assert np.unique(quantized).size == 8

    def test_error_bounded_by_half_lsb(self):
        values = np.random.default_rng(0).random(500)
        quantized = quantize_uniform(values, 8, (0.0, 1.0))
        lsb = 1.0 / 255
        assert np.max(np.abs(values - quantized)) <= lsb / 2 + 1e-12

    def test_clipping_outside_range(self):
        quantized = quantize_uniform(np.array([-5.0, 5.0]), 4, (-1.0, 1.0))
        np.testing.assert_array_equal(quantized, [-1.0, 1.0])

    def test_invalid_bits(self):
        with pytest.raises(ValidationError):
            quantize_uniform(np.zeros(3), 0, (0.0, 1.0))

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            quantize_uniform(np.zeros(3), 4, (1.0, 0.0))


class TestQuantizeSymmetric:
    """The signed int8 codes + scales scheme behind quantized artifacts."""

    def test_codes_in_symmetric_range(self):
        values = np.random.default_rng(0).normal(0, 1, (32, 8))
        codes, scales = quantize_symmetric(values, axis=0)
        assert codes.dtype == np.int8
        assert int(codes.min()) >= -127
        assert int(codes.max()) <= 127
        # The slice maximum always lands exactly on the end code.
        assert int(np.abs(codes).max()) == 127

    def test_reconstruction_error_bounded_by_half_scale(self):
        values = np.random.default_rng(1).normal(0, 0.5, (48, 6))
        codes, scales = quantize_symmetric(values, axis=0)
        error = np.abs(dequantize_symmetric(codes, scales) - values)
        assert np.all(error <= scales[np.newaxis, :] / 2 + 1e-12)

    def test_per_tensor_scale_is_scalar(self):
        values = np.random.default_rng(2).normal(0, 0.3, 17)
        codes, scales = quantize_symmetric(values)
        assert scales.shape == ()
        assert scales.dtype == np.float32
        assert scales == pytest.approx(np.abs(values).max() / 127)

    def test_per_column_scales(self):
        values = np.random.default_rng(3).normal(0, 1, (10, 4))
        codes, scales = quantize_symmetric(values, axis=0)
        assert scales.shape == (4,)
        np.testing.assert_allclose(
            scales, np.abs(values).max(axis=0) / 127, rtol=1e-6
        )

    def test_zero_is_preserved_exactly(self):
        values = np.array([[0.0, 0.5], [-0.25, 0.0]])
        codes, scales = quantize_symmetric(values, axis=0)
        dequantized = dequantize_symmetric(codes, scales)
        assert codes[0, 0] == 0 and codes[1, 1] == 0
        assert dequantized[0, 0] == 0.0 and dequantized[1, 1] == 0.0

    def test_all_zero_slice_gets_placeholder_scale(self):
        values = np.zeros((5, 3))
        values[:, 2] = np.random.default_rng(4).normal(0, 1, 5)
        codes, scales = quantize_symmetric(values, axis=0)
        assert scales[0] == 1.0 and scales[1] == 1.0
        np.testing.assert_array_equal(dequantize_symmetric(codes, scales)[:, :2], 0.0)

    def test_round_trip_is_lossless_in_codes_and_scales(self):
        """Codes and scales survive a save/reload untouched, and the
        dequantization is a pure product — no hidden state."""
        values = np.random.default_rng(5).normal(0, 0.2, (12, 7))
        codes, scales = quantize_symmetric(values, axis=0)
        np.testing.assert_array_equal(
            dequantize_symmetric(codes.copy(), scales.copy()),
            codes.astype(np.float32) * scales,
        )

    def test_dequantize_dtype_is_float32(self):
        codes, scales = quantize_symmetric(np.random.default_rng(6).normal(0, 1, 9))
        assert dequantize_symmetric(codes, scales).dtype == np.float32

    @pytest.mark.parametrize("axis", [None, 0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_codes_are_int8_for_any_input(self, dtype, axis):
        values = (np.random.default_rng(7).normal(0, 40, (6, 5))).astype(dtype)
        codes, scales = quantize_symmetric(values, axis=axis)
        assert codes.dtype == np.int8
        assert scales.dtype == np.float32
        assert int(np.abs(codes).max()) == 127

    def test_invalid_axis(self):
        with pytest.raises(ValidationError):
            quantize_symmetric(np.zeros((3, 3)), axis=1)
        with pytest.raises(ValidationError):
            quantize_symmetric(np.zeros(3), axis=0)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            quantize_symmetric(np.array([1.0, np.nan]))


def _levels(converter, values):
    """Distinct output levels a converter produces over ``values``."""
    if isinstance(converter, DigitalToTimeConverter):
        return np.unique(converter.convert(values))
    return np.unique(converter.read(values))


class TestDigitalToTimeConverter:
    def test_lsb(self):
        """Adjacent 8-bit levels are one LSB, (hi - lo) / 255, apart."""
        levels = _levels(DigitalToTimeConverter(8), np.linspace(0.0, 1.0, 4001))
        assert levels.size == 256
        np.testing.assert_allclose(np.diff(levels), 1.0 / 255)

    def test_ideal_conversion_error(self):
        dtc = DigitalToTimeConverter(8)
        values = np.random.default_rng(1).random(200)
        lsb = 1.0 / 255
        assert np.max(np.abs(dtc.convert(values) - values)) <= lsb / 2 + 1e-12

    def test_one_bit_converter(self):
        dtc = DigitalToTimeConverter(1)
        out = dtc.convert(np.array([0.2, 0.8]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_invalid_configuration(self):
        with pytest.raises(ValidationError):
            DigitalToTimeConverter(0)
        with pytest.raises(ValidationError):
            DigitalToTimeConverter(8, value_range=(1.0, 0.0))


class TestAnalogToDigitalConverter:
    def test_round_trip_error_bounded(self):
        adc = AnalogToDigitalConverter(8, value_range=(-1.0, 1.0))
        values = np.random.default_rng(3).uniform(-1, 1, 300)
        lsb = 2.0 / 255
        assert np.max(np.abs(adc.read(values) - values)) <= lsb / 2 + 1e-12

    def test_readout_quantization_is_coarse_at_low_bits(self):
        adc = AnalogToDigitalConverter(2, value_range=(-1.0, 1.0))
        values = np.random.default_rng(4).uniform(-1, 1, 300)
        assert np.unique(adc.read(values)).size <= 4

    @pytest.mark.parametrize("cls", [DigitalToTimeConverter, AnalogToDigitalConverter])
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 5])
    def test_levels_span_the_range_evenly(self, cls, n_bits):
        converter = cls(n_bits, value_range=(-0.5, 1.5))
        levels = _levels(converter, np.linspace(-0.5, 1.5, 2001))
        assert levels.size == 2**n_bits
        assert levels[0] == -0.5 and levels[-1] == 1.5
        np.testing.assert_allclose(np.diff(levels), 2.0 / (2**n_bits - 1))

    def test_paper_default_is_8_bits(self):
        assert AnalogToDigitalConverter().n_bits == 8
        assert DigitalToTimeConverter().n_bits == 8
