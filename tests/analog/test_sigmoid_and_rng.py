"""Tests for the sigmoid unit, thermal-noise RNG, comparator and neuron sampler."""

import numpy as np
import pytest

from repro.analog import DynamicComparator, SigmoidUnit, StochasticNeuronSampler, ThermalNoiseRNG
from repro.utils.numerics import sigmoid
from repro.utils.validation import ValidationError


class TestSigmoidUnit:
    def test_ideal_matches_logistic(self):
        unit = SigmoidUnit(gain=1.0)
        x = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(unit.ideal(x), sigmoid(x))
        np.testing.assert_allclose(unit(x), sigmoid(x))

    def test_gain_sharpens_transfer(self):
        soft = SigmoidUnit(gain=0.5)
        sharp = SigmoidUnit(gain=4.0)
        assert sharp.ideal(np.array([1.0]))[0] > soft.ideal(np.array([1.0]))[0]

    def test_offset_shifts_center(self):
        unit = SigmoidUnit(gain=1.0, offset=2.0)
        assert unit.ideal(np.array([2.0]))[0] == pytest.approx(0.5)

    def test_per_unit_gain_variation_is_static(self):
        unit = SigmoidUnit(gain=1.0, n_units=20, gain_variation_rms=0.3, rng=1)
        x = np.ones((1, 20))
        np.testing.assert_array_equal(unit(x), unit(x))

    def test_gain_variation_makes_units_differ(self):
        unit = SigmoidUnit(gain=1.0, n_units=50, gain_variation_rms=0.3, rng=2)
        out = unit(np.full((1, 50), 2.0))
        assert np.std(out) > 0.0

    def test_unit_count_mismatch_rejected(self):
        unit = SigmoidUnit(gain=1.0, n_units=10, gain_variation_rms=0.1, rng=0)
        with pytest.raises(ValueError):
            unit(np.zeros((1, 5)))

    def test_invalid_gain(self):
        with pytest.raises(ValidationError):
            SigmoidUnit(gain=0.0)


class TestThermalNoiseRNG:
    def test_uniform_range(self):
        rng_unit = ThermalNoiseRNG("uniform", rng=0)
        samples = rng_unit.sample(5000)
        assert samples.min() >= 0.0 and samples.max() <= 1.0
        assert samples.mean() == pytest.approx(0.5, abs=0.03)

    def test_gaussian_centered_at_vcm(self):
        rng_unit = ThermalNoiseRNG("gaussian", gaussian_sigma=0.1, rng=1)
        samples = rng_unit.sample(5000)
        assert samples.mean() == pytest.approx(0.5, abs=0.02)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_invalid_distribution(self):
        with pytest.raises(ValidationError):
            ThermalNoiseRNG("laplace")

    def test_shape(self):
        assert ThermalNoiseRNG(rng=0).sample((3, 4)).shape == (3, 4)


class TestDynamicComparator:
    def test_basic_comparison(self):
        comparator = DynamicComparator(3, rng=0)
        out = comparator.compare(np.array([0.2, 0.8, 0.5]), np.array([0.5, 0.5, 0.4]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 1.0])

    def test_offsets_shift_decision(self):
        biased = DynamicComparator(1000, offset_rms=0.2, rng=1)
        # With signal exactly at the reference, offsets decide the outcome;
        # roughly half the units should fire.
        out = biased.compare(np.full(1000, 0.5), np.full(1000, 0.5))
        assert 0.3 < out.mean() < 0.7

    def test_zero_offset_by_default(self):
        comparator = DynamicComparator(5)
        np.testing.assert_array_equal(comparator.offsets, np.zeros(5))

    def test_unit_count_check(self):
        comparator = DynamicComparator(4, rng=0)
        with pytest.raises(ValidationError):
            comparator.compare(np.zeros(5), np.zeros(5))

    def test_invalid_units(self):
        with pytest.raises(ValidationError):
            DynamicComparator(0)


class TestStochasticNeuronSampler:
    def test_samples_are_binary(self):
        sampler = StochasticNeuronSampler(8, rng=0)
        out = sampler.sample(np.full((10, 8), 0.5))
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_probability_is_respected(self):
        """The comparator-vs-noise circuit implements an unbiased Bernoulli draw."""
        sampler = StochasticNeuronSampler(4, rng=1)
        probabilities = np.tile(np.array([0.1, 0.3, 0.7, 0.95]), (20000, 1))
        samples = sampler.sample(probabilities)
        np.testing.assert_allclose(samples.mean(axis=0), [0.1, 0.3, 0.7, 0.95], atol=0.02)

    def test_gaussian_noise_source_is_biased_near_extremes(self):
        """An under-amplified Gaussian noise source distorts the sampling law —
        the design reason the hardware aims for a flat noise distribution."""
        sampler = StochasticNeuronSampler(1, distribution="gaussian", rng=2)
        probabilities = np.full((20000, 1), 0.95)
        samples = sampler.sample(probabilities)
        # The clipped Gaussian reference rarely exceeds 0.95, so the empirical
        # rate deviates from the target probability.
        assert abs(samples.mean() - 0.95) > 0.01

    def test_out_of_range_probabilities_rejected(self):
        sampler = StochasticNeuronSampler(2, rng=0)
        with pytest.raises(ValidationError):
            sampler.sample(np.array([[0.5, 1.2]]))
