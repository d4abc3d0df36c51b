"""Statistical characterization tests of the analog behavioral models.

These go beyond the functional tests: they verify that the *distributions*
produced by the noise sources, comparators and variation draws have the
statistics the Sec. 4.5 methodology assumes (correct RMS, flatness of the
reference noise, unbiased thresholding), since those statistics are what
make the noise-injection experiments meaningful.
"""

import numpy as np
import pytest

from repro.analog import (
    ChargePumpUpdater,
    DynamicComparator,
    SigmoidUnit,
    StochasticNeuronSampler,
    ThermalNoiseRNG,
)
from repro.analog.noise import NoiseModel
from repro.config import NoiseSpec


class TestSigmoidUnitStatistics:
    def test_gain_variation_rms_is_as_configured(self):
        unit = SigmoidUnit(gain=2.0, n_units=5000, gain_variation_rms=0.1, rng=0)
        gains = unit._unit_gains
        assert np.mean(gains) == pytest.approx(2.0, rel=0.02)
        assert np.std(gains) / 2.0 == pytest.approx(0.1, rel=0.1)

    def test_large_gain_approaches_step_function(self):
        unit = SigmoidUnit(gain=50.0)
        assert unit.ideal(np.array([0.2]))[0] > 0.99
        assert unit.ideal(np.array([-0.2]))[0] < 0.01

    def test_small_gain_approaches_linear_region(self):
        unit = SigmoidUnit(gain=0.1)
        outputs = unit.ideal(np.array([-1.0, 0.0, 1.0]))
        # Nearly linear: the three points are almost equally spaced.
        assert abs((outputs[2] - outputs[1]) - (outputs[1] - outputs[0])) < 1e-3


class TestThermalNoiseStatistics:
    def test_uniform_reference_is_flat(self):
        """A chi-square-style check that the idealized reference voltage is
        uniform over [0, 1] — the property that makes the comparator an
        unbiased Bernoulli sampler."""
        source = ThermalNoiseRNG("uniform", rng=0)
        samples = source.sample(50000)
        histogram, _ = np.histogram(samples, bins=10, range=(0.0, 1.0))
        expected = len(samples) / 10
        chi_square = np.sum((histogram - expected) ** 2 / expected)
        assert chi_square < 30  # 9 dof; generous bound

    def test_gaussian_reference_is_not_flat(self):
        source = ThermalNoiseRNG("gaussian", gaussian_sigma=0.15, rng=1)
        samples = source.sample(50000)
        histogram, _ = np.histogram(samples, bins=10, range=(0.0, 1.0))
        # Center bins far exceed edge bins for an under-amplified source.
        assert histogram[4] > 3 * max(histogram[0], 1)

    def test_comparator_offsets_have_configured_rms(self):
        comparator = DynamicComparator(20000, offset_rms=0.07, rng=2)
        assert np.std(comparator.offsets) == pytest.approx(0.07, rel=0.1)

    def test_sampler_bias_grows_with_comparator_offsets(self):
        """Comparator offset spread distorts per-node probabilities: the
        per-node firing rates spread around the target."""
        target = 0.5
        clean = StochasticNeuronSampler(200, comparator_offset_rms=0.0, rng=3)
        skewed = StochasticNeuronSampler(200, comparator_offset_rms=0.2, rng=3)
        probabilities = np.full((4000, 200), target)
        clean_rates = clean.sample(probabilities).mean(axis=0)
        skewed_rates = skewed.sample(probabilities).mean(axis=0)
        assert np.std(skewed_rates) > 2 * np.std(clean_rates)


class TestChargePumpStatistics:
    def test_per_unit_step_variation_rms(self):
        pump = ChargePumpUpdater((100, 100), step_size=0.01, variation_rms=0.15, rng=0)
        steps = pump.step_matrix(np.zeros((100, 100)), positive=True)
        assert np.mean(steps) == pytest.approx(0.01, rel=0.05)
        assert np.std(steps) / np.mean(steps) == pytest.approx(0.15, rel=0.15)

    def test_update_noise_averages_out(self):
        """Across many updates the noisy pump delivers the nominal total change
        (zero-mean multiplicative noise does not bias the learning)."""
        pump = ChargePumpUpdater(
            (10, 10), step_size=0.002, noise_rms=0.3, saturation=False, rng=1
        )
        weights = np.zeros((10, 10))
        for _ in range(300):
            pump.apply(weights, np.ones((10, 10)), positive=True)
        assert np.mean(weights) == pytest.approx(0.6, rel=0.05)


class TestNoiseModelStatistics:
    def test_variation_and_noise_are_uncorrelated_across_units(self):
        model = NoiseModel(NoiseSpec(0.2, 0.2), (80, 80), rng=0)
        static = (model.coupling_gain - 1.0).ravel()
        dynamic = model.coupling_noise().ravel()
        correlation = np.corrcoef(static, dynamic)[0, 1]
        assert abs(correlation) < 0.05

    def test_dynamic_noise_zero_mean(self):
        model = NoiseModel(NoiseSpec(0.0, 0.1), (50, 50), rng=1)
        draws = np.stack([model.coupling_noise() for _ in range(50)])
        assert abs(draws.mean()) < 0.005

    def test_perturbed_coupling_preserves_weight_sign_statistics(self):
        """At 10% RMS the vast majority of couplings keep their sign — the
        qualitative reason moderate noise does not derail training."""
        rng = np.random.default_rng(2)
        weights = rng.normal(0, 1.0, (60, 60))
        model = NoiseModel(NoiseSpec(0.1, 0.1), (60, 60), rng=3)
        perturbed = model.perturbed_coupling(weights)
        sign_preserved = np.mean(np.sign(perturbed) == np.sign(weights))
        assert sign_preserved > 0.95
