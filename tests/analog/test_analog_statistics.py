"""Statistical characterization tests of the analog behavioral models.

These go beyond the functional tests: they verify that the *distributions*
produced by the noise sources, comparators and variation draws have the
statistics the Sec. 4.5 methodology assumes (correct RMS, flatness of the
reference noise, unbiased thresholding), since those statistics are what
make the noise-injection experiments meaningful.
"""

import numpy as np
import pytest

from repro.analog import ChargePumpUpdater, SigmoidUnit, StochasticNeuronSampler
from repro.analog.noise import NoiseModel
from repro.config import NoiseSpec


class TestSigmoidUnitStatistics:
    def test_gain_variation_rms_is_as_configured(self):
        unit = SigmoidUnit(n_units=5000, gain_variation_rms=0.1, rng=0)
        gains = unit._unit_gains
        assert np.mean(gains) == pytest.approx(1.0, rel=0.02)
        assert np.std(gains) == pytest.approx(0.1, rel=0.1)


class TestThermalNoiseStatistics:
    def test_uniform_reference_is_flat(self):
        """The reference's CDF read through the latch: at every level ``p``
        the firing rate is ``p``, i.e. the reference voltage is uniform over
        [0, 1] — the property that makes the comparator an unbiased
        Bernoulli sampler."""
        levels = np.linspace(0.1, 0.9, 9)
        n = 20000
        sampler = StochasticNeuronSampler(levels.size, rng=0)
        counts = sampler.sample(np.tile(levels, (n, 1))).sum(axis=0)
        expected = n * levels
        chi_square = np.sum((counts - expected) ** 2 / (expected * (1.0 - levels)))
        assert chi_square < 30  # 9 dof; generous bound


class TestChargePumpStatistics:
    def test_per_unit_step_variation_rms(self):
        pump = ChargePumpUpdater((100, 100), step_size=0.01, variation_rms=0.15, rng=0)
        # Far from the rails one full-strength update moves each unit by
        # its own (mismatched) step.
        steps = pump.apply(np.zeros((100, 100)), np.ones((100, 100)), positive=True)
        assert np.mean(steps) == pytest.approx(0.01, rel=0.05)
        assert np.std(steps) / np.mean(steps) == pytest.approx(0.15, rel=0.15)

    def test_update_noise_averages_out(self):
        """Across many updates the noisy pump delivers the nominal total change
        (zero-mean multiplicative noise does not bias the learning)."""
        pump = ChargePumpUpdater((10, 10), step_size=0.002, noise_rms=0.3, rng=1)
        # From -0.3 the 0.6 total stays below the roll-off region.
        weights = np.full((10, 10), -0.3)
        for _ in range(300):
            pump.apply(weights, np.ones((10, 10)), positive=True)
        assert np.mean(weights) + 0.3 == pytest.approx(0.6, rel=0.05)


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
        perturbed = model.apply_dynamic(model.static_effective(weights))
        sign_preserved = np.mean(np.sign(perturbed) == np.sign(weights))
        assert sign_preserved > 0.95
