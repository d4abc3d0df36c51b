"""Tests for the noise/variation injection model (Sec. 4.5 methodology)."""

import numpy as np
import pytest

from helpers.reference import perturbed_coupling
from repro.analog import NoiseModel
from repro.config import NoiseSpec
from repro.analog.noise import FIGURE8_NOISE_CONFIGS
from repro.utils.validation import ValidationError


class TestNoiseSweep:
    def test_figure8_configs_match_paper(self):
        assert all(isinstance(c, NoiseSpec) for c in FIGURE8_NOISE_CONFIGS)
        labels = [c.label for c in FIGURE8_NOISE_CONFIGS]
        assert labels == ["0_0", "0.03_0.03", "0.05_0.05", "0.1_0.1", "0.2_0.2", "0.3_0.3"]


class TestNoiseModel:
    def test_ideal_model_is_identity(self):
        model = NoiseModel(NoiseSpec(), (5, 4), rng=0)
        weights = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_array_equal(model.static_effective(weights), weights)
        np.testing.assert_array_equal(
            model.apply_dynamic(model.static_effective(weights)), weights
        )
        np.testing.assert_array_equal(model.node_noise((3, 4)), np.zeros((3, 4)))

    def test_static_variation_drawn_once(self):
        model = NoiseModel(NoiseSpec(0.2, 0.0), (5, 4), rng=0)
        weights = np.ones((5, 4))
        a = model.static_effective(weights)
        b = model.static_effective(weights)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, weights)

    def test_variation_rms_magnitude(self):
        model = NoiseModel(NoiseSpec(0.1, 0.0), (100, 100), rng=1)
        deviation = model.coupling_gain - 1.0
        assert np.std(deviation) == pytest.approx(0.1, rel=0.1)

    def test_dynamic_noise_fresh_each_call(self):
        model = NoiseModel(NoiseSpec(0.0, 0.2), (5, 4), rng=2)
        a = model.coupling_noise()
        b = model.coupling_noise()
        assert not np.allclose(a, b)

    def test_node_noise_scale(self):
        model = NoiseModel(NoiseSpec(0.0, 0.1), (5, 4), rng=3)
        noise = model.node_noise(10000, scale=2.0)
        assert np.std(noise) == pytest.approx(0.2, rel=0.1)

    def test_static_and_dynamic_noise_combine(self):
        model = NoiseModel(NoiseSpec(0.1, 0.1), (5, 4), rng=4)
        weights = np.ones((5, 4))
        a = model.apply_dynamic(model.static_effective(weights))
        b = model.apply_dynamic(model.static_effective(weights))
        # static part the same, dynamic part differs
        assert not np.allclose(a, b)

    def test_static_effective_scales_by_the_coupling_gain(self):
        model = NoiseModel(NoiseSpec(0.1, 0.0), (5, 4), rng=0)
        weights = np.random.default_rng(5).normal(size=(5, 4))
        np.testing.assert_array_equal(
            model.static_effective(weights), weights * model.coupling_gain
        )

    def test_invalid_shape(self):
        with pytest.raises(ValidationError):
            NoiseModel(NoiseSpec(), (0, 4))

    def test_deterministic_for_seed(self):
        a = NoiseModel(NoiseSpec(0.2, 0.0), (6, 6), rng=9).coupling_gain
        b = NoiseModel(NoiseSpec(0.2, 0.0), (6, 6), rng=9).coupling_gain
        np.testing.assert_array_equal(a, b)


class TestNoiseModelKernels:
    """The trusted kernels the substrate's settle loop calls directly."""

    @pytest.mark.parametrize(
        "variation, noise",
        [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)],
    )
    def test_flags_follow_the_operating_point(self, variation, noise):
        model = NoiseModel(NoiseSpec(variation, noise), (3, 2), rng=0)
        assert model.has_variation is (variation > 0)
        assert model.has_dynamic_noise is (noise > 0)

    def test_static_effective_aliases_input_without_variation(self):
        """The ideal-variation corner hands the weights back uncopied, so
        the substrate's effective-weight cache costs nothing."""
        model = NoiseModel(NoiseSpec(0.0, 0.2), (5, 4), rng=0)
        weights = np.ones((5, 4))
        assert model.static_effective(weights) is weights

    def test_static_effective_matches_the_oracle(self):
        model = NoiseModel(NoiseSpec(0.2, 0.0), (5, 4), rng=0)
        weights = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_array_equal(
            model.static_effective(weights), perturbed_coupling(model, weights)
        )

    def test_apply_dynamic_draws_like_perturbed_coupling(self):
        """Same seed, same draw order: the trusted kernel and the oracle's
        one-call coupling realization produce the same perturbed couplings."""
        weights = np.random.default_rng(2).normal(size=(5, 4))
        trusted = NoiseModel(NoiseSpec(0.1, 0.2), (5, 4), rng=3)
        validated = NoiseModel(NoiseSpec(0.1, 0.2), (5, 4), rng=3)
        np.testing.assert_array_equal(
            trusted.apply_dynamic(trusted.static_effective(weights)),
            perturbed_coupling(validated, weights),
        )

    def test_apply_dynamic_is_identity_without_noise(self):
        model = NoiseModel(NoiseSpec(0.1, 0.0), (5, 4), rng=0)
        effective = np.random.default_rng(4).normal(size=(5, 4))
        np.testing.assert_array_equal(model.apply_dynamic(effective), effective)

    def test_substream_shares_the_static_draw(self):
        model = NoiseModel(NoiseSpec(0.2, 0.1), (5, 4), rng=0)
        shard = model.spawn_substream(7)
        assert shard.coupling_gain is model.coupling_gain
        assert shard.spec == model.spec
        assert shard.coupling_shape == model.coupling_shape

    def test_substream_draws_dynamic_noise_from_its_own_rng(self):
        model = NoiseModel(NoiseSpec(0.2, 0.1), (5, 4), rng=0)
        before = NoiseModel(NoiseSpec(0.2, 0.1), (5, 4), rng=0)
        a = model.spawn_substream(7).coupling_noise()
        b = model.spawn_substream(7).coupling_noise()
        np.testing.assert_array_equal(a, b)
        # The parent's own dynamic stream is untouched by its shards.
        np.testing.assert_array_equal(model.coupling_noise(), before.coupling_noise())
