"""Tests for the BernoulliRBM model (energies, conditionals, sampling).

The joint energy ``E(v, h)`` is the test oracle ``helpers.reference.energy``;
``TestEnergy`` pins it to Eq. 3 and the model's free energy to it."""

import numpy as np
import pytest

from helpers.reference import energy
from repro.rbm import BernoulliRBM
from repro.rbm.rbm import LOG_ODDS_SMOOTHING, smoothed_log_odds
from repro.utils.numerics import sigmoid
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_shapes(self, small_rbm):
        assert small_rbm.weights.shape == (16, 8)
        assert small_rbm.visible_bias.shape == (16,)
        assert small_rbm.hidden_bias.shape == (8,)

    def test_biases_start_at_zero(self, small_rbm):
        np.testing.assert_array_equal(small_rbm.visible_bias, np.zeros(16))
        np.testing.assert_array_equal(small_rbm.hidden_bias, np.zeros(8))

    def test_weight_scale(self):
        narrow = BernoulliRBM(50, 50, weight_scale=0.001, rng=0)
        wide = BernoulliRBM(50, 50, weight_scale=0.1, rng=0)
        assert np.std(wide.weights) > np.std(narrow.weights)

    def test_seeded_initialization(self):
        a = BernoulliRBM(10, 5, rng=3)
        b = BernoulliRBM(10, 5, rng=3)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            BernoulliRBM(0, 5)
        with pytest.raises(ValidationError):
            BernoulliRBM(5, -1)

    @pytest.mark.parametrize(
        "sizes, field",
        [
            ((2.5, 3), "n_visible"),
            ((3, True), "n_hidden"),
            (("4", 3), "n_visible"),
            ((3, None), "n_hidden"),
            ((0, 3), "n_visible"),
        ],
        ids=["float", "bool", "string", "none", "zero"],
    )
    def test_non_int_sizes_rejected_naming_the_field(self, sizes, field):
        """``BernoulliRBM(2.5, 3)`` once died with numpy's TypeError from
        the weight draw."""
        with pytest.raises(ValidationError, match=field):
            BernoulliRBM(*sizes)

    def test_numpy_int_sizes_normalized(self):
        rbm = BernoulliRBM(np.int64(4), np.int32(3), rng=0)
        assert (type(rbm.n_visible), type(rbm.n_hidden)) == (int, int)
        np.testing.assert_array_equal(rbm.weights, BernoulliRBM(4, 3, rng=0).weights)

    def test_invalid_weight_scale(self):
        with pytest.raises(ValidationError):
            BernoulliRBM(5, 5, weight_scale=0.0)


class TestSmoothedLogOdds:
    @pytest.mark.parametrize(
        "mean, clipped",
        [
            (0.0, LOG_ODDS_SMOOTHING),
            (0.02, LOG_ODDS_SMOOTHING),
            (0.5, 0.5),
            (0.8, 0.8),
            (1.0, 1.0 - LOG_ODDS_SMOOTHING),
        ],
    )
    def test_log_odds_of_the_clipped_column_mean(self, mean, clipped):
        data = np.zeros((50, 2))
        data[: int(round(mean * 50)), 0] = 1.0
        data[:, 1] = 1.0
        odds = smoothed_log_odds(data)
        assert odds[0] == pytest.approx(np.log(clipped / (1.0 - clipped)))
        assert odds[1] == pytest.approx(
            np.log((1.0 - LOG_ODDS_SMOOTHING) / LOG_ODDS_SMOOTHING)
        )


class TestParameters:
    def test_copy_is_deep(self, small_rbm):
        clone = small_rbm.copy()
        clone.weights[0, 0] += 1.0
        assert small_rbm.weights[0, 0] != clone.weights[0, 0]

    def test_set_parameters(self, small_rbm):
        w = np.ones((16, 8))
        bv = np.full(16, 0.5)
        bh = np.full(8, -0.5)
        small_rbm.set_parameters(w, bv, bh)
        np.testing.assert_array_equal(small_rbm.weights, w)
        np.testing.assert_array_equal(small_rbm.visible_bias, bv)
        np.testing.assert_array_equal(small_rbm.hidden_bias, bh)

    def test_set_parameters_shape_check(self, small_rbm):
        with pytest.raises(ValidationError):
            small_rbm.set_parameters(np.zeros((8, 16)), np.zeros(16), np.zeros(8))

    def test_set_parameters_rejects_non_finite(self, small_rbm):
        w = np.zeros((16, 8))
        w[0, 0] = np.nan
        with pytest.raises(ValidationError, match="weights"):
            small_rbm.set_parameters(w, np.zeros(16), np.zeros(8))

    def test_init_visible_bias_from_data(self, small_rbm):
        data = np.zeros((50, 16))
        data[:, 0] = 1.0  # pixel 0 always on, others always off
        small_rbm.init_visible_bias_from_data(data)
        assert small_rbm.visible_bias[0] == pytest.approx(np.log(0.95 / 0.05))
        assert small_rbm.visible_bias[1] == pytest.approx(np.log(0.05 / 0.95))

    def test_init_visible_bias_wrong_width(self, small_rbm):
        with pytest.raises(ValidationError):
            small_rbm.init_visible_bias_from_data(np.zeros((10, 5)))


class TestEnergy:
    def test_energy_matches_formula(self, tiny_rbm):
        rng = np.random.default_rng(0)
        v = (rng.random(6) < 0.5).astype(float)
        h = (rng.random(3) < 0.5).astype(float)
        expected = -(v @ tiny_rbm.weights @ h + v @ tiny_rbm.visible_bias + h @ tiny_rbm.hidden_bias)
        assert energy(tiny_rbm, v, h)[0] == pytest.approx(expected)

    def test_energy_batched(self, tiny_rbm):
        rng = np.random.default_rng(1)
        v = (rng.random((4, 6)) < 0.5).astype(float)
        h = (rng.random((4, 3)) < 0.5).astype(float)
        energies = energy(tiny_rbm, v, h)
        assert energies.shape == (4,)
        for i in range(4):
            assert energies[i] == pytest.approx(energy(tiny_rbm, v[i], h[i])[0])

    def test_free_energy_consistent_with_joint(self, tiny_rbm):
        """F(v) must equal -log sum_h exp(-E(v, h)) by direct enumeration."""
        v = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        h_states = np.array([[(i >> j) & 1 for j in range(3)] for i in range(8)], dtype=float)
        energies = np.array([energy(tiny_rbm, v, h)[0] for h in h_states])
        expected = -np.log(np.sum(np.exp(-energies)))
        assert tiny_rbm.free_energy(v)[0] == pytest.approx(expected)

    def test_zero_model_free_energy(self):
        rbm = BernoulliRBM(4, 3, rng=0)
        rbm.set_parameters(np.zeros((4, 3)), np.zeros(4), np.zeros(3))
        v = np.zeros(4)
        assert rbm.free_energy(v)[0] == pytest.approx(-3 * np.log(2.0))


class TestConditionals:
    def test_hidden_probability_formula(self, tiny_rbm):
        v = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        expected = sigmoid(v @ tiny_rbm.weights + tiny_rbm.hidden_bias)
        np.testing.assert_allclose(tiny_rbm.hidden_activation_probability(v)[0], expected)

    def test_visible_probability_formula(self, tiny_rbm):
        h = np.array([1.0, 0.0, 1.0])
        expected = sigmoid(h @ tiny_rbm.weights.T + tiny_rbm.visible_bias)
        np.testing.assert_allclose(tiny_rbm.visible_activation_probability(h)[0], expected)

    def test_probabilities_in_unit_interval(self, small_rbm):
        rng = np.random.default_rng(2)
        v = (rng.random((10, 16)) < 0.5).astype(float)
        p = small_rbm.hidden_activation_probability(v)
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_zero_weights_give_half_probability(self):
        rbm = BernoulliRBM(5, 4, rng=0)
        rbm.set_parameters(np.zeros((5, 4)), np.zeros(5), np.zeros(4))
        p = rbm.hidden_activation_probability(np.ones(5))
        np.testing.assert_allclose(p, 0.5)


class TestSampling:
    def test_sample_hidden_is_binary(self, small_rbm):
        v = (np.random.default_rng(0).random((20, 16)) < 0.5).astype(float)
        h = small_rbm.sample_hidden(v, rng=0)
        assert set(np.unique(h)).issubset({0.0, 1.0})
        assert h.shape == (20, 8)

    def test_sample_visible_is_binary(self, small_rbm):
        h = (np.random.default_rng(1).random((20, 8)) < 0.5).astype(float)
        v = small_rbm.sample_visible(h, rng=0)
        assert set(np.unique(v)).issubset({0.0, 1.0})
        assert v.shape == (20, 16)

    def test_sampling_respects_probabilities(self):
        """With extreme biases, hidden samples are (almost) deterministic."""
        rbm = BernoulliRBM(4, 2, rng=0)
        rbm.set_parameters(np.zeros((4, 2)), np.zeros(4), np.array([20.0, -20.0]))
        h = rbm.sample_hidden(np.zeros((200, 4)), rng=0)
        assert h[:, 0].mean() == pytest.approx(1.0)
        assert h[:, 1].mean() == pytest.approx(0.0)

    def test_gibbs_step_shapes(self, small_rbm):
        v0 = (np.random.default_rng(2).random((5, 16)) < 0.5).astype(float)
        v1, h = small_rbm.gibbs_step(v0, rng=0)
        assert v1.shape == (5, 16)
        assert h.shape == (5, 8)

    def test_gibbs_step_is_hidden_then_visible_on_one_stream(self, small_rbm):
        """One step draws h ~ P(h | v), then v' ~ P(v | h), in that order
        from the one generator."""
        v0 = (np.random.default_rng(3).random((3, 16)) < 0.5).astype(float)
        v1, h = small_rbm.gibbs_step(v0, rng=0)
        gen = np.random.default_rng(0)
        h_ref = small_rbm.sample_hidden(v0, gen)
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_array_equal(v1, small_rbm.sample_visible(h_ref, gen))

    def test_gibbs_step_seeded_reproducible(self, small_rbm):
        v0 = (np.random.default_rng(5).random((3, 16)) < 0.5).astype(float)
        first = small_rbm.gibbs_step(v0, rng=7)
        second = small_rbm.gibbs_step(v0, rng=7)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_gibbs_step_output_binary(self, small_rbm):
        v0 = (np.random.default_rng(4).random((3, 16)) < 0.5).astype(float)
        v, h = small_rbm.gibbs_step(v0, rng=0)
        assert set(np.unique(v)).issubset({0.0, 1.0})
        assert set(np.unique(h)).issubset({0.0, 1.0})


class TestReconstructionAndTransform:
    def test_reconstruct_range(self, small_rbm, tiny_binary_data):
        data = tiny_binary_data[:, :16]
        recon = small_rbm.reconstruct(data)
        assert recon.shape == data.shape
        assert recon.min() >= 0.0 and recon.max() <= 1.0

    def test_transform_shape(self, small_rbm, tiny_binary_data):
        features = small_rbm.transform(tiny_binary_data[:, :16])
        assert features.shape == (tiny_binary_data.shape[0], 8)

    def test_transform_is_deterministic(self, small_rbm, tiny_binary_data):
        data = tiny_binary_data[:, :16]
        np.testing.assert_array_equal(small_rbm.transform(data), small_rbm.transform(data))
