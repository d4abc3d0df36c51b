"""Tests for enumeration, exact distributions and maximum-likelihood training.

The exact partition function, joint distribution and log likelihood are
test oracles (``helpers.reference``); they are pinned here against
closed forms before the AIS and chain-statistics suites lean on them.
"""

import numpy as np
import pytest

from helpers.reference import (
    exact_joint_distribution,
    exact_log_likelihood,
    exact_log_partition,
)
from repro.rbm import BernoulliRBM, MaximumLikelihoodTrainer, exact_visible_distribution
from repro.rbm.partition import (
    MAX_ENUMERATION_BITS,
    empirical_visible_distribution,
    enumerate_states,
)
from repro.utils.validation import ValidationError


class TestEnumerateStates:
    def test_count_and_uniqueness(self):
        states = enumerate_states(4)
        assert states.shape == (16, 4)
        assert len({tuple(row) for row in states}) == 16

    def test_binary_values(self):
        states = enumerate_states(3)
        assert set(np.unique(states)) == {0.0, 1.0}

    def test_bit_order(self):
        states = enumerate_states(3)
        np.testing.assert_array_equal(states[5], [1.0, 0.0, 1.0])  # 5 = 0b101

    def test_guard_against_huge_enumeration(self):
        with pytest.raises(ValidationError):
            enumerate_states(MAX_ENUMERATION_BITS + 1)

    def test_invalid_bits(self):
        with pytest.raises(ValidationError):
            enumerate_states(0)


class TestExactPartition:
    def test_zero_model_partition(self):
        rbm = BernoulliRBM(4, 3, rng=0)
        rbm.set_parameters(np.zeros((4, 3)), np.zeros(4), np.zeros(3))
        assert exact_log_partition(rbm) == pytest.approx(7 * np.log(2.0))

    def test_both_enumeration_directions_agree(self):
        """Enumerating visible or hidden configurations must give the same Z."""
        rbm = BernoulliRBM(5, 7, rng=3)  # visible smaller -> enumerate visible
        rng = np.random.default_rng(0)
        rbm.set_parameters(rng.normal(0, 0.7, (5, 7)), rng.normal(0, 0.5, 5), rng.normal(0, 0.5, 7))
        log_z_visible = exact_log_partition(rbm)

        flipped = BernoulliRBM(7, 5, rng=0)  # hidden smaller -> enumerate hidden
        flipped.set_parameters(rbm.weights.T, rbm.hidden_bias, rbm.visible_bias)
        log_z_hidden = exact_log_partition(flipped)
        assert log_z_visible == pytest.approx(log_z_hidden)

    def test_joint_distribution_sums_to_one(self, tiny_rbm):
        joint = exact_joint_distribution(tiny_rbm)
        assert joint.shape == (64, 8)
        assert joint.sum() == pytest.approx(1.0)

    def test_visible_distribution_is_joint_marginal(self, tiny_rbm):
        joint = exact_joint_distribution(tiny_rbm)
        marginal = exact_visible_distribution(tiny_rbm)
        np.testing.assert_allclose(marginal, joint.sum(axis=1), atol=1e-12)

    def test_visible_distribution_normalized(self, tiny_rbm):
        assert exact_visible_distribution(tiny_rbm).sum() == pytest.approx(1.0)

    def test_log_likelihood_consistency(self, tiny_rbm):
        """Average log likelihood must match looking up the exact distribution."""
        data = np.array([[1, 0, 1, 0, 1, 1], [0, 0, 0, 1, 1, 0]], dtype=float)
        dist = exact_visible_distribution(tiny_rbm)
        weights = (1 << np.arange(6)).astype(int)
        indices = (data.astype(int) @ weights)
        expected = float(np.mean(np.log(dist[indices])))
        assert exact_log_likelihood(tiny_rbm, data) == pytest.approx(expected)

    def test_log_likelihood_data_width_check(self, tiny_rbm):
        with pytest.raises(ValidationError):
            exact_log_likelihood(tiny_rbm, np.zeros((3, 5)))


class TestEmpiricalDistribution:
    def test_counts(self):
        data = np.array([[0, 0], [0, 0], [1, 1], [0, 1]], dtype=float)
        dist = empirical_visible_distribution(data, 2)
        np.testing.assert_allclose(dist, [0.5, 0.0, 0.25, 0.25])

    def test_normalized(self):
        rng = np.random.default_rng(0)
        data = (rng.random((100, 6)) < 0.5).astype(float)
        assert empirical_visible_distribution(data, 6).sum() == pytest.approx(1.0)

    def test_width_check(self):
        with pytest.raises(ValidationError):
            empirical_visible_distribution(np.zeros((4, 3)), 5)


class TestMaximumLikelihoodTrainer:
    def test_expectations_match_enumeration(self, tiny_rbm):
        """<v_i h_j>_model from the trainer equals the brute-force expectation."""
        vh, v_mean, h_mean = MaximumLikelihoodTrainer.model_expectations(tiny_rbm)
        joint = exact_joint_distribution(tiny_rbm)
        v_states = enumerate_states(6)
        h_states = enumerate_states(3)
        expected_vh = np.einsum("vh,vi,hj->ij", joint, v_states, h_states)
        np.testing.assert_allclose(vh, expected_vh, atol=1e-10)
        np.testing.assert_allclose(v_mean, joint.sum(axis=1) @ v_states, atol=1e-10)
        np.testing.assert_allclose(h_mean, joint.sum(axis=0) @ h_states, atol=1e-10)

    def test_training_increases_log_likelihood(self):
        rng = np.random.default_rng(0)
        data = (rng.random((40, 8)) < np.array([0.9, 0.1, 0.9, 0.1, 0.5, 0.9, 0.1, 0.5])).astype(float)
        rbm = BernoulliRBM(8, 3, rng=1)
        before = exact_log_likelihood(rbm, data)
        MaximumLikelihoodTrainer(0.2).train(rbm, data, epochs=80)
        after = exact_log_likelihood(rbm, data)
        assert after > before

    def test_gradient_is_zero_at_optimum_direction(self):
        """After many ML steps the gradient magnitude shrinks (approaching a fixed point)."""
        rng = np.random.default_rng(3)
        data = (rng.random((30, 6)) < 0.3).astype(float)
        rbm = BernoulliRBM(6, 2, rng=4)
        trainer = MaximumLikelihoodTrainer(0.3)

        def gradient_norm():
            data_vh, data_v, data_h = trainer.data_expectations(rbm, data)
            model_vh, model_v, model_h = trainer.model_expectations(rbm)
            return float(np.linalg.norm(data_vh - model_vh))

        initial = gradient_norm()
        trainer.train(rbm, data, epochs=300)
        assert gradient_norm() < initial

    def test_intractable_size_rejected(self):
        rbm = BernoulliRBM(30, 4, rng=0)
        with pytest.raises(ValidationError):
            MaximumLikelihoodTrainer.model_expectations(rbm)

    def test_data_width_check(self):
        rbm = BernoulliRBM(6, 2, rng=0)
        with pytest.raises(ValidationError):
            MaximumLikelihoodTrainer().train(rbm, np.zeros((5, 4)), epochs=1)
