"""Tests for RBM-level metrics (reconstruction error, free-energy gap, PLL)."""

import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.rbm import BernoulliRBM, CDTrainer
from repro.rbm.metrics import free_energy_gap, pseudo_log_likelihood, reconstruction_error
from repro.utils.validation import ValidationError


class TestReconstructionError:
    def test_non_negative(self, small_rbm, tiny_binary_data):
        assert reconstruction_error(small_rbm, tiny_binary_data) >= 0.0

    def test_decreases_with_training(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        before = reconstruction_error(rbm, tiny_binary_data)
        CDTrainer(
            spec=TrainerSpec.cd(0.2), rng=1
        ).train(rbm, tiny_binary_data, epochs=15)
        assert reconstruction_error(rbm, tiny_binary_data) < before

    def test_perfect_model_near_zero(self):
        """A model with huge self-reinforcing weights reconstructs a constant
        pattern almost exactly."""
        rbm = BernoulliRBM(4, 4, rng=0)
        rbm.set_parameters(np.eye(4) * 50.0, np.full(4, -25.0), np.full(4, -25.0))
        data = np.ones((5, 4))
        assert reconstruction_error(rbm, data) < 0.05


class TestFreeEnergyGap:
    def test_zero_for_identical_sets(self, small_rbm, tiny_binary_data):
        gap = free_energy_gap(small_rbm, tiny_binary_data, tiny_binary_data)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_sign_reflects_fit(self, tiny_binary_data):
        """After training on the first half, held-out data has higher free energy."""
        train, held = tiny_binary_data[:40], tiny_binary_data[40:]
        rbm = BernoulliRBM(16, 8, rng=0)
        CDTrainer(spec=TrainerSpec.cd(0.3), rng=1).train(rbm, train, epochs=30)
        # The gap should at least not be hugely negative (held-out fits better
        # than training data would indicate a bug).
        assert free_energy_gap(rbm, train, held) > -2.0


class TestPseudoLogLikelihood:
    def test_is_negative(self, small_rbm, tiny_binary_data):
        assert pseudo_log_likelihood(small_rbm, tiny_binary_data, rng=0) < 0.0

    def test_improves_with_training(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        before = pseudo_log_likelihood(rbm, tiny_binary_data, rng=0)
        CDTrainer(
            spec=TrainerSpec.cd(0.2), rng=1
        ).train(rbm, tiny_binary_data, epochs=20)
        after = pseudo_log_likelihood(rbm, tiny_binary_data, rng=0)
        assert after > before

    def test_width_check(self, small_rbm):
        with pytest.raises(ValidationError):
            pseudo_log_likelihood(small_rbm, np.zeros((5, 10)))

    def test_seeded(self, small_rbm, tiny_binary_data):
        a = pseudo_log_likelihood(small_rbm, tiny_binary_data, rng=7)
        b = pseudo_log_likelihood(small_rbm, tiny_binary_data, rng=7)
        assert a == b
