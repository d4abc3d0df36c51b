"""Tests for the CD-k and PCD trainers."""

import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.rbm import BernoulliRBM, CDTrainer
from repro.rbm import reconstruction_error
from repro.utils.validation import ValidationError


class TestCDTrainerConfiguration:
    def test_invalid_learning_rate(self):
        with pytest.raises(ValidationError):
            CDTrainer(spec=TrainerSpec.cd(0.0))

    def test_invalid_cd_k(self):
        with pytest.raises(ValidationError):
            CDTrainer(spec=TrainerSpec.cd(cd_k=0))

    def test_invalid_batch_size(self):
        with pytest.raises(ValidationError):
            CDTrainer(spec=TrainerSpec.cd(batch_size=0))



class TestCDTraining:
    def test_reconstruction_error_decreases(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        before = reconstruction_error(rbm, tiny_binary_data)
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1
        ).train(rbm, tiny_binary_data, epochs=15)
        after = reconstruction_error(rbm, tiny_binary_data)
        assert after < before

    def test_history_length_and_monotone_epochs(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        history = CDTrainer(
            spec=TrainerSpec.cd(0.1), rng=1
        ).train(rbm, tiny_binary_data, epochs=4)
        assert len(history) == 4
        assert history.epochs == [0, 1, 2, 3]

    def test_parameters_change(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        before = rbm.weights.copy()
        CDTrainer(
            spec=TrainerSpec.cd(0.1), rng=1
        ).train(rbm, tiny_binary_data, epochs=1)
        assert not np.allclose(rbm.weights, before)

    def test_deterministic_given_seeds(self, tiny_binary_data):
        results = []
        for _ in range(2):
            rbm = BernoulliRBM(16, 8, rng=0)
            CDTrainer(
                spec=TrainerSpec.cd(0.1, cd_k=2, batch_size=7), rng=5
            ).train(rbm, tiny_binary_data, epochs=3)
            results.append(rbm.weights.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_data_width_mismatch_rejected(self):
        rbm = BernoulliRBM(10, 4, rng=0)
        with pytest.raises(ValidationError):
            CDTrainer(spec=TrainerSpec.cd()).train(rbm, np.zeros((5, 8)), epochs=1)

    def test_invalid_epochs(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        with pytest.raises(ValidationError):
            CDTrainer(spec=TrainerSpec.cd()).train(rbm, tiny_binary_data, epochs=0)

    def test_callback_invoked_every_epoch(self, tiny_binary_data):
        calls = []
        trainer = CDTrainer(
            spec=TrainerSpec.cd(0.1),
            rng=1,
            callback=lambda epoch, rbm: calls.append(epoch),
        )
        rbm = BernoulliRBM(16, 8, rng=0)
        trainer.train(rbm, tiny_binary_data, epochs=5)
        assert calls == [0, 1, 2, 3, 4]

    def test_cd10_not_worse_than_cd1(self, tiny_binary_data):
        """CD-10's reconstruction should be at least comparable to CD-1's."""
        cd1 = BernoulliRBM(16, 8, rng=0)
        cd10 = cd1.copy()
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1
        ).train(cd1, tiny_binary_data, epochs=15)
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=10, batch_size=10), rng=1
        ).train(cd10, tiny_binary_data, epochs=15)
        assert reconstruction_error(cd10, tiny_binary_data) < 1.5 * reconstruction_error(
            cd1, tiny_binary_data
        )
