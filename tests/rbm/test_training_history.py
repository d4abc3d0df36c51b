"""Tests for the TrainingHistory record shared by all trainers."""

import numpy as np

from repro.config import TrainerSpec
from repro.rbm import BernoulliRBM, CDTrainer, TrainingHistory


class TestTrainingHistory:
    def test_empty_history(self):
        history = TrainingHistory()
        assert len(history) == 0
        assert history.epochs == []
        assert history.reconstruction_error == []

    def test_record_minimal(self):
        history = TrainingHistory()
        history.record(0, 0.5)
        history.record(1, 0.4)
        assert history.epochs == [0, 1]
        assert history.reconstruction_error == [0.5, 0.4]

    def test_values_coerced_to_builtin_types(self):
        history = TrainingHistory()
        history.record(np.int64(3), np.float64(0.25))
        assert isinstance(history.epochs[0], int)
        assert isinstance(history.reconstruction_error[0], float)

    def test_length_tracks_epochs(self):
        history = TrainingHistory()
        for epoch in range(5):
            history.record(epoch, 1.0 / (epoch + 1))
        assert len(history) == 5


class TestHistoryFromTrainers:
    def test_cd_history_error_is_decreasing_overall(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        history = CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1
        ).train(
            rbm, tiny_binary_data, epochs=12
        )
        assert history.reconstruction_error[-1] < history.reconstruction_error[0]

    def test_history_epochs_are_sequential(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        history = CDTrainer(
            spec=TrainerSpec.cd(0.1), rng=1
        ).train(rbm, tiny_binary_data, epochs=4)
        assert history.epochs == list(range(4))

    def test_histories_are_independent_objects(self, tiny_binary_data):
        trainer = CDTrainer(spec=TrainerSpec.cd(0.1), rng=1)
        first = trainer.train(BernoulliRBM(16, 8, rng=0), tiny_binary_data, epochs=2)
        second = trainer.train(BernoulliRBM(16, 8, rng=0), tiny_binary_data, epochs=3)
        assert len(first) == 2
        assert len(second) == 3
