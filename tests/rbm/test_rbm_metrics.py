"""Tests for the RBM reconstruction-error metric."""

import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.rbm import BernoulliRBM, CDTrainer, reconstruction_error
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


def test_one_reconstruction_metric():
    """The trainers' per-epoch record and the public metric are one function."""
    import repro.rbm
    import repro.rbm.rbm

    assert repro.rbm.reconstruction_error is repro.rbm.rbm.reconstruction_error


@pytest.mark.parametrize(
    "data, match",
    [(np.zeros(16), "ndim=2"), (np.zeros((3, 9)), "axis 1 must have size 16"),
     (np.full((3, 16), np.nan), "non-finite")],
    ids=["1-D", "width", "nan"],
)
def test_reconstruction_error_rejects_malformed_data(small_rbm, data, match):
    with pytest.raises(ValidationError, match=match):
        reconstruction_error(small_rbm, data)
