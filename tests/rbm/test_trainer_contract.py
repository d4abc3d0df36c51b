"""The one trainer contract shared by CD, GS, BGF and exact ML.

Every ``train(rbm, data, *, epochs)`` runs :func:`repro.rbm.rbm.run_epochs`:
one entry check, one epoch loop, one reconstruction metric.  CD, GS and ML
take dense or CSR data; the BGF streams dense samples only.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.config import TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.rbm import (
    BernoulliRBM,
    CDTrainer,
    MaximumLikelihoodTrainer,
    reconstruction_error,
)
from repro.utils.validation import ValidationError

N_VISIBLE, N_HIDDEN = 8, 4


def _trainer(kind, callback=None):
    if kind == "cd":
        return CDTrainer(spec=TrainerSpec.cd(0.1, batch_size=6), rng=1, callback=callback)
    if kind == "gs":
        return GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, batch_size=6), rng=1, callback=callback
        )
    if kind == "bgf":
        return BGFTrainer(spec=TrainerSpec.bgf(0.1), rng=1, callback=callback)
    return MaximumLikelihoodTrainer(0.1)


def _data(fmt="dense"):
    rng = np.random.default_rng(0)
    data = (rng.random((24, N_VISIBLE)) < 0.4).astype(float)
    return sp.csr_matrix(data) if fmt == "csr" else data


CASES = [
    ("cd", "dense"), ("cd", "csr"),
    ("gs", "dense"), ("gs", "csr"),
    ("ml", "dense"), ("ml", "csr"),
    ("bgf", "dense"),
]
WITH_CALLBACK = [case for case in CASES if case[0] != "ml"]
RECON_CASES = [case for case in CASES if case[0] != "bgf"]


@pytest.mark.parametrize("kind, fmt", CASES)
class TestEntryCheck:
    @pytest.mark.parametrize(
        "cut, match",
        [
            ((slice(None), slice(0, N_VISIBLE - 1)), f"axis 1 must have size {N_VISIBLE}"),
            ((slice(0, 0), slice(None)), "at least one row, got 0"),
        ],
        ids=["width", "rows"],
    )
    def test_bad_data_raises_before_any_change(self, kind, fmt, cut, match):
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        before = rbm.copy()
        with pytest.raises(ValidationError, match=match):
            _trainer(kind).train(rbm, _data(fmt)[cut], epochs=1)
        for name in ("weights", "visible_bias", "hidden_bias"):
            np.testing.assert_array_equal(getattr(rbm, name), getattr(before, name))

    @pytest.mark.parametrize(
        "epochs, match",
        [
            (0, "epochs must be >= 1, got 0"),
            (2.5, "epochs must be an int >= 1, got 2.5"),
            (True, "epochs must be an int >= 1, got True"),
            ("2", "epochs must be an int >= 1, got '2'"),
        ],
        ids=["zero", "float", "bool", "str"],
    )
    def test_bad_epochs_raise(self, kind, fmt, epochs, match):
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        before = rbm.weights.copy()
        with pytest.raises(ValidationError, match=match):
            _trainer(kind).train(rbm, _data(fmt), epochs=epochs)
        np.testing.assert_array_equal(rbm.weights, before)

    def test_one_record_per_epoch(self, kind, fmt):
        history = _trainer(kind).train(
            BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0), _data(fmt), epochs=3
        )
        assert len(history) == 3
        assert history.epochs == [0, 1, 2]
        assert np.all(np.isfinite(history.reconstruction_error))


@pytest.mark.parametrize("kind, fmt", WITH_CALLBACK)
def test_callback_runs_once_per_epoch(kind, fmt):
    calls = []
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
    trainer = _trainer(kind, callback=lambda epoch, model: calls.append((epoch, model)))
    trainer.train(rbm, _data(fmt), epochs=3)
    assert [epoch for epoch, _ in calls] == [0, 1, 2]
    assert all(model is rbm for _, model in calls)


@pytest.mark.parametrize("kind, fmt", RECON_CASES)
def test_last_record_is_the_trained_models_error(kind, fmt):
    """The BGF is left out: its ADC readout after the last epoch changes
    the model the last record was taken from."""
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
    data = _data(fmt)
    history = _trainer(kind).train(rbm, data, epochs=2)
    assert history.reconstruction_error[-1] == reconstruction_error(rbm, data)


def test_csr_error_matches_dense_at_float_tolerance():
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
    assert reconstruction_error(rbm, _data("csr")) == pytest.approx(
        reconstruction_error(rbm, _data()), rel=1e-12
    )


def test_ml_epochs_are_exact_full_batch_steps():
    """``train(epochs=N)`` is N hand-applied exact gradient steps, bitwise."""
    data = _data()
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
    by_hand = rbm.copy()
    MaximumLikelihoodTrainer(0.1).train(rbm, data, epochs=4)
    for _ in range(4):
        data_vh, data_v, data_h = MaximumLikelihoodTrainer.data_expectations(by_hand, data)
        model_vh, model_v, model_h = MaximumLikelihoodTrainer.model_expectations(by_hand)
        by_hand.weights += 0.1 * (data_vh - model_vh)
        by_hand.visible_bias += 0.1 * (data_v - model_v)
        by_hand.hidden_bias += 0.1 * (data_h - model_h)
    for name in ("weights", "visible_bias", "hidden_bias"):
        np.testing.assert_array_equal(getattr(rbm, name), getattr(by_hand, name))
