"""CD-k on the trusted conditional kernel equals the oracle bit for bit.

``CDTrainer`` runs its Gibbs chain on ``repro.rbm.rbm.conditional_probability``
and the trusted ``bernoulli_sample`` latch; the oracle
(``helpers.reference.cd_gradient`` / ``cd_train``) runs the same
Algorithm 1 through the RBM's public, coercing conditionals and ``np.mean``
statistics.  Trained parameters and the generator's state must be equal
after training, across a partial last batch, one batch holding every row,
``cd_k`` 1 and 10, and CSR batches.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from helpers.reference import cd_gradient, cd_train, sigmoid_reference
from repro.config import TrainerSpec
from repro.rbm.rbm import BernoulliRBM, CDTrainer, conditional_probability

N_ROWS, N_VISIBLE, N_HIDDEN = 23, 12, 5


def _data(seed, sparse):
    dense = (np.random.default_rng(seed).random((N_ROWS, N_VISIBLE)) < 0.3).astype(float)
    return sp.csr_matrix(dense) if sparse else dense


def _assert_same(a, b):
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
    np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("batch_size", [10, N_ROWS, 64], ids=["partial", "exact", "oversized"])
@pytest.mark.parametrize("cd_k", [1, 10])
@pytest.mark.parametrize("seed", [0, 9001])
def test_train_matches_the_oracle(seed, cd_k, batch_size, sparse):
    data = _data(seed, sparse)
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=seed)
    rbm.visible_bias = np.linspace(-0.5, 0.5, N_VISIBLE)
    oracle = rbm.copy()
    trainer = CDTrainer(
        spec=TrainerSpec.cd(0.1, cd_k=cd_k, batch_size=batch_size), rng=seed + 1
    )
    trainer.train(rbm, data, epochs=3)
    oracle_rng = np.random.default_rng(seed + 1)
    cd_train(
        oracle, data, epochs=3, learning_rate=0.1, cd_k=cd_k,
        batch_size=batch_size, rng=oracle_rng,
    )
    _assert_same(rbm, oracle)
    assert trainer._rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_unshuffled_train_matches_the_oracle(sparse):
    data = _data(3, sparse)
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=3)
    oracle = rbm.copy()
    CDTrainer(spec=TrainerSpec.cd(0.2, cd_k=2, batch_size=7), rng=4).train(
        rbm, data, epochs=2, shuffle=False
    )
    cd_train(
        oracle, data, epochs=2, learning_rate=0.2, cd_k=2, batch_size=7,
        rng=np.random.default_rng(4), shuffle=False,
    )
    _assert_same(rbm, oracle)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_one_gradient_matches_the_oracle(sparse):
    batch = _data(5, sparse)
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=5)
    trainer = CDTrainer(spec=TrainerSpec.cd(0.1, cd_k=3, batch_size=N_ROWS), rng=6)
    oracle_rng = np.random.default_rng(6)
    for got, want in zip(trainer._gradient(rbm, batch), cd_gradient(rbm, batch, 3, oracle_rng)):
        np.testing.assert_array_equal(got, want)
    assert trainer._rng.bit_generator.state == oracle_rng.bit_generator.state


class TestConditionalKernel:
    """The public conditionals coerce, then call the trusted kernel; both
    equal the masked reference logistic of the field bit for bit."""

    @pytest.fixture
    def rbm(self):
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, weight_scale=2.0, rng=7)
        rbm.visible_bias = np.linspace(-3.0, 3.0, N_VISIBLE)
        rbm.hidden_bias = np.linspace(2.0, -2.0, N_HIDDEN)
        return rbm

    def test_hidden_conditional_matches_the_reference_logistic(self, rbm):
        v = _data(8, sparse=False)
        want = sigmoid_reference(v @ rbm.weights + rbm.hidden_bias)
        np.testing.assert_array_equal(rbm.hidden_activation_probability(v), want)
        np.testing.assert_array_equal(
            conditional_probability(v, rbm.weights, rbm.hidden_bias), want
        )
        np.testing.assert_array_equal(
            rbm.hidden_activation_probability(sp.csr_matrix(v)),
            sigmoid_reference(sp.csr_matrix(v) @ rbm.weights + rbm.hidden_bias),
        )

    def test_visible_conditional_matches_the_reference_logistic(self, rbm):
        h = (np.random.default_rng(9).random((6, N_HIDDEN)) < 0.5).astype(float)
        want = sigmoid_reference(h @ rbm.weights.T + rbm.visible_bias)
        np.testing.assert_array_equal(rbm.visible_activation_probability(h), want)
        np.testing.assert_array_equal(
            conditional_probability(h, rbm.weights.T, rbm.visible_bias), want
        )

    def test_public_conditionals_coerce_vectors_and_ints(self, rbm):
        v = (np.random.default_rng(10).random(N_VISIBLE) < 0.5).astype(int)
        want = sigmoid_reference(v.astype(float) @ rbm.weights + rbm.hidden_bias)
        np.testing.assert_array_equal(rbm.hidden_activation_probability(v), want[None, :])
        np.testing.assert_array_equal(rbm.hidden_activation_probability(list(v)), want[None, :])

    def test_kernel_leaves_its_inputs_untouched(self, rbm):
        v = _data(11, sparse=False)
        before = (v.copy(), rbm.weights.copy(), rbm.hidden_bias.copy())
        conditional_probability(v, rbm.weights, rbm.hidden_bias)
        for kept, now in zip(before, (v, rbm.weights, rbm.hidden_bias)):
            np.testing.assert_array_equal(kept, now)
