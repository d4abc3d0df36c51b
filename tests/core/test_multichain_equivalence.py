"""Equivalence tests for the multi-chain engine's compatibility fast path.

The multi-chain / PCD negative phase deliberately changes sampling
*statistics* (pinned distributionally in
``tests/property/test_chain_statistics.py``), but its compatibility mode
must not change a single bit: ``chains=1, persistent=False`` — the default
— takes the exact pre-multi-chain code path, and stays bit-identical to the
seed-semantics oracle (``tests/helpers/reference.py``) under fixed seeds, in
the ideal and noisy corners alike.  Mirrors ``tests/core/test_kernel_equivalence.py``
for the new engine's knobs, and pins the chain-parallel ``settle_batch``
kernel's API contract plus the new RNG-order guarantees.
"""

import numpy as np
import pytest

from helpers.reference import use_reference
from repro.config import NoiseSpec, SubstrateSpec, TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    prototypes = (rng.random((5, 49)) < 0.3).astype(float)
    samples = prototypes[rng.integers(0, 5, 120)]
    flips = rng.random(samples.shape) < 0.05
    return np.where(flips, 1.0 - samples, samples)


def _train(trainer_factory, data, epochs=2, *, reference=False):
    """Train a fresh 49x32 RBM; ``reference`` swaps the oracle into the
    trainer's machine first (same seeds, same streams)."""
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer = trainer_factory()
    if reference:
        use_reference(trainer._ensure_machine(rbm))
    trainer.train(rbm, data, epochs=epochs)
    return rbm


def _assert_same_model(a: BernoulliRBM, b: BernoulliRBM) -> None:
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
    np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)


class TestSingleChainCompatibilityPath:
    """chains=1, persistent=False reproduces the PR-1 fast path exactly."""

    def test_explicit_knobs_match_default(self, data):
        default = _train(
            lambda: GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, cd_k=2, batch_size=10), rng=1
            ), data
        )
        explicit = _train(
            lambda: GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1, cd_k=2, batch_size=10, chains=1, persistent=False
                ),
                rng=1,
            ),
            data,
        )
        _assert_same_model(default, explicit)

    def test_matches_reference_ideal_corner(self, data):
        def factory():
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1, cd_k=2, batch_size=10, chains=1, persistent=False
                ),
                rng=1,
            )

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))

    def test_matches_reference_noisy_corner(self, data):
        def factory():
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=10,
                    chains=1,
                    persistent=False,
                    noise=NoiseSpec(0.1, 0.1),
                ),
                rng=1,
            )

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))

    def test_invalid_chain_count(self):
        with pytest.raises(ValidationError):
            GibbsSamplerTrainer(spec=TrainerSpec.gs(chains=0))


class TestSettleBatchContract:
    def _substrate(self):
        substrate = BipartiteIsingSubstrate(spec=SubstrateSpec(49, 32), rng=7)
        weights = np.random.default_rng(1).normal(0, 0.1, (49, 32))
        substrate.program(weights, np.zeros(49), np.zeros(32))
        return substrate

    def test_settle_batch_is_gibbs_chain(self):
        """gibbs_chain is the chain-parallel kernel: same seeds, same bits."""
        h0 = (np.random.default_rng(2).random((8, 32)) < 0.5).astype(float)
        v_a, h_a = self._substrate().settle_batch(h0, 5)
        v_b, h_b = self._substrate().gibbs_chain(h0, 5)
        np.testing.assert_array_equal(v_a, v_b)
        np.testing.assert_array_equal(h_a, h_b)

    def test_shapes_and_binaryness(self):
        h0 = (np.random.default_rng(2).random((8, 32)) < 0.5).astype(float)
        visible, hidden = self._substrate().settle_batch(h0, 3)
        assert visible.shape == (8, 49)
        assert hidden.shape == (8, 32)
        assert set(np.unique(visible)) <= {0.0, 1.0}
        assert set(np.unique(hidden)) <= {0.0, 1.0}

    def test_rejects_zero_steps(self):
        h0 = np.zeros((4, 32))
        with pytest.raises(ValidationError):
            self._substrate().settle_batch(h0, 0)


class TestPersistentChainBookkeeping:
    def test_chains_persist_across_minibatches_and_calls(self, data):
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10, chains=8, persistent=True),
            rng=1,
        )
        rbm = BernoulliRBM(49, 32, rng=0)
        assert trainer.chain_states is None
        trainer.train(rbm, data, epochs=1)
        first = trainer.chain_states
        assert first.shape == (8, 32)
        # partial_fit continues the same fantasy particles.
        trainer.partial_fit(rbm, data[:10])
        second = trainer.chain_states
        assert second.shape == (8, 32)
        assert not np.array_equal(first, second)  # they advanced

    def test_shape_mismatch_triggers_reinit(self, data):
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10, chains=4, persistent=True),
            rng=1,
        )
        trainer.train(BernoulliRBM(49, 32, rng=0), data, epochs=1)
        # A different hidden size must re-initialize rather than crash,
        # even on the entry that keeps the chains.
        trainer.partial_fit(BernoulliRBM(49, 16, rng=0), data[:10])
        assert trainer.chain_states.shape == (4, 16)

    def test_nonpersistent_multichain_keeps_no_state(self, data):
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10, chains=8, persistent=False),
            rng=1,
        )
        rbm = BernoulliRBM(49, 32, rng=0)
        trainer.train(rbm, data, epochs=1)
        assert trainer.chain_states is None
        assert np.all(np.isfinite(rbm.weights))


class TestBGFMatchesReference:
    def test_training_matches_reference(self, data):
        """BGF training stays bit-identical to the oracle's per-sample
        loop."""

        def factory():
            return BGFTrainer(spec=TrainerSpec.bgf(0.1, reference_batch_size=10), rng=1)

        _assert_same_model(_train(factory, data), _train(factory, data, reference=True))
