"""Streaming `partial_fit` pinning: streamed training == one-shot training.

`partial_fit` is the one streaming entry point: feeding
`GibbsSamplerTrainer.partial_fit` or `PCDTrainer.partial_fit` the batches
of `minibatches(data, batch_size, shuffle=False)` is bit-identical to the
one-shot `train(..., shuffle=False)` call under the same seed — both
consume the trainer RNG stream in the same documented order.  These tests
pin that contract exactly (``assert_array_equal``, not allclose).
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.config.specs import TrainerSpec
from repro.core.gibbs_sampler import GibbsSamplerTrainer
from repro.rbm.pcd import PCDTrainer
from repro.rbm.rbm import BernoulliRBM
from repro.utils.batching import minibatches
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.sparse

N_VISIBLE, N_HIDDEN, N_ROWS, BATCH = 16, 8, 30, 5


def _data(sparse=False, seed=0):
    dense = np.where(
        np.random.default_rng(seed).random((N_ROWS, N_VISIBLE)) < 0.25, 1.0, 0.0
    )
    return sp.csr_matrix(dense) if sparse else dense


def _params(rbm):
    return (rbm.weights.copy(), rbm.visible_bias.copy(), rbm.hidden_bias.copy())


def _assert_params_equal(a, b):
    for pa, pb in zip(_params(a), _params(b)):
        np.testing.assert_array_equal(pa, pb)


def _gs_trainer(**knobs):
    rng = knobs.pop("rng", 1)
    return GibbsSamplerTrainer(spec=TrainerSpec.gs(0.1, batch_size=BATCH, **knobs), rng=rng)


class TestGSPartialFitBitIdentity:
    @pytest.mark.parametrize(
        "knobs",
        [
            {},  # classic CD-1
            {"chains": 4, "persistent": True},  # PCD-style persistent chains
            {"chains": 4, "persistent": False},  # fresh chains per batch
        ],
        ids=["classic", "persistent", "fresh-chains"],
    )
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_partial_fit_stream_matches_one_shot_train(self, knobs, sparse):
        data = _data(sparse=sparse)
        rbm_stream = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        rbm_train = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)

        streamer = _gs_trainer(**knobs)
        for batch in minibatches(data, BATCH):
            streamer.partial_fit(rbm_stream, batch)

        _gs_trainer(**knobs).train(
            rbm_train, data, epochs=1, shuffle=False
        )
        _assert_params_equal(rbm_stream, rbm_train)

    @pytest.mark.parametrize("batch_size", [1, 3, BATCH, 8, N_ROWS])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_multi_epoch_stream_matches_one_shot_train(self, batch_size, sparse):
        """Each pass over ``minibatches(data, batch_size)`` is one epoch:
        two passes through ``partial_fit`` equal ``train(epochs=2)``, for
        batch sizes that divide the row count and ones that leave a short
        last batch."""
        data = _data(sparse=sparse)
        rbm_stream = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        rbm_train = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)

        def trainer():
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, batch_size=batch_size), rng=1
            )

        streamer = trainer()
        for _ in range(2):
            for batch in minibatches(data, batch_size):
                streamer.partial_fit(rbm_stream, batch)

        trainer().train(rbm_train, data, epochs=2, shuffle=False)
        _assert_params_equal(rbm_stream, rbm_train)

    def test_persistent_chains_carry_across_calls(self):
        data = _data()
        trainer = _gs_trainer(chains=4, persistent=True)
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        trainer.partial_fit(rbm, data[:BATCH])
        first = trainer.chain_states
        trainer.partial_fit(rbm, data[BATCH : 2 * BATCH])
        assert not np.array_equal(first, trainer.chain_states)

    def test_reset_chains_reinitializes(self):
        data = _data()
        trainer = _gs_trainer(chains=4, persistent=True)
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        trainer.partial_fit(rbm, data[:BATCH])
        trainer.partial_fit(rbm, data[:BATCH], reset_chains=True)
        assert trainer.chain_states.shape == (4, N_HIDDEN)

    def test_batch_width_validated(self):
        trainer = _gs_trainer()
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        with pytest.raises(ValidationError):
            trainer.partial_fit(rbm, np.zeros((4, N_VISIBLE + 1)))


class TestOutOfCoreStreaming:
    """Data that does not fit in memory streams through ``partial_fit``:
    batches read from disk one at a time train exactly like the in-memory
    ``train(shuffle=False)`` run."""

    def test_memory_mapped_array_matches_in_memory(self, tmp_path):
        data = _data()
        path = tmp_path / "train.npy"
        np.save(path, data)
        on_disk = np.load(path, mmap_mode="r")
        rbm_stream = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        rbm_train = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)

        streamer = _gs_trainer()
        for batch in minibatches(on_disk, BATCH):
            streamer.partial_fit(rbm_stream, batch)

        _gs_trainer().train(rbm_train, data, epochs=1, shuffle=False)
        _assert_params_equal(rbm_stream, rbm_train)

    def test_csr_shards_match_in_memory(self, tmp_path):
        data = _data(sparse=True)
        shard_rows = 2 * BATCH
        paths = []
        for i, start in enumerate(range(0, N_ROWS, shard_rows)):
            paths.append(tmp_path / f"shard{i}.npz")
            sp.save_npz(paths[-1], data[start : start + shard_rows])
        rbm_stream = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        rbm_train = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)

        streamer = _gs_trainer()
        for path in paths:
            for batch in minibatches(sp.load_npz(path), BATCH):
                assert sp.issparse(batch)
                streamer.partial_fit(rbm_stream, batch)

        _gs_trainer().train(rbm_train, data, epochs=1, shuffle=False)
        _assert_params_equal(rbm_stream, rbm_train)


class TestPCDPartialFitBitIdentity:
    @pytest.mark.parametrize("persistent", [True, False])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_partial_fit_stream_matches_one_shot_train(self, persistent, sparse):
        data = _data(sparse=sparse)
        rbm_stream = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        rbm_train = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)

        streamer = PCDTrainer(
            n_particles=6, batch_size=BATCH, persistent=persistent, rng=1
        )
        for batch in minibatches(data, BATCH):
            streamer.partial_fit(rbm_stream, batch)

        PCDTrainer(
            n_particles=6, batch_size=BATCH, persistent=persistent, rng=1
        ).train(rbm_train, data, epochs=1, shuffle=False)
        _assert_params_equal(rbm_stream, rbm_train)

    @pytest.mark.parametrize("persistent", [True, False])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_multi_epoch_stream_matches_one_shot_train(self, persistent, sparse):
        data = _data(sparse=sparse)
        rbm_stream = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        rbm_train = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)

        streamer = PCDTrainer(
            n_particles=6, batch_size=BATCH, persistent=persistent, rng=1
        )
        for _ in range(2):
            for batch in minibatches(data, BATCH):
                streamer.partial_fit(rbm_stream, batch)

        PCDTrainer(
            n_particles=6, batch_size=BATCH, persistent=persistent, rng=1
        ).train(rbm_train, data, epochs=2, shuffle=False)
        _assert_params_equal(rbm_stream, rbm_train)

    def test_particles_carry_across_calls(self):
        data = _data()
        trainer = PCDTrainer(n_particles=6, batch_size=BATCH, rng=1)
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        trainer.partial_fit(rbm, data[:BATCH])
        first = trainer.particles
        trainer.partial_fit(rbm, data[BATCH : 2 * BATCH])
        assert trainer.particles.shape == first.shape


class TestTrainInput:
    def test_train_rejects_a_chunked_loader(self):
        """``train`` takes a matrix; an object of the retired chunked-loader
        shape fails validation instead of leaking an AttributeError."""

        class OldLoader:
            n_rows, n_features = N_ROWS, N_VISIBLE

            def iter_chunks(self):
                yield _data()

        with pytest.raises(ValidationError, match="OldLoader"):
            _gs_trainer().train(BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0), OldLoader())
