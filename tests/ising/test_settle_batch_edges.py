"""Edge cases of the chain-parallel ``settle_batch`` kernel.

The kernel is the funnel for every negative phase (single chains, PCD
pools, the BGF particle refresh), so its degenerate corners — one chain,
1-D inputs, chain counts that do not divide the minibatch, zero steps, and
the float32 precision tier's dtype round-trip — get explicit coverage
beyond the statistical suites.
"""

import numpy as np
import pytest

from repro.config import ComputeSpec, SubstrateSpec, TrainerSpec
from repro.core import GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM
from repro.utils.validation import ValidationError


def _substrate(seed=0, *, n_visible=12, n_hidden=7, dtype="float64"):
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            n_visible, n_hidden, input_bits=None, compute=ComputeSpec(dtype=dtype)
        ),
        rng=seed,
    )
    rng = np.random.default_rng(1)
    substrate.program(
        rng.normal(0, 0.3, (n_visible, n_hidden)),
        rng.normal(0, 0.2, n_visible),
        rng.normal(0, 0.2, n_hidden),
    )
    return substrate


def _hidden(seed, shape):
    return (np.random.default_rng(seed).random(shape) < 0.5).astype(float)


class TestSingleChainAndScalarPath:
    def test_1d_input_equals_single_row(self):
        """A 1-D hidden_init is the p=1 case: bit-identical to the explicit
        (1, n) layout under the same substrate seed."""
        h1d = _hidden(3, 7)
        v_a, h_a = _substrate(5).settle_batch(h1d, 4)
        v_b, h_b = _substrate(5).settle_batch(h1d.reshape(1, -1), 4)
        np.testing.assert_array_equal(v_a, v_b)
        np.testing.assert_array_equal(h_a, h_b)
        assert v_a.shape == (1, 12) and h_a.shape == (1, 7)

    def test_gibbs_chain_is_settle_batch(self):
        """gibbs_chain is documented as the 1..p-row case of settle_batch."""
        h = _hidden(3, (1, 7))
        v_a, h_a = _substrate(5).gibbs_chain(h, 3)
        v_b, h_b = _substrate(5).settle_batch(h, 3)
        np.testing.assert_array_equal(v_a, v_b)
        np.testing.assert_array_equal(h_a, h_b)


class TestStepCountValidation:
    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_zero_or_negative_steps_raise(self, n_steps):
        with pytest.raises(ValidationError):
            _substrate().settle_batch(_hidden(3, (2, 7)), n_steps)

    def test_single_step_returns_one_full_sweep(self):
        v, h = _substrate().settle_batch(_hidden(3, (5, 7)), 1)
        assert v.shape == (5, 12) and h.shape == (5, 7)
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert set(np.unique(h)) <= {0.0, 1.0}

    def test_non_binary_init_rejected(self):
        with pytest.raises(ValidationError):
            _substrate().settle_batch(np.full((2, 7), 0.5), 1)


class TestDtypeRoundTrip:
    @pytest.mark.parametrize("tier", ["float64", "float32"])
    @pytest.mark.parametrize("in_dtype", [np.float64, np.float32])
    def test_output_dtype_is_the_substrate_tier(self, tier, in_dtype):
        """Outputs carry the substrate tier's dtype regardless of the input
        dtype — float32 in stays float32 on the float32 tier (no silent
        float64 upcast), and a float32 input never downgrades the float64
        tier either."""
        substrate = _substrate(dtype=tier)
        h0 = _hidden(3, (4, 7)).astype(in_dtype)
        v, h = substrate.settle_batch(h0, 3)
        assert v.dtype == np.dtype(tier)
        assert h.dtype == np.dtype(tier)

    def test_float32_tier_keeps_cache_and_fields_in_tier(self):
        substrate = _substrate(dtype="float32")
        v, h = substrate.settle_batch(_hidden(3, (4, 7)), 2)
        effective, effective_t = substrate._effective_pair()
        assert effective.dtype == np.float32
        assert effective_t.dtype == np.float32
        assert substrate.hidden_field(v).dtype == np.float32
        assert substrate.visible_field(h).dtype == np.float32

    def test_float32_values_are_exact_binaries(self):
        v, h = _substrate(dtype="float32").settle_batch(_hidden(3, (8, 7)), 3)
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert set(np.unique(h)) <= {0.0, 1.0}


class TestWorkersValidation:
    """The multicore knob fails loudly at the API boundary: a bad shard
    count raises a ValidationError naming the offense, never a numpy
    reshape traceback from inside a settle."""

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_subpositive_workers_rejected(self, workers):
        with pytest.raises(ValidationError, match=">= 1"):
            _substrate().settle_batch(_hidden(3, (4, 7)), 2, workers=workers)

    @pytest.mark.parametrize("workers", [2.0, 1.5, "two", True, False, (2,)])
    def test_non_int_workers_rejected(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            _substrate().settle_batch(_hidden(3, (4, 7)), 2, workers=workers)

    @pytest.mark.parametrize("workers", [0, 2.5, "many"])
    def test_gibbs_chain_validates_workers_too(self, workers):
        with pytest.raises(ValidationError):
            _substrate().gibbs_chain(_hidden(3, (1, 7)), 2, workers=workers)

    def test_numpy_integer_workers_accepted(self):
        v, h = _substrate().settle_batch(_hidden(3, (4, 7)), 2, workers=np.int64(2))
        assert v.shape == (4, 12) and h.shape == (4, 7)

    def test_workers_validated_before_the_chain_block_is_touched(self):
        """Even with an invalid hidden_init, the workers typo is the error
        the caller sees first (knob validation is hoisted)."""
        with pytest.raises(ValidationError, match="workers"):
            _substrate().settle_batch(np.full((2, 7), 0.5), 1, workers="four")

    def test_trainer_rejects_bad_workers_at_construction(self):
        with pytest.raises(ValidationError, match="workers"):
            GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, compute=ComputeSpec(workers=0))
            )
        with pytest.raises(ValidationError, match="workers"):
            GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, compute=ComputeSpec(workers=2.5))
            )

    @pytest.mark.parametrize("workers", [2, 3, 16])
    def test_workers_exceeding_chains_degrade_to_one_shard_per_chain(self, workers):
        """More workers than chains: shards cap at the chain count, shapes
        and binary values stay intact."""
        v, h = _substrate().settle_batch(_hidden(3, (2, 7)), 2, workers=workers)
        assert v.shape == (2, 12) and h.shape == (2, 7)
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert set(np.unique(h)) <= {0.0, 1.0}

    @pytest.mark.parametrize("tier", ["float64", "float32"])
    def test_sharded_outputs_keep_the_substrate_tier(self, tier):
        substrate = _substrate(dtype=tier)
        v, h = substrate.settle_batch(_hidden(3, (6, 7)), 2, workers=2)
        assert v.dtype == np.dtype(tier)
        assert h.dtype == np.dtype(tier)


class TestChainCountVsBatchSize:
    """The trainer's chain engine with chain counts that do not divide (or
    exceed) the minibatch: seed rows cycle, shapes stay consistent."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(9)
        # 23 rows: not a multiple of the batch size or any chain count used.
        return (rng.random((23, 12)) < 0.4).astype(float)

    @pytest.mark.parametrize("chains", [3, 7, 16])
    def test_fresh_chain_cd_with_odd_chain_counts(self, data, chains):
        """chains > batch or chains not dividing it: positive rows recycle."""
        rbm = BernoulliRBM(12, 7, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1, cd_k=1, batch_size=10, chains=chains, persistent=False
            ),
            rng=1,
        )
        history = trainer.train(rbm, data, epochs=2)
        assert len(history.reconstruction_error) == 2
        assert np.isfinite(rbm.weights).all()

    @pytest.mark.parametrize("chain_batch", [True, False])
    def test_persistent_chains_survive_ragged_batches(self, data, chain_batch):
        rbm = BernoulliRBM(12, 7, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1,
                cd_k=1,
                batch_size=10,
                chains=5,
                persistent=True,
                chain_batch=chain_batch,
            ),
            rng=1,
        )
        trainer.train(rbm, data, epochs=2)
        assert trainer.chain_states.shape == (5, 7)
        assert set(np.unique(trainer.chain_states)) <= {0.0, 1.0}
