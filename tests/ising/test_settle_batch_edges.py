"""Edge cases of the chain-parallel ``settle_batch`` kernel.

The kernel is the funnel for every negative phase (single chains, PCD
pools, the BGF particle refresh), so its degenerate corners — one chain,
1-D inputs, chain counts that do not divide the minibatch, zero steps, and
the float32 precision tier's dtype round-trip — get explicit coverage
beyond the statistical suites.  So does its stream order: which circuit
streams a settle draws from, in what shapes and dtypes, and that the
streams carry across calls — the seeded numbers of every float64 run
depend on it.
"""

import copy

import numpy as np
import pytest

from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec, TrainerSpec
from repro.core import GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM
from repro.utils.validation import ValidationError


def _substrate(seed=0, *, n_visible=12, n_hidden=7, dtype="float64", noise=None):
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            n_visible,
            n_hidden,
            input_bits=None,
            noise=noise or NoiseSpec(),
            compute=ComputeSpec(dtype=dtype),
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
        effective, effective_t = substrate._static_pair()
        assert effective.dtype == np.float32
        assert effective_t.dtype == np.float32
        assert substrate.hidden_field(v).dtype == np.float32

    def test_float32_values_are_exact_binaries(self):
        v, h = _substrate(dtype="float32").settle_batch(_hidden(3, (8, 7)), 3)
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert set(np.unique(h)) <= {0.0, 1.0}


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

    def test_persistent_chains_survive_ragged_batches(self, data):
        rbm = BernoulliRBM(12, 7, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1,
                cd_k=1,
                batch_size=10,
                chains=5,
                persistent=True,
            ),
            rng=1,
        )
        trainer.train(rbm, data, epochs=2)
        assert trainer.chain_states.shape == (5, 7)
        assert set(np.unique(trainer.chain_states)) <= {0.0, 1.0}


#: Tier x noise corners of the settle kernel.  ``float32`` latches through
#: the fused sigmoid->compare against float32 uniforms; ``float32-variation``
#: has float64 unit gains, so its probabilities and references are float64.
CORNERS = {
    "ideal": dict(),
    "variation": dict(noise=NoiseSpec(0.1, 0.0)),
    "noisy": dict(noise=NoiseSpec(0.1, 0.1)),
    "float32": dict(dtype="float32"),
    "float32-variation": dict(dtype="float32", noise=NoiseSpec(0.1, 0.0)),
}


def _reference_dtype(substrate):
    return np.float32 if substrate._fused_sampling else np.float64


class TestStreamOrder:
    """Per evaluation a settle draws one ``(p, n)`` block of comparator
    references from the latching layer's sampler, in the tier's reference
    dtype; in a dynamic-noise corner it first draws one coupling-noise
    matrix and then one node-noise block from the noise model.  Nothing
    else touches a stream."""

    @pytest.mark.parametrize("rows, n_steps", [(1, 1), (5, 3), (16, 2)])
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_samplers_draw_one_reference_block_per_evaluation(self, corner, rows, n_steps):
        substrate = _substrate(5, **CORNERS[corner])
        dtype = _reference_dtype(substrate)
        visible_rng = copy.deepcopy(substrate.visible_sampler._rng)
        hidden_rng = copy.deepcopy(substrate.hidden_sampler._rng)
        substrate.settle_batch(_hidden(3, (rows, 7)), n_steps)
        for _ in range(n_steps):
            visible_rng.random((rows, 12), dtype=dtype)
            hidden_rng.random((rows, 7), dtype=dtype)
        assert substrate.visible_sampler._rng.bit_generator.state == visible_rng.bit_generator.state
        assert substrate.hidden_sampler._rng.bit_generator.state == hidden_rng.bit_generator.state

    @pytest.mark.parametrize("rows, n_steps", [(1, 1), (5, 3), (16, 2)])
    def test_noise_model_draws_coupling_then_node_noise(self, rows, n_steps):
        substrate = _substrate(5, **CORNERS["noisy"])
        noise_rng = copy.deepcopy(substrate.noise_model._rng)
        substrate.settle_batch(_hidden(3, (rows, 7)), n_steps)
        for _ in range(n_steps):
            for width in (12, 7):
                noise_rng.normal(0.0, 1.0, size=(12, 7))
                noise_rng.normal(0.0, 1.0, size=(rows, width))
        assert substrate.noise_model._rng.bit_generator.state == noise_rng.bit_generator.state

    @pytest.mark.parametrize("corner", ["ideal", "variation", "float32", "float32-variation"])
    def test_static_corners_leave_the_noise_stream_alone(self, corner):
        substrate = _substrate(5, **CORNERS[corner])
        before = copy.deepcopy(substrate.noise_model._rng.bit_generator.state)
        substrate.settle_batch(_hidden(3, (9, 7)), 4)
        assert substrate.noise_model._rng.bit_generator.state == before


class TestSettleSplitsAcrossCalls:
    """The circuits' streams carry across calls: ``a + b`` settles in one
    call equal ``a`` settles continued from their hidden state for ``b``
    more, bit for bit — so a PCD pool advanced minibatch by minibatch
    draws what one long chain draws."""

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (4, 1)])
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_split_settle_equals_one_settle(self, corner, a, b):
        h0 = _hidden(3, (9, 7))
        v_once, h_once = _substrate(5, **CORNERS[corner]).settle_batch(h0, a + b)
        split = _substrate(5, **CORNERS[corner])
        _, h_mid = split.settle_batch(h0, a)
        v_split, h_split = split.settle_batch(h_mid, b)
        np.testing.assert_array_equal(v_once, v_split)
        np.testing.assert_array_equal(h_once, h_split)


class TestGibbsChainIsSettleBatchInEveryCorner:
    @pytest.mark.parametrize("rows", [1, 9])
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_same_draws(self, corner, rows):
        h = _hidden(4, (rows, 7))
        v_chain, h_chain = _substrate(5, **CORNERS[corner]).gibbs_chain(h, 3)
        v_batch, h_batch = _substrate(5, **CORNERS[corner]).settle_batch(h, 3)
        np.testing.assert_array_equal(v_chain, v_batch)
        np.testing.assert_array_equal(h_chain, h_batch)
