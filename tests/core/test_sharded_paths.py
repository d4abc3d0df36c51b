"""Thread-tier contracts of the sharded paths beyond the raw settle.

``tests/core/test_parallel_equivalence.py`` pins the settle kernel itself
(``workers=1`` bit-identity, fixed ``(seed, k)`` reproducibility).  This
module pins what the callers built on it promise at ``workers=k > 1``:

* ``gibbs_chain`` is ``settle_batch`` — the same draws, shard for shard;
* a sharded settle always sees the couplings and biases programmed last —
  through ``program`` and through in-place edits followed by
  ``invalidate_effective_weights`` (the BGF charge-pump route) — in every
  precision tier, so no shard can settle against a stale cache or a stale
  bias snapshot;
* the AIS helpers are reproducible for a fixed ``(seed, k)``.
"""

import numpy as np
import pytest

from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM, average_log_probability, estimate_log_partition

WORKER_COUNTS = [2, 4]

N_VISIBLE, N_HIDDEN = 12, 7

CORNERS = {
    "ideal": dict(),
    "noisy": dict(noise=NoiseSpec(variation_rms=0.1, noise_rms=0.1)),
    "float32": dict(dtype="float32"),
}

# A field of +-20 latches a unit to a certain value (sigmoid(20) is
# 1 - 2e-9), whatever the tier.  Couplings of +-4 give an all-ones hidden
# state a visible field of +-28 on their own; a bias of +-20 does the same
# with zero couplings.  Each test saturates through one of the two only,
# so a stale copy of the other cannot mask a stale copy of it.
SATURATING_COUPLING = 4.0
SATURATING_BIAS = 20.0


def _substrate(seed=5, dtype="float64", **fields):
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            N_VISIBLE,
            N_HIDDEN,
            input_bits=None,
            compute=ComputeSpec(dtype=dtype),
            **fields,
        ),
        rng=seed,
    )
    rng = np.random.default_rng(1)
    substrate.program(
        rng.normal(0, 0.3, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0, 0.2, N_VISIBLE),
        rng.normal(0, 0.2, N_HIDDEN),
    )
    return substrate


def _hidden(seed, rows=9):
    return (np.random.default_rng(seed).random((rows, N_HIDDEN)) < 0.5).astype(float)


def _program_uniform(substrate, coupling, bias):
    substrate.program(
        np.full((N_VISIBLE, N_HIDDEN), coupling),
        np.full(N_VISIBLE, bias),
        np.full(N_HIDDEN, bias),
    )


def _tiny_ais_rbm():
    rbm = BernoulliRBM(8, 5, rng=0)
    rng = np.random.default_rng(2)
    rbm.set_parameters(
        rng.normal(0, 0.3, (8, 5)), rng.normal(0, 0.2, 8), rng.normal(0, 0.2, 5)
    )
    return rbm


class TestGibbsChainIsSettleBatch:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_sharded_draws_identical(self, corner, workers):
        h = _hidden(4)
        v_chain, h_chain = _substrate(**CORNERS[corner]).gibbs_chain(
            h, 3, workers=workers
        )
        v_batch, h_batch = _substrate(**CORNERS[corner]).settle_batch(
            h, 3, workers=workers
        )
        np.testing.assert_array_equal(v_chain, v_batch)
        np.testing.assert_array_equal(h_chain, h_batch)


class TestShardsSeeTheLatestProgram:
    """Saturated parameters make the latched states certain, so a shard
    that settled against the previous program would flip every unit."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_reprogrammed_couplings_reach_every_shard(self, corner, workers):
        """With zero biases only the couplings decide the visible latch,
        so this pins the static coupling cache the shards share."""
        substrate = _substrate(**CORNERS[corner])
        h = np.ones((9, N_HIDDEN))
        _program_uniform(substrate, +SATURATING_COUPLING, 0.0)
        v_on, h_on = substrate.settle_batch(h, 1, workers=workers)
        _program_uniform(substrate, -SATURATING_COUPLING, 0.0)
        v_off, _ = substrate.settle_batch(h, 1, workers=workers)
        np.testing.assert_array_equal(v_on, np.ones_like(v_on))
        np.testing.assert_array_equal(h_on, np.ones_like(h_on))
        np.testing.assert_array_equal(v_off, np.zeros_like(v_off))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_reprogrammed_biases_reach_every_shard(self, workers):
        """With zero couplings only the biases decide the latch, so this
        pins the per-call bias snapshot the shard threads share."""
        substrate = _substrate()
        h = _hidden(3)
        _program_uniform(substrate, 0.0, +SATURATING_BIAS)
        v_on, h_on = substrate.settle_batch(h, 2, workers=workers)
        _program_uniform(substrate, 0.0, -SATURATING_BIAS)
        v_off, h_off = substrate.settle_batch(h, 2, workers=workers)
        np.testing.assert_array_equal(v_on, np.ones_like(v_on))
        np.testing.assert_array_equal(h_on, np.ones_like(h_on))
        np.testing.assert_array_equal(v_off, np.zeros_like(v_off))
        np.testing.assert_array_equal(h_off, np.zeros_like(h_off))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("corner", ["noisy"])
    def test_in_place_edit_then_invalidate(self, corner, workers):
        """The charge-pump route: the couplings are edited in place and the
        cache dropped explicitly.  In the noisy corner the cached coupling
        pair is a copy (variation gain), so a missed invalidation would
        keep settling against the old couplings."""
        substrate = _substrate(**CORNERS[corner])
        h = np.ones((9, N_HIDDEN))
        _program_uniform(substrate, +SATURATING_COUPLING, 0.0)
        v_on, _ = substrate.settle_batch(h, 1, workers=workers)
        substrate.weights[...] = -SATURATING_COUPLING
        substrate.invalidate_effective_weights()
        v_off, _ = substrate.settle_batch(h, 1, workers=workers)
        np.testing.assert_array_equal(v_on, np.ones_like(v_on))
        np.testing.assert_array_equal(v_off, np.zeros_like(v_off))


class TestShardedHelpersReproducible:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_estimate_log_partition(self, workers):
        runs = [
            estimate_log_partition(
                _tiny_ais_rbm(), n_chains=12, n_betas=25, rng=7, workers=workers
            )
            for _ in range(2)
        ]
        assert np.isfinite(runs[0])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_average_log_probability(self, workers):
        data = (np.random.default_rng(4).random((6, 8)) < 0.5).astype(float)
        runs = [
            average_log_probability(
                _tiny_ais_rbm(), data, n_chains=12, n_betas=25, rng=7,
                workers=workers,
            )
            for _ in range(2)
        ]
        assert np.isfinite(runs[0])
        assert runs[0] == runs[1]
