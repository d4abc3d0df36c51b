"""Determinism contract of the multicore execution layer.

Two halves, matching docs/performance.md ("The multicore layer"):

* ``workers=1`` — the serial kernels must be **bit-identical** to the
  pre-threading implementation under a fixed seed, in the ideal corner and
  the noisy corners alike, at every level that grew a ``workers`` knob
  (substrate settles, GS trainer, BGF particle refresh, AIS) — and the
  float64 settle to the seed-semantics oracle
  (``tests/helpers/reference.py``).
* ``workers=k > 1`` — draws move onto per-shard SeedSequence substreams, so
  bit-identity with the serial stream is *not* promised (the statistical
  pinning lives in ``tests/property/test_parallel_statistics.py``); what
  **is** promised is run-to-run reproducibility for a fixed ``(seed, k)``,
  including across stateful call sequences, and that different worker
  counts give deterministic, non-aliased streams.
"""

import numpy as np
import pytest

from helpers.reference import ReferenceSubstrate
from repro.config import (
    ComputeSpec,
    EstimatorSpec,
    NoiseSpec,
    SubstrateSpec,
    TrainerSpec,
)
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.core.gradient_follower import BoltzmannGradientFollower
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM

WORKER_COUNTS = [2, 4]

N_VISIBLE, N_HIDDEN = 12, 7

CORNERS = {
    "ideal": dict(),
    "noisy": dict(
        noise=NoiseSpec(variation_rms=0.1, noise_rms=0.1),
        comparator_offset_rms=0.05,
    ),
    "float32": dict(dtype="float32"),
}


def _substrate(seed=5, dtype="float64", cls=BipartiteIsingSubstrate, **fields):
    substrate = cls(
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


def _tiny_ais_rbm():
    rbm = BernoulliRBM(8, 5, rng=0)
    rng = np.random.default_rng(2)
    rbm.set_parameters(
        rng.normal(0, 0.3, (8, 5)), rng.normal(0, 0.2, 8), rng.normal(0, 0.2, 5)
    )
    return rbm


class TestWorkersOneBitIdentical:
    """workers=1 (the default) is the pre-threading serial kernel."""

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_settle_batch(self, corner):
        h = _hidden(3)
        v_ref, h_ref = _substrate(**CORNERS[corner]).settle_batch(h, 4)
        v_one, h_one = _substrate(**CORNERS[corner]).settle_batch(h, 4, workers=1)
        np.testing.assert_array_equal(v_ref, v_one)
        np.testing.assert_array_equal(h_ref, h_one)

    @pytest.mark.parametrize("corner", ["ideal", "noisy"])
    def test_workers_one_matches_reference(self, corner):
        """The serial kernel equals the oracle's per-settle recomputation."""
        h = _hidden(3)
        v_ref, h_ref = _substrate(cls=ReferenceSubstrate, **CORNERS[corner]).settle_batch(h, 2)
        v_one, h_one = _substrate(**CORNERS[corner]).settle_batch(h, 2, workers=1)
        np.testing.assert_array_equal(v_ref, v_one)
        np.testing.assert_array_equal(h_ref, h_one)

    def test_gs_trainer(self, tiny_binary_data):
        weights = {}
        for key, compute in (("default", None), ("workers1", ComputeSpec(workers=1))):
            rbm = BernoulliRBM(16, 6, rng=0)
            GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=10,
                    chains=4,
                    persistent=True,
                    compute=compute,
                ),
                rng=1,
            ).train(rbm, tiny_binary_data, epochs=2)
            weights[key] = rbm.weights.copy()
        np.testing.assert_array_equal(weights["default"], weights["workers1"])

    def test_bgf_refresh_particles(self):
        machines = []
        for kwargs in ({}, {"workers": 1}):
            machine = BoltzmannGradientFollower(TrainerSpec.bgf(), N_VISIBLE, N_HIDDEN, rng=3)
            rng = np.random.default_rng(1)
            machine.initialize(
                rng.normal(0, 0.2, (N_VISIBLE, N_HIDDEN)),
                np.zeros(N_VISIBLE),
                np.zeros(N_HIDDEN),
            )
            machine.refresh_particles(3, **kwargs)
            machines.append(machine.particles)
        np.testing.assert_array_equal(machines[0], machines[1])

    def test_ais(self):
        rbm = _tiny_ais_rbm()
        ref = AISEstimator(
            spec=EstimatorSpec(chains=20, betas=40), rng=7
        ).estimate_log_partition(rbm)
        one = AISEstimator(
            spec=EstimatorSpec(chains=20, betas=40, compute=ComputeSpec(workers=1)),
            rng=7,
        ).estimate_log_partition(rbm)
        np.testing.assert_array_equal(ref.log_weights, one.log_weights)
        assert ref.log_partition == one.log_partition

    def test_single_chain_row_stays_serial_under_many_workers(self):
        """Sharding one chain is meaningless; p=1 takes the serial kernel
        bit-identically whatever the worker count."""
        h = _hidden(3, rows=1)
        v_ref, h_ref = _substrate().settle_batch(h, 4)
        v_many, h_many = _substrate().settle_batch(h, 4, workers=4)
        np.testing.assert_array_equal(v_ref, v_many)
        np.testing.assert_array_equal(h_ref, h_many)


class TestShardedReproducible:
    """Fixed (seed, workers=k) reproduces exactly, run to run and across
    stateful call sequences."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_settle_batch_fresh_runs_agree(self, corner, workers):
        h = _hidden(3)
        v_a, h_a = _substrate(**CORNERS[corner]).settle_batch(h, 4, workers=workers)
        v_b, h_b = _substrate(**CORNERS[corner]).settle_batch(h, 4, workers=workers)
        np.testing.assert_array_equal(v_a, v_b)
        np.testing.assert_array_equal(h_a, h_b)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_settle_batch_stateful_sequences_agree(self, workers):
        """Shard streams are stateful across calls (like the serial
        samplers'), so whole call *sequences* replay identically."""
        runs = []
        for _ in range(2):
            substrate = _substrate()
            h = _hidden(3)
            out = []
            for steps in (2, 1, 3):
                v, h = substrate.settle_batch(h, steps, workers=workers)
                out.append((v, h))
            runs.append(out)
        for (v_a, h_a), (v_b, h_b) in zip(*runs):
            np.testing.assert_array_equal(v_a, v_b)
            np.testing.assert_array_equal(h_a, h_b)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_ais_reproducible(self, workers):
        rbm = _tiny_ais_rbm()
        a = AISEstimator(
            spec=EstimatorSpec(
                chains=20, betas=40, compute=ComputeSpec(workers=workers)
            ),
            rng=7,
        ).estimate_log_partition(rbm)
        b = AISEstimator(
            spec=EstimatorSpec(
                chains=20, betas=40, compute=ComputeSpec(workers=workers)
            ),
            rng=7,
        ).estimate_log_partition(rbm)
        np.testing.assert_array_equal(a.log_weights, b.log_weights)
        assert a.log_partition == b.log_partition

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_gs_trainer_reproducible(self, tiny_binary_data, workers):
        weights = []
        for _ in range(2):
            rbm = BernoulliRBM(16, 6, rng=0)
            GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=10,
                    chains=6,
                    persistent=True,
                    compute=ComputeSpec(workers=workers),
                ),
                rng=1,
            ).train(rbm, tiny_binary_data, epochs=2)
            weights.append(rbm.weights.copy())
        np.testing.assert_array_equal(weights[0], weights[1])

    def test_worker_counts_are_distinct_streams(self):
        """Different k genuinely re-keys the substreams (sanity that the
        sharded path is active, not silently serial)."""
        h = _hidden(3, rows=16)
        outs = {
            workers: _substrate().settle_batch(h, 4, workers=workers)[1]
            for workers in (1, 2, 4)
        }
        assert not np.array_equal(outs[1], outs[2])
        assert not np.array_equal(outs[2], outs[4])

    def test_sharded_call_populates_shard_contexts(self):
        substrate = _substrate()
        substrate.settle_batch(_hidden(3), 2, workers=2)
        assert 2 in substrate._shard_contexts
        assert len(substrate._shard_contexts[2]) == 2


class TestAISShardRootIndependence:
    def test_shard_streams_never_alias_natural_spawn_children(self):
        """Regression: shard stream (k, i) must NOT equal 'child k's i-th
        spawned child' of the same master seed — the estimator's shard root
        branches at a dedicated sentinel key instead of the caller's own
        spawn tree (see AIS_SHARD_ROOT_KEY)."""
        from repro.rbm.ais import AIS_SHARD_ROOT_KEY  # noqa: F401
        from repro.utils.rng import spawn_rngs

        estimator = AISEstimator(
            spec=EstimatorSpec(chains=8, betas=10, compute=ComputeSpec(workers=2)),
            rng=0,
        )
        shard_rngs = estimator._shard_rngs(2)
        shard_draws = [rng.random(16) for rng in shard_rngs]
        # The natural spawn tree of seed 0: children 0..3, each spawning
        # grandchildren — the aliasing shapes the old derivation produced.
        for child in spawn_rngs(0, 4):
            for grandchild in spawn_rngs(child, 2):
                natural = grandchild.random(16)
                for draws in shard_draws:
                    assert not np.array_equal(natural, draws)
