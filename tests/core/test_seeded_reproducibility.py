"""Run-to-run reproducibility of the seeded kernels, in every tier.

A fixed seed fixes every draw: the settle kernel (within one call and
across a stateful sequence of calls), the Gibbs-sampler trainer (fresh
and persistent chains) and the AIS estimator with its two wrappers.  The
float64 tier is also pinned against the oracle
(``test_kernel_equivalence.py``); the float32 tier has no oracle, so this
suite is what pins its seeded runs.  A different seed must give different
draws, or the seed would not reach the streams at all.
"""

import numpy as np
import pytest

from repro.config import (
    ComputeSpec,
    EstimatorSpec,
    NoiseSpec,
    SubstrateSpec,
    TrainerSpec,
)
from repro.core import GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import (
    AISEstimator,
    BernoulliRBM,
    average_log_probability,
    estimate_log_partition,
)

N_VISIBLE, N_HIDDEN = 12, 7

CORNERS = {
    "ideal": dict(),
    "noisy": dict(noise=NoiseSpec(0.1, 0.1)),
    "variation": dict(noise=NoiseSpec(0.1, 0.0)),
    "float32": dict(dtype="float32"),
    "float32-noisy": dict(dtype="float32", noise=NoiseSpec(0.1, 0.1)),
}


def _substrate(seed=5, dtype="float64", noise=None):
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            N_VISIBLE,
            N_HIDDEN,
            input_bits=None,
            noise=noise or NoiseSpec(),
            compute=ComputeSpec(dtype=dtype),
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


def _settle_sequence(corner, seed=5):
    substrate = _substrate(seed, **CORNERS[corner])
    h = _hidden(3)
    out = []
    for steps in (2, 1, 3):
        v, h = substrate.settle_batch(h, steps)
        out.append((v, h))
    return out


class TestSettleReproducible:
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_fresh_runs_agree(self, corner):
        h = _hidden(3)
        v_a, h_a = _substrate(**CORNERS[corner]).settle_batch(h, 4)
        v_b, h_b = _substrate(**CORNERS[corner]).settle_batch(h, 4)
        np.testing.assert_array_equal(v_a, v_b)
        np.testing.assert_array_equal(h_a, h_b)

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_stateful_sequences_agree(self, corner):
        for (v_a, h_a), (v_b, h_b) in zip(_settle_sequence(corner), _settle_sequence(corner)):
            np.testing.assert_array_equal(v_a, v_b)
            np.testing.assert_array_equal(h_a, h_b)

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_seeds_key_the_streams(self, corner):
        h = _hidden(3, rows=16)
        _, h_a = _substrate(5, **CORNERS[corner]).settle_batch(h, 4)
        _, h_b = _substrate(6, **CORNERS[corner]).settle_batch(h, 4)
        assert not np.array_equal(h_a, h_b)


class TestGSTrainerReproducible:
    @staticmethod
    def _train(data, *, persistent, dtype, seed=1):
        rbm = BernoulliRBM(16, 6, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1,
                cd_k=1,
                batch_size=10,
                chains=6,
                persistent=persistent,
                compute=ComputeSpec(dtype=dtype),
            ),
            rng=seed,
        )
        trainer.train(rbm, data, epochs=2)
        return rbm

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("persistent", [False, True], ids=["fresh", "persistent"])
    def test_fresh_runs_agree(self, tiny_binary_data, persistent, dtype):
        a, b = (
            self._train(tiny_binary_data, persistent=persistent, dtype=dtype)
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
        np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)

    def test_seeds_key_the_run(self, tiny_binary_data):
        a = self._train(tiny_binary_data, persistent=True, dtype="float64", seed=1)
        b = self._train(tiny_binary_data, persistent=True, dtype="float64", seed=2)
        assert not np.array_equal(a.weights, b.weights)


class TestAISReproducible:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_estimator(self, dtype):
        runs = [
            AISEstimator(
                spec=EstimatorSpec(chains=20, betas=40, compute=ComputeSpec(dtype=dtype)),
                rng=7,
            ).estimate_log_partition(_tiny_ais_rbm())
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].log_weights, runs[1].log_weights)
        assert runs[0].log_partition == runs[1].log_partition

    def test_seeds_key_the_sweep(self):
        a, b = (
            AISEstimator(spec=EstimatorSpec(chains=20, betas=40), rng=seed)
            .estimate_log_partition(_tiny_ais_rbm())
            .log_weights
            for seed in (7, 8)
        )
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_estimate_log_partition(self, dtype):
        runs = [
            estimate_log_partition(_tiny_ais_rbm(), n_chains=12, n_betas=25, rng=7, dtype=dtype)
            for _ in range(2)
        ]
        assert np.isfinite(runs[0])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_average_log_probability(self, dtype):
        data = (np.random.default_rng(4).random((6, 8)) < 0.5).astype(float)
        runs = [
            average_log_probability(
                _tiny_ais_rbm(), data, n_chains=12, n_betas=25, rng=7, dtype=dtype
            )
            for _ in range(2)
        ]
        assert np.isfinite(runs[0])
        assert runs[0] == runs[1]
