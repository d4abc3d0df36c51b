"""Micro-benchmarks of the library's hot kernels.

These are not paper artifacts; they track the cost of the building blocks
every experiment is made of (CD epochs, substrate sampling, BGF learning
steps, AIS sweeps, RBM free energies), which is useful when optimizing the
simulators.

``benchmarks/bench_kernels.py`` times the same kernels into a
``BENCH_kernels.json`` evidence file for the ``compare_bench.py``
regression gate.
"""

import numpy as np
import pytest

from repro.config import EstimatorSpec, SubstrateSpec, TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM, CDTrainer


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    prototypes = (rng.random((5, 49)) < 0.3).astype(float)
    samples = prototypes[rng.integers(0, 5, 200)]
    flips = rng.random(samples.shape) < 0.05
    return np.where(flips, 1.0 - samples, samples)


def test_cd1_training_epoch(benchmark, data):
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer = CDTrainer(spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=10), rng=1)
    benchmark(trainer.train, rbm, data, epochs=1)


def test_cd10_training_epoch(benchmark, data):
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer = CDTrainer(spec=TrainerSpec.cd(0.1, cd_k=10, batch_size=10), rng=1)
    benchmark(trainer.train, rbm, data, epochs=1)


def test_gibbs_sampler_training_epoch(benchmark, data):
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer = GibbsSamplerTrainer(
        spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10), rng=1
    )
    benchmark(trainer.train, rbm, data, epochs=1)


def test_bgf_training_epoch(benchmark, data):
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer = BGFTrainer(spec=TrainerSpec.bgf(0.1, reference_batch_size=10), rng=1)
    benchmark(trainer.train, rbm, data, epochs=1)


def test_substrate_conditional_sampling(benchmark, data):
    substrate = BipartiteIsingSubstrate(spec=SubstrateSpec(49, 32), rng=0)
    substrate.program(np.random.default_rng(1).normal(0, 0.1, (49, 32)), np.zeros(49), np.zeros(32))
    benchmark(substrate.sample_hidden_given_visible, data)


def test_substrate_conditional_sampling_784x500(benchmark):
    """Substrate sampling at the paper's MNIST scale (784 visible, 500 hidden)."""
    substrate = BipartiteIsingSubstrate(spec=SubstrateSpec(784, 500), rng=0)
    substrate.program(
        np.random.default_rng(1).normal(0, 0.1, (784, 500)), np.zeros(784), np.zeros(500)
    )
    batch = np.random.default_rng(2).random((64, 784))
    benchmark(substrate.sample_hidden_given_visible, batch)


def test_ais_partition_estimate(benchmark, data):
    rbm = BernoulliRBM(49, 32, rng=0)
    CDTrainer(
        spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=10), rng=1
    ).train(rbm, data, epochs=3)
    estimator = AISEstimator(spec=EstimatorSpec(chains=32, betas=100), rng=2)
    benchmark(estimator.estimate_log_partition, rbm)


def test_rbm_free_energy_batch(benchmark, data):
    rbm = BernoulliRBM(49, 32, rng=0)
    benchmark(rbm.free_energy, data)
