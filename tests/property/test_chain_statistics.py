"""Statistical tests for the multi-chain (batched / persistent) samplers.

The chain-parallel ``settle_batch`` kernel and the PCD-style persistent
negative phase change the *stream order* of the sampler draws, so — unlike
the PR-1 fast-path layer — they cannot be pinned bit-for-bit against the
single-chain implementation.  What must hold instead is distributional
correctness, and on a small exactly-enumerable RBM that is testable without
slack: the joint model distribution (and therefore every moment) is known in
closed form via ``repro.rbm.partition``.

Geweke-style checks on a 6x4 RBM (10 units, well under the 12-unit
enumeration budget):

* long-run moments of the *batched* multi-chain sampler match the exact
  model moments ``E[v], E[h], E[v h^T]``,
* long-run moments of the *legacy single chain* match the same exact
  moments,
* the two samplers therefore agree with each other within Monte-Carlo
  error, and the batched sampler's empirical visible distribution has a
  small KL divergence from the exact one.

Tolerances are set several standard errors above the Monte-Carlo noise
floor for the fixed seeds used, so the tests are deterministic and have
real failure power: a conditional wired to the wrong layer, a transposed
coupling, or a chain that silently stops mixing shifts the moments by far
more than the allowance.
"""

import numpy as np
import pytest

from helpers import MOMENT_ATOL, assert_visible_kl_below
from helpers.reference import exact_model_moments
from repro.config import SubstrateSpec, TrainerSpec
from repro.core import GibbsSamplerMachine, GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM

N_VISIBLE, N_HIDDEN = 6, 4
BURN_IN = 300
N_SWEEPS = 400
N_CHAINS = 32
# MOMENT_ATOL (tests/helpers/tolerances.py): the binary-variable standard
# error at this suite's ~12800 (autocorrelated) samples is below 0.01, so
# the shared 0.05 allowance is > 5 sigma here.


@pytest.fixture(scope="module")
def enumerable_rbm() -> BernoulliRBM:
    """A 6x4 RBM with moderate couplings (mixes fast, still structured)."""
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
    rng = np.random.default_rng(7)
    rbm.set_parameters(
        rng.normal(0.0, 0.5, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0.0, 0.3, N_VISIBLE),
        rng.normal(0.0, 0.3, N_HIDDEN),
    )
    return rbm


@pytest.fixture(scope="module")
def exact_moments(enumerable_rbm):
    return exact_model_moments(enumerable_rbm)


def _programmed_substrate(rbm: BernoulliRBM, seed: int) -> BipartiteIsingSubstrate:
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(rbm.n_visible, rbm.n_hidden, input_bits=None), rng=seed
    )
    substrate.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
    return substrate


def _batched_chain_samples(rbm, *, seed, chains, burn_in, sweeps):
    """Collect (v, h) sweeps from ``chains`` parallel chains via settle_batch."""
    substrate = _programmed_substrate(rbm, seed)
    hidden = (np.random.default_rng(seed).random((chains, rbm.n_hidden)) < 0.5).astype(
        float
    )
    _, hidden = substrate.settle_batch(hidden, burn_in)
    v_samples, h_samples = [], []
    for _ in range(sweeps):
        visible, hidden = substrate.settle_batch(hidden, 1)
        v_samples.append(visible)
        h_samples.append(hidden)
    return np.concatenate(v_samples), np.concatenate(h_samples)


def _single_chain_samples(rbm, *, seed, burn_in, sweeps):
    """The legacy layout: one chain advanced one sweep at a time."""
    substrate = _programmed_substrate(rbm, seed)
    hidden = (np.random.default_rng(seed).random((1, rbm.n_hidden)) < 0.5).astype(float)
    _, hidden = substrate.gibbs_chain(hidden, burn_in)
    v_samples, h_samples = [], []
    for _ in range(sweeps):
        visible, hidden = substrate.gibbs_chain(hidden, 1)
        v_samples.append(visible)
        h_samples.append(hidden)
    return np.concatenate(v_samples), np.concatenate(h_samples)


@pytest.fixture(scope="module")
def batched_samples(enumerable_rbm):
    return _batched_chain_samples(
        enumerable_rbm, seed=11, chains=N_CHAINS, burn_in=BURN_IN, sweeps=N_SWEEPS
    )


@pytest.fixture(scope="module")
def single_chain_samples(enumerable_rbm):
    # Matches the batched sampler's total draw count (chains x sweeps).
    return _single_chain_samples(
        enumerable_rbm, seed=13, burn_in=BURN_IN, sweeps=N_SWEEPS * N_CHAINS
    )


class TestBatchedChainsMatchExactDistribution:
    def test_visible_means(self, batched_samples, exact_moments):
        v, _ = batched_samples
        np.testing.assert_allclose(v.mean(axis=0), exact_moments[0], atol=MOMENT_ATOL)

    def test_hidden_means(self, batched_samples, exact_moments):
        _, h = batched_samples
        np.testing.assert_allclose(h.mean(axis=0), exact_moments[1], atol=MOMENT_ATOL)

    def test_pairwise_correlations(self, batched_samples, exact_moments):
        v, h = batched_samples
        corr = v.T @ h / v.shape[0]
        np.testing.assert_allclose(corr, exact_moments[2], atol=MOMENT_ATOL)

    def test_visible_distribution_kl(self, batched_samples, enumerable_rbm):
        """KL(empirical || exact) of the sampled visible marginal is small."""
        v, _ = batched_samples
        assert_visible_kl_below(v, enumerable_rbm)


class TestSingleChainMatchesExactDistribution:
    def test_visible_means(self, single_chain_samples, exact_moments):
        v, _ = single_chain_samples
        np.testing.assert_allclose(v.mean(axis=0), exact_moments[0], atol=MOMENT_ATOL)

    def test_hidden_means(self, single_chain_samples, exact_moments):
        _, h = single_chain_samples
        np.testing.assert_allclose(h.mean(axis=0), exact_moments[1], atol=MOMENT_ATOL)


class TestGewekeBatchedVsSingleChain:
    """The two chain layouts estimate the same distribution: their moment
    estimates agree within combined Monte-Carlo error."""

    def test_visible_means_agree(self, batched_samples, single_chain_samples):
        v_batched, _ = batched_samples
        v_single, _ = single_chain_samples
        np.testing.assert_allclose(
            v_batched.mean(axis=0), v_single.mean(axis=0), atol=2 * MOMENT_ATOL
        )

    def test_hidden_means_agree(self, batched_samples, single_chain_samples):
        _, h_batched = batched_samples
        _, h_single = single_chain_samples
        np.testing.assert_allclose(
            h_batched.mean(axis=0), h_single.mean(axis=0), atol=2 * MOMENT_ATOL
        )


class TestNegativePhaseChains:
    """machine.negative_phase_chains draws the chain block from the model's
    conditional distributions (moment-level agreement with the exact
    marginals)."""

    def _advance_moments(self, rbm, *, seed):
        machine = GibbsSamplerMachine(
            spec=SubstrateSpec(rbm.n_visible, rbm.n_hidden), rng=seed
        )
        machine.substrate.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        chains = (
            np.random.default_rng(seed).random((16, rbm.n_hidden)) < 0.5
        ).astype(float)
        v_sum = np.zeros(rbm.n_visible)
        count = 0
        # Burn in, then average the visible readouts of repeated advances.
        for sweep in range(200):
            v_neg, chains = machine.negative_phase_chains(chains, 1)
            if sweep >= 50:
                v_sum += v_neg.sum(axis=0)
                count += v_neg.shape[0]
        return v_sum / count

    def test_chain_moments_agree_with_exact(self, enumerable_rbm, exact_moments):
        batched = self._advance_moments(enumerable_rbm, seed=17)
        np.testing.assert_allclose(batched, exact_moments[0], atol=MOMENT_ATOL)


class TestPersistentTrainerChains:
    """The PCD engine's chains keep sampling the *current* model: after
    training on strongly-biased data, the persistent chains' visible
    statistics track the learned model's exact marginals."""

    def test_chains_track_trained_model(self):
        rng = np.random.default_rng(3)
        # Data with strongly "on" first half / "off" second half.
        data = np.concatenate(
            [
                (rng.random((120, N_VISIBLE // 2)) < 0.9).astype(float),
                (rng.random((120, N_VISIBLE - N_VISIBLE // 2)) < 0.1).astype(float),
            ],
            axis=1,
        )
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10, chains=16, persistent=True),
            rng=1,
        )
        trainer.train(rbm, data, epochs=30)
        mean_v, _, _ = exact_model_moments(rbm)
        # The learned model's marginals must reflect the data's asymmetry...
        assert mean_v[: N_VISIBLE // 2].mean() > mean_v[N_VISIBLE // 2 :].mean() + 0.2
        # ...and the live persistent chains must have followed it: advance
        # them under the final model and compare against exact marginals.
        machine = trainer.machine
        chains = trainer.chain_states
        v_sum = np.zeros(N_VISIBLE)
        count = 0
        for sweep in range(300):
            v_neg, chains = machine.negative_phase_chains(chains, 1)
            if sweep >= 100:
                v_sum += v_neg.sum(axis=0)
                count += v_neg.shape[0]
        np.testing.assert_allclose(v_sum / count, mean_v, atol=2 * MOMENT_ATOL)
