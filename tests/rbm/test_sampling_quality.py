"""Statistical tests of the RBM's samplers and of the CD gradient estimate."""

import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.rbm import BernoulliRBM, CDTrainer, MaximumLikelihoodTrainer
from repro.rbm.partition import enumerate_states, exact_visible_distribution
from repro.utils.numerics import bernoulli_sample


class TestGibbsSamplingStatistics:
    def test_long_chain_matches_exact_marginals(self):
        """A long Gibbs chain from a small RBM reproduces the exact visible
        marginals (the substrate's job in the negative phase)."""
        rbm = BernoulliRBM(6, 3, rng=0)
        rng = np.random.default_rng(1)
        rbm.set_parameters(
            rng.normal(0, 0.8, (6, 3)), rng.normal(0, 0.4, 6), rng.normal(0, 0.4, 3)
        )
        exact = exact_visible_distribution(rbm)
        exact_pixel_means = exact @ enumerate_states(6)

        chains = (np.random.default_rng(2).random((200, 6)) < 0.5).astype(float)
        v = chains
        sampled = np.zeros(6)
        n_kept = 0
        gen = np.random.default_rng(3)
        for step in range(120):
            v, _ = rbm.gibbs_step(v, rng=gen)
            if step >= 20:  # burn-in
                sampled += v.sum(axis=0)
                n_kept += v.shape[0]
        sampled /= n_kept
        np.testing.assert_allclose(sampled, exact_pixel_means, atol=0.05)

    def test_conditional_sampler_is_unbiased(self):
        rbm = BernoulliRBM(5, 4, rng=0)
        rng = np.random.default_rng(1)
        rbm.set_parameters(rng.normal(0, 1, (5, 4)), np.zeros(5), rng.normal(0, 0.5, 4))
        v = np.tile((rng.random(5) < 0.5).astype(float), (20000, 1))
        h = rbm.sample_hidden(v, rng=2)
        expected = rbm.hidden_activation_probability(v[:1])[0]
        np.testing.assert_allclose(h.mean(axis=0), expected, atol=0.02)

    def test_reconstruction_of_trained_model_recovers_prototypes(self):
        """After training, corrupting a prototype and reconstructing it should
        move it back toward the prototype (associative-memory behaviour)."""
        rng = np.random.default_rng(4)
        prototypes = (rng.random((3, 12)) < 0.5).astype(float)
        data = prototypes[rng.integers(0, 3, 150)]
        rbm = BernoulliRBM(12, 8, rng=5)
        rbm.init_visible_bias_from_data(data)
        CDTrainer(
            spec=TrainerSpec.cd(0.3, cd_k=1, batch_size=10), rng=6
        ).train(rbm, data, epochs=40)

        corrupted = prototypes.copy()
        corrupted[:, :2] = 1.0 - corrupted[:, :2]  # flip two pixels of each
        reconstructed = rbm.reconstruct(corrupted)
        before = np.abs(corrupted - prototypes).mean()
        after = np.abs(reconstructed - prototypes).mean()
        assert after < before


class TestCDGradientQuality:
    def test_cd_gradient_correlates_with_exact_gradient(self):
        """CD-k is a biased but directionally-useful estimate of the exact
        likelihood gradient — the premise of the whole training approach."""
        rng = np.random.default_rng(0)
        data = (rng.random((60, 8)) < np.array([0.8, 0.2, 0.7, 0.3, 0.5, 0.9, 0.1, 0.4])).astype(float)
        rbm = BernoulliRBM(8, 4, rng=1)
        CDTrainer(
            spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=10), rng=2
        ).train(rbm, data, epochs=2)

        # Exact gradient of the data log likelihood.
        trainer = MaximumLikelihoodTrainer(0.1)
        data_vh, _, _ = trainer.data_expectations(rbm, data)
        model_vh, _, _ = trainer.model_expectations(rbm)
        exact_gradient = (data_vh - model_vh).ravel()

        # Averaged CD-5 estimate over many draws.
        cd = CDTrainer(spec=TrainerSpec.cd(0.1, cd_k=5, batch_size=60), rng=3)
        estimates = []
        for _ in range(30):
            grad_w, _, _, _ = cd._gradient(rbm, data)
            estimates.append(grad_w.ravel())
        cd_gradient = np.mean(estimates, axis=0)

        cosine = float(
            cd_gradient @ exact_gradient
            / (np.linalg.norm(cd_gradient) * np.linalg.norm(exact_gradient) + 1e-12)
        )
        assert cosine > 0.7

    def test_longer_chains_reduce_gradient_bias(self):
        """CD-10's averaged weight gradient is closer to the exact gradient
        than CD-1's (the reason the paper benchmarks against cd-10)."""
        rng = np.random.default_rng(5)
        data = (rng.random((60, 8)) < 0.35).astype(float)
        rbm = BernoulliRBM(8, 4, rng=6)
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=7
        ).train(rbm, data, epochs=3)

        trainer = MaximumLikelihoodTrainer(0.1)
        data_vh, _, _ = trainer.data_expectations(rbm, data)
        model_vh, _, _ = trainer.model_expectations(rbm)
        exact_gradient = data_vh - model_vh

        def averaged_cd_error(k: int, repeats: int = 40) -> float:
            cd = CDTrainer(spec=TrainerSpec.cd(0.1, cd_k=k, batch_size=60), rng=8)
            grads = [cd._gradient(rbm, data)[0] for _ in range(repeats)]
            return float(np.linalg.norm(np.mean(grads, axis=0) - exact_gradient))

        assert averaged_cd_error(10) <= averaged_cd_error(1) + 0.02


class TestBernoulliSamplerSharedPath:
    def test_software_and_hardware_draw_through_same_primitive(self):
        """The software CD path and the substrate's comparator path both reduce
        to bernoulli_sample, so their statistics agree by construction."""
        p = np.full(50000, 0.37)
        software = bernoulli_sample(p, rng=0).mean()
        hardware_style = bernoulli_sample(p, rng=1).mean()
        assert software == pytest.approx(hardware_style, abs=0.02)
