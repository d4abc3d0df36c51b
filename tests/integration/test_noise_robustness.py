"""Integration tests of the Sec.-4.5 noise-robustness claims across pipelines.

The figure drivers cover the BGF; these tests additionally check the Gibbs
sampler under noise and the comparison of both architectures against the
ideal substrate, at miniature scale.
"""

import numpy as np
import pytest

from repro.config import NoiseSpec, TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.rbm import BernoulliRBM
from repro.rbm.metrics import reconstruction_error


@pytest.fixture(scope="module")
def structured_data():
    rng = np.random.default_rng(7)
    prototypes = (rng.random((4, 20)) < 0.3).astype(float)
    data = prototypes[rng.integers(0, 4, 120)]
    flips = rng.random(data.shape) < 0.03
    return np.where(flips, 1.0 - data, data)


def _train_and_score(trainer_factory, noise, data, epochs=12):
    rbm = BernoulliRBM(20, 10, rng=0)
    rbm.init_visible_bias_from_data(data)
    trainer = trainer_factory(noise)
    trainer.train(rbm, data, epochs=epochs)
    return reconstruction_error(rbm, data)


class TestGibbsSamplerNoiseRobustness:
    def test_moderate_noise_preserves_training_quality(self, structured_data):
        def factory(noise):
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10, noise=noise),
                rng=1,
            )

        ideal = _train_and_score(factory, NoiseSpec(0.0, 0.0), structured_data)
        moderate = _train_and_score(factory, NoiseSpec(0.1, 0.1), structured_data)
        untrained = reconstruction_error(BernoulliRBM(20, 10, rng=0), structured_data)
        assert moderate < untrained  # it still learns
        assert moderate < ideal * 1.6 + 0.02  # and not much worse than ideal

    def test_extreme_noise_still_learns_something(self, structured_data):
        def factory(noise):
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10, noise=noise),
                rng=1,
            )

        noisy = _train_and_score(factory, NoiseSpec(0.3, 0.3), structured_data)
        untrained = reconstruction_error(BernoulliRBM(20, 10, rng=0), structured_data)
        assert noisy < untrained


class TestBGFNoiseRobustness:
    def test_noise_sweep_band_is_narrow(self, structured_data):
        def factory(noise):
            return BGFTrainer(
                spec=TrainerSpec.bgf(
                    0.2,
                    reference_batch_size=10,
                    noise=noise,
                ),
                rng=1,
            )

        errors = {
            rms: _train_and_score(factory, NoiseSpec(rms, rms), structured_data)
            for rms in (0.0, 0.05, 0.1, 0.3)
        }
        untrained = reconstruction_error(BernoulliRBM(20, 10, rng=0), structured_data)
        for rms, error in errors.items():
            assert error < untrained, f"rms={rms} failed to learn"
        # The <=10% configurations stay close to the ideal one.
        assert abs(errors[0.1] - errors[0.0]) < 0.05
        assert abs(errors[0.05] - errors[0.0]) < 0.05

    def test_static_variation_alone_and_dynamic_noise_alone(self, structured_data):
        """Both noise ingredients are tolerable individually as well."""
        def factory(noise):
            return BGFTrainer(
                spec=TrainerSpec.bgf(
                    0.2,
                    reference_batch_size=10,
                    noise=noise,
                ),
                rng=1,
            )

        ideal = _train_and_score(factory, NoiseSpec(0.0, 0.0), structured_data)
        variation_only = _train_and_score(factory, NoiseSpec(0.2, 0.0), structured_data)
        noise_only = _train_and_score(factory, NoiseSpec(0.0, 0.2), structured_data)
        assert variation_only < ideal * 1.8 + 0.02
        assert noise_only < ideal * 1.8 + 0.02
