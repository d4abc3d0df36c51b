"""Property-based tests on trainer invariants.

These check structural guarantees that must hold for *any* reasonable
configuration: parameter shapes are preserved, weights stay finite, the
BGF's weights respect the hardware range, and trained models remain valid
probability models.
"""

from helpers import FLOAT64_ASSOC_ATOL
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.rbm import BernoulliRBM, CDTrainer


def _data_from_seed(seed: int, n_samples: int, n_visible: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    prototypes = (rng.random((3, n_visible)) < 0.4).astype(float)
    return prototypes[rng.integers(0, 3, n_samples)]


class TestCDTrainerProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        learning_rate=st.floats(0.01, 0.5),
        cd_k=st.integers(1, 3),
        batch_size=st.integers(1, 20),
    )
    def test_parameters_stay_finite_and_shaped(self, seed, learning_rate, cd_k, batch_size):
        data = _data_from_seed(seed, 30, 10)
        rbm = BernoulliRBM(10, 5, rng=seed)
        CDTrainer(
            spec=TrainerSpec.cd(learning_rate, cd_k=cd_k, batch_size=batch_size),
            rng=seed,
        ).train(
            rbm, data, epochs=2
        )
        assert rbm.weights.shape == (10, 5)
        assert np.all(np.isfinite(rbm.weights))
        assert np.all(np.isfinite(rbm.visible_bias))
        assert np.all(np.isfinite(rbm.hidden_bias))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_probabilities_remain_valid_after_training(self, seed):
        data = _data_from_seed(seed, 30, 8)
        rbm = BernoulliRBM(8, 4, rng=seed)
        CDTrainer(spec=TrainerSpec.cd(0.3), rng=seed).train(rbm, data, epochs=3)
        probabilities = rbm.hidden_activation_probability(data)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0


class TestHardwareTrainerProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), cd_k=st.integers(1, 3))
    def test_gs_trained_parameters_finite(self, seed, cd_k):
        data = _data_from_seed(seed, 25, 10)
        rbm = BernoulliRBM(10, 5, rng=seed)
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=cd_k, batch_size=5), rng=seed
        ).train(rbm, data, epochs=2)
        assert np.all(np.isfinite(rbm.weights))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), chains=st.integers(1, 10))
    def test_persistent_gs_chain_states_shape_and_binarity(self, seed, chains):
        data = _data_from_seed(seed, 30, 8)
        rbm = BernoulliRBM(8, 4, rng=seed)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, chains=chains, persistent=True), rng=seed
        )
        trainer.train(rbm, data, epochs=2)
        assert trainer.chain_states.shape == (chains, 4)
        assert set(np.unique(trainer.chain_states)).issubset({0.0, 1.0})

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        step=st.floats(0.005, 2.0),
    )
    def test_bgf_weights_respect_hardware_range(self, seed, step):
        data = _data_from_seed(seed, 25, 10)
        rbm = BernoulliRBM(10, 5, rng=seed)
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(step, reference_batch_size=1), rng=seed
        )
        half_range = 4.0
        trainer.train(rbm, data, epochs=2)
        assert trainer.machine.step_size == step
        machine_weights, machine_bv, machine_bh = trainer.machine.substrate.read_parameters()
        assert machine_weights.min() >= -half_range - FLOAT64_ASSOC_ATOL
        assert machine_weights.max() <= half_range + FLOAT64_ASSOC_ATOL
        assert machine_bv.min() >= -half_range - FLOAT64_ASSOC_ATOL
        assert machine_bh.max() <= half_range + FLOAT64_ASSOC_ATOL

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_bgf_history_lengths(self, seed):
        data = _data_from_seed(seed, 20, 10)
        rbm = BernoulliRBM(10, 5, rng=seed)
        history = BGFTrainer(
            spec=TrainerSpec.bgf(0.2), rng=seed
        ).train(rbm, data, epochs=3)
        assert len(history) == 3
        assert all(np.isfinite(history.reconstruction_error))
