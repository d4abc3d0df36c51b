"""Tests for the Boltzmann gradient follower (BGF) architecture."""

from helpers import FLOAT64_ASSOC_ATOL
import numpy as np
import pytest

from repro.config import NoiseSpec, TrainerSpec
from repro.core import BGFConfig, BGFTrainer, BoltzmannGradientFollower
from repro.rbm import BernoulliRBM, CDTrainer
from repro.rbm.metrics import reconstruction_error
from repro.utils.validation import ValidationError


class TestBGFConfig:
    def test_defaults_valid(self):
        config = BGFConfig()
        assert config.n_particles >= 1
        assert config.weight_range[1] > config.weight_range[0]

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            BGFConfig(step_size=0.0)
        with pytest.raises(ValidationError):
            BGFConfig(n_particles=0)
        with pytest.raises(ValidationError):
            BGFConfig(anneal_steps=0)
        with pytest.raises(ValidationError):
            BGFConfig(weight_range=(1.0, -1.0))
        with pytest.raises(ValidationError):
            BGFConfig(readout_bits=0)


class TestBoltzmannGradientFollowerMachine:
    def _machine(self, n_visible=16, n_hidden=8, **kwargs):
        return BoltzmannGradientFollower(n_visible, n_hidden, rng=0, **kwargs)

    def test_initialize_loads_parameters(self):
        machine = self._machine()
        rbm = BernoulliRBM(16, 8, rng=1)
        machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        weights, bv, bh = machine.substrate.read_parameters()
        np.testing.assert_allclose(weights, rbm.weights)
        assert machine.particles.shape == (machine.config.n_particles, 8)

    def test_initialize_clips_to_weight_range(self):
        machine = self._machine(config=BGFConfig(weight_range=(-1.0, 1.0)))
        machine.initialize(np.full((16, 8), 5.0), np.zeros(16), np.zeros(8))
        weights, _, _ = machine.substrate.read_parameters()
        assert weights.max() <= 1.0

    def test_learn_sample_requires_initialization(self, tiny_binary_data):
        machine = self._machine()
        with pytest.raises(ValidationError):
            machine.learn_sample(tiny_binary_data[0])

    def test_learn_sample_updates_weights_in_substrate(self, tiny_binary_data):
        machine = self._machine()
        rbm = BernoulliRBM(16, 8, rng=1)
        machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        before = machine.substrate.weights.copy()
        for sample in tiny_binary_data[:20]:
            machine.learn_sample(sample)
        assert not np.allclose(machine.substrate.weights, before)

    def test_learn_sample_width_check(self):
        machine = self._machine()
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        with pytest.raises(ValidationError):
            machine.learn_sample(np.zeros(10))

    def test_particles_are_persistent_and_cycled(self, tiny_binary_data):
        machine = self._machine(config=BGFConfig(n_particles=3))
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        initial = machine.particles
        for sample in tiny_binary_data[:9]:
            machine.learn_sample(sample)
        # after 9 samples every one of the 3 particles has been advanced
        assert machine._particle_cursor == 9
        assert not np.array_equal(machine.particles, initial)

    def test_weights_stay_within_range(self, tiny_binary_data):
        machine = self._machine(config=BGFConfig(step_size=0.2, weight_range=(-1.0, 1.0)))
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        machine.run(tiny_binary_data, epochs=3)
        lo, hi = machine.config.weight_range
        assert machine.substrate.weights.min() >= lo - FLOAT64_ASSOC_ATOL
        assert machine.substrate.weights.max() <= hi + FLOAT64_ASSOC_ATOL

    def test_read_out_quantizes_through_adc(self):
        machine = self._machine(config=BGFConfig(readout_bits=4, weight_range=(-1.0, 1.0)))
        raw = np.random.default_rng(0).uniform(-1, 1, (16, 8))
        machine.initialize(raw, np.zeros(16), np.zeros(8))
        weights, _, _ = machine.read_out()
        # 4-bit readout: at most 16 distinct levels
        assert np.unique(np.round(weights, 9)).size <= 16
        assert machine.host.final_weight_readouts == 1

    def test_read_out_without_adc(self):
        machine = self._machine(config=BGFConfig(readout_bits=None))
        raw = np.random.default_rng(0).uniform(-1, 1, (16, 8))
        machine.initialize(raw, np.zeros(16), np.zeros(8))
        weights, _, _ = machine.read_out()
        np.testing.assert_allclose(weights, np.clip(raw, -4, 4))

    def test_host_interaction_is_minimal(self, tiny_binary_data):
        """The BGF's whole point: per-sample learning with no per-sample host
        work — only initialization, streaming, and one final readout."""
        machine = self._machine()
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        machine.run(tiny_binary_data, epochs=2)
        machine.read_out()
        assert machine.host.training_samples_streamed == 2 * tiny_binary_data.shape[0]
        assert machine.host.total_host_interactions == 2  # 1 program + 1 readout


class TestBGFTrainer:
    def test_step_size_derived_from_learning_rate(self):
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.5, reference_batch_size=100))
        assert trainer.config.step_size == pytest.approx(0.005)

    def test_invalid_reference_batch(self):
        with pytest.raises(ValidationError):
            BGFTrainer(spec=TrainerSpec.bgf(reference_batch_size=0))

    def test_training_reduces_reconstruction_error(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        before = reconstruction_error(rbm, tiny_binary_data)
        BGFTrainer(
            spec=TrainerSpec.bgf(0.3, reference_batch_size=10), rng=1
        ).train(rbm, tiny_binary_data, epochs=15)
        assert reconstruction_error(rbm, tiny_binary_data) < before

    def test_trained_parameters_written_back_to_rbm(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        original = rbm.weights.copy()
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.3, reference_batch_size=10), rng=1)
        trainer.train(rbm, tiny_binary_data, epochs=2)
        assert not np.allclose(rbm.weights, original)
        machine_weights, _, _ = trainer.machine.read_out()
        np.testing.assert_allclose(rbm.weights, machine_weights)

    def test_history_and_callback(self, tiny_binary_data):
        seen = []
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(0.2),
            rng=0,
            callback=lambda epoch, rbm: seen.append(epoch),
        )
        rbm = BernoulliRBM(16, 8, rng=1)
        history = trainer.train(rbm, tiny_binary_data, epochs=4)
        assert len(history) == 4
        assert seen == [0, 1, 2, 3]

    def test_quality_comparable_to_software_cd(self, tiny_binary_data):
        """Table 4 / Fig. 7's claim at miniature scale: BGF-trained quality is
        in the same ballpark as CD-trained quality."""
        base = BernoulliRBM(16, 8, rng=0)
        base.init_visible_bias_from_data(tiny_binary_data)
        software = base.copy()
        hardware = base.copy()
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=10, batch_size=10), rng=1
        ).train(software, tiny_binary_data, epochs=20)
        BGFTrainer(
            spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1
        ).train(hardware, tiny_binary_data, epochs=20)
        software_error = reconstruction_error(software, tiny_binary_data)
        hardware_error = reconstruction_error(hardware, tiny_binary_data)
        assert hardware_error < 1.4 * software_error + 0.02

    def test_noise_config_reaches_charge_pump_and_substrate(self, tiny_binary_data):
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(0.2, noise=NoiseSpec(0.2, 0.1)), rng=0
        )
        rbm = BernoulliRBM(16, 8, rng=1)
        trainer.train(rbm, tiny_binary_data, epochs=1)
        machine = trainer.machine
        assert machine.weight_pump.variation_rms == 0.2
        assert machine.substrate.noise_config.noise_rms == 0.1

    def test_data_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BGFTrainer(
                spec=TrainerSpec.bgf(0.1), rng=0
            ).train(BernoulliRBM(16, 8, rng=0), np.zeros((5, 12)), epochs=1)

    def test_invalid_epochs(self, tiny_binary_data):
        with pytest.raises(ValidationError):
            BGFTrainer(
                spec=TrainerSpec.bgf(0.1), rng=0
            ).train(BernoulliRBM(16, 8, rng=0), tiny_binary_data, epochs=0)
