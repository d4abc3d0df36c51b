"""Tests for the Gibbs-sampler (GS) accelerator architecture."""

import numpy as np
import pytest

from repro.config import NoiseSpec, SubstrateSpec, TrainerSpec
from repro.core import GibbsSamplerMachine, GibbsSamplerTrainer
from repro.rbm import BernoulliRBM, CDTrainer
from repro.rbm import reconstruction_error
from repro.utils.validation import ValidationError


class TestGibbsSamplerMachine:
    def test_program_requires_matching_shape(self):
        machine = GibbsSamplerMachine(spec=SubstrateSpec(10, 5), rng=0)
        with pytest.raises(ValidationError):
            machine.program(BernoulliRBM(8, 5, rng=0))

    def test_positive_phase_produces_binary_hidden(self, tiny_binary_data):
        machine = GibbsSamplerMachine(spec=SubstrateSpec(16, 8), rng=0)
        machine.program(BernoulliRBM(16, 8, rng=1))
        h = machine.positive_phase(tiny_binary_data[:10])
        assert h.shape == (10, 8)
        assert set(np.unique(h)).issubset({0.0, 1.0})

    def test_negative_phase_shapes(self, tiny_binary_data):
        machine = GibbsSamplerMachine(spec=SubstrateSpec(16, 8), rng=0)
        machine.program(BernoulliRBM(16, 8, rng=1))
        h = machine.positive_phase(tiny_binary_data[:10])
        v_neg, h_neg = machine.negative_phase(h, cd_k=3)
        assert v_neg.shape == (10, 16)
        assert h_neg.shape == (10, 8)

    def test_host_counters_track_operations(self, tiny_binary_data):
        machine = GibbsSamplerMachine(spec=SubstrateSpec(16, 8), rng=0)
        machine.program(BernoulliRBM(16, 8, rng=1))
        machine.positive_phase(tiny_binary_data[:10])
        machine.negative_phase(np.zeros((10, 8)), cd_k=2)
        assert machine.host.programming_writes == 1
        assert machine.host.sample_reads == 3
        assert machine.host.training_samples_streamed == 10

    def test_ideal_machine_matches_rbm_statistics(self):
        """With no analog imperfections the machine's positive-phase samples
        follow the software RBM's conditional distribution."""
        rbm = BernoulliRBM(10, 4, rng=0)
        rng = np.random.default_rng(1)
        rbm.set_parameters(rng.normal(0, 1, (10, 4)), np.zeros(10), rng.normal(0, 0.5, 4))
        machine = GibbsSamplerMachine(spec=SubstrateSpec(10, 4, input_bits=None), rng=2)
        machine.program(rbm)
        v = np.tile((rng.random(10) < 0.5).astype(float), (4000, 1))
        samples = machine.positive_phase(v)
        expected = rbm.hidden_activation_probability(v[:1])[0]
        np.testing.assert_allclose(samples.mean(axis=0), expected, atol=0.05)


class TestGibbsSamplerTrainer:
    def test_configuration_validation(self):
        with pytest.raises(ValidationError):
            GibbsSamplerTrainer(spec=TrainerSpec.gs(0.0))
        with pytest.raises(ValidationError):
            GibbsSamplerTrainer(spec=TrainerSpec.gs(cd_k=0))
        with pytest.raises(ValidationError):
            GibbsSamplerTrainer(spec=TrainerSpec.gs(batch_size=0))

    def test_training_reduces_reconstruction_error(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=0)
        before = reconstruction_error(rbm, tiny_binary_data)
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=2, batch_size=10), rng=1
        ).train(
            rbm, tiny_binary_data, epochs=15
        )
        assert reconstruction_error(rbm, tiny_binary_data) < before

    def test_machine_created_lazily_with_matching_shape(self, tiny_binary_data):
        trainer = GibbsSamplerTrainer(spec=TrainerSpec.gs(0.1), rng=0)
        rbm = BernoulliRBM(16, 8, rng=1)
        trainer.train(rbm, tiny_binary_data, epochs=1)
        assert trainer.machine.n_visible == 16
        assert trainer.machine.n_hidden == 8

    def test_each_minibatch_reprograms_the_array(self, tiny_binary_data):
        """The GS operation sequence reprograms the coupling array per batch
        (the communication the BGF removes)."""
        trainer = GibbsSamplerTrainer(spec=TrainerSpec.gs(0.1, batch_size=10), rng=0)
        rbm = BernoulliRBM(16, 8, rng=1)
        trainer.train(rbm, tiny_binary_data, epochs=2)
        n_batches = int(np.ceil(tiny_binary_data.shape[0] / 10)) * 2
        assert trainer.machine.host.programming_writes == n_batches
        assert trainer.machine.host.gradient_updates_on_host == n_batches

    def test_history_and_callback(self, tiny_binary_data):
        epochs_seen = []
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1),
            rng=0,
            callback=lambda epoch, rbm: epochs_seen.append(epoch),
        )
        rbm = BernoulliRBM(16, 8, rng=1)
        history = trainer.train(rbm, tiny_binary_data, epochs=3)
        assert len(history) == 3
        assert epochs_seen == [0, 1, 2]

    def test_quality_comparable_to_software_cd(self, tiny_binary_data):
        """GS is the same algorithm with hardware sampling, so its trained
        model should reach a similar reconstruction error as software CD."""
        software = BernoulliRBM(16, 8, rng=0)
        hardware = software.copy()
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1
        ).train(software, tiny_binary_data, epochs=15)
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10), rng=1
        ).train(
            hardware, tiny_binary_data, epochs=15
        )
        software_error = reconstruction_error(software, tiny_binary_data)
        hardware_error = reconstruction_error(hardware, tiny_binary_data)
        assert hardware_error < 1.3 * software_error + 0.02

    def test_noise_config_propagates(self, tiny_binary_data):
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, noise=NoiseSpec(0.2, 0.2)), rng=0
        )
        rbm = BernoulliRBM(16, 8, rng=1)
        trainer.train(rbm, tiny_binary_data, epochs=1)
        assert trainer.machine.substrate.spec.noise.variation_rms == 0.2

    def test_data_width_mismatch_rejected(self):
        trainer = GibbsSamplerTrainer(spec=TrainerSpec.gs(0.1), rng=0)
        with pytest.raises(ValidationError):
            trainer.train(BernoulliRBM(16, 8, rng=0), np.zeros((5, 10)), epochs=1)

    def test_invalid_epochs(self, tiny_binary_data):
        trainer = GibbsSamplerTrainer(spec=TrainerSpec.gs(0.1), rng=0)
        with pytest.raises(ValidationError):
            trainer.train(BernoulliRBM(16, 8, rng=0), tiny_binary_data, epochs=0)

    @pytest.mark.parametrize(
        "chains, persistent", [(1, False), (4, True)], ids=["cd", "pcd"]
    )
    def test_partial_fit_rejects_an_empty_batch(self, chains, persistent):
        """A 0-row batch once divided by zero and wrote NaN into the RBM."""
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, chains=chains, persistent=persistent), rng=0
        )
        rbm = BernoulliRBM(16, 8, rng=0)
        before = rbm.copy()
        with pytest.raises(ValidationError, match="batch must have at least one row"):
            trainer.partial_fit(rbm, np.zeros((0, 16)))
        for name in ("weights", "visible_bias", "hidden_bias"):
            np.testing.assert_array_equal(getattr(rbm, name), getattr(before, name))
