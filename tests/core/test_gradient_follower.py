"""Tests for the Boltzmann gradient follower (BGF) architecture."""

from helpers import FLOAT64_ASSOC_ATOL
import numpy as np
import pytest
from scipy import sparse as sp

from repro.analog import ChargePumpUpdater
from repro.config import ComputeSpec, NoiseSpec, TrainerSpec
from repro.core import BGFTrainer, BoltzmannGradientFollower
from repro.core.gradient_follower import READOUT_BITS, WEIGHT_RANGE
from repro.rbm import BernoulliRBM, CDTrainer
from repro.rbm import reconstruction_error
from repro.utils.validation import ValidationError


class TestBGFMachineFromSpec:
    def test_spec_fields_drive_the_machine(self):
        spec = TrainerSpec.bgf(0.5, reference_batch_size=100, particles=3, anneal_steps=5)
        machine = BoltzmannGradientFollower(spec, 16, 8, rng=0)
        assert machine.step_size == pytest.approx(0.005)
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        assert machine.particles.shape == (3, 8)
        for pump in (machine.weight_pump, machine.visible_bias_pump, machine.hidden_bias_pump):
            assert pump.step_size == machine.step_size
            assert pump.weight_range == WEIGHT_RANGE
        assert machine.readout_adc.n_bits == READOUT_BITS == 8
        assert machine.readout_adc.value_range == WEIGHT_RANGE == (-4.0, 4.0)

    @pytest.mark.parametrize("dims", [(0, 2), (4, 2.5), (True, 2)])
    def test_rejects_bad_dimensions(self, dims):
        with pytest.raises(ValidationError, match="dimensions"):
            BoltzmannGradientFollower(TrainerSpec.bgf(), *dims, rng=0)


class TestBoltzmannGradientFollowerMachine:
    def _machine(self, n_visible=16, n_hidden=8, **kwargs):
        return BoltzmannGradientFollower(
            TrainerSpec.bgf(**kwargs), n_visible, n_hidden, rng=0
        )

    def test_initialize_loads_parameters(self):
        machine = self._machine()
        rbm = BernoulliRBM(16, 8, rng=1)
        machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        weights, bv, bh = machine.substrate.read_parameters()
        np.testing.assert_allclose(weights, rbm.weights)
        assert machine.particles.shape == (machine.spec.sampler.chains, 8)

    def test_initialize_clips_to_weight_range(self):
        machine = self._machine()
        machine.initialize(np.full((16, 8), 5.0), np.zeros(16), np.zeros(8))
        weights, _, _ = machine.substrate.read_parameters()
        assert weights.max() <= 4.0

    def test_run_requires_initialization(self, tiny_binary_data):
        machine = self._machine()
        with pytest.raises(ValidationError, match="initialize"):
            machine.run(tiny_binary_data[:1], shuffle=False)

    def test_run_updates_weights_in_substrate(self, tiny_binary_data):
        machine = self._machine()
        rbm = BernoulliRBM(16, 8, rng=1)
        machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        before = machine.substrate.weights.copy()
        machine.run(tiny_binary_data[:20], shuffle=False)
        assert not np.allclose(machine.substrate.weights, before)

    def test_run_width_check(self):
        machine = self._machine()
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        with pytest.raises(ValidationError):
            machine.run(np.zeros((1, 10)))

    def test_run_rejects_non_finite(self):
        machine = self._machine()
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        with pytest.raises(ValidationError, match="data"):
            machine.run(np.full((1, 16), np.nan))

    def test_run_rejects_an_empty_stream(self):
        machine = self._machine()
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        with pytest.raises(ValidationError, match="data"):
            machine.run(np.zeros((0, 16)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_particles_in_tier_dtype_from_initialize(self, dtype):
        machine = self._machine(compute=ComputeSpec(dtype=dtype))
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        assert machine.particles.dtype == machine.substrate.dtype
        machine.run(np.ones((3, 16)), shuffle=False)
        assert machine.particles.dtype == machine.substrate.dtype

    def test_particles_are_persistent_and_cycled(self, tiny_binary_data):
        machine = self._machine(particles=3)
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        initial = machine.particles
        machine.run(tiny_binary_data[:9], shuffle=False)
        # after 9 samples every one of the 3 particles has been advanced
        assert machine._particle_cursor == 9
        assert not np.array_equal(machine.particles, initial)

    def test_weights_stay_within_range(self, tiny_binary_data):
        machine = self._machine(learning_rate=2.0, reference_batch_size=1)
        assert machine.step_size == 2.0
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        for _ in range(3):
            machine.run(tiny_binary_data)
        lo, hi = WEIGHT_RANGE
        weights = machine.substrate.weights
        assert np.isclose(weights, lo).any() or np.isclose(weights, hi).any()
        assert weights.min() >= lo - FLOAT64_ASSOC_ATOL
        assert weights.max() <= hi + FLOAT64_ASSOC_ATOL

    def test_read_out_quantizes_through_adc(self):
        machine = self._machine()
        raw = np.random.default_rng(0).uniform(-4, 4, (16, 8))
        machine.initialize(raw, np.zeros(16), np.zeros(8))
        weights, _, _ = machine.read_out()
        # 8-bit readout over the +-4 rails: every weight sits on one of the
        # 256 levels, within half a level of its analog value.
        codes = (weights + 4.0) / 8.0 * 255
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)
        assert np.abs(weights - raw).max() <= 4.0 / 255 + 1e-12
        assert machine.host.final_weight_readouts == 1

    def test_host_interaction_is_minimal(self, tiny_binary_data):
        """The BGF's whole point: per-sample learning with no per-sample host
        work — only initialization, streaming, and one final readout."""
        machine = self._machine()
        machine.initialize(np.zeros((16, 8)), np.zeros(16), np.zeros(8))
        for _ in range(2):
            machine.run(tiny_binary_data)
        machine.read_out()
        assert machine.host.training_samples_streamed == 2 * tiny_binary_data.shape[0]
        assert machine.host.programming_writes == machine.host.final_weight_readouts == 1
        assert machine.host.sample_reads == machine.host.gradient_updates_on_host == 0


class TestAugmentedBuffer:
    """The weights and biases live in one ``(m + 1, n + 1)`` buffer, the
    biases as couplings to always-on spins, pulsed once per phase."""

    @staticmethod
    def _machine(dtype="float64", noise=None):
        machine = BoltzmannGradientFollower(
            TrainerSpec.bgf(
                0.5, reference_batch_size=1, noise=noise, compute=ComputeSpec(dtype=dtype)
            ),
            16,
            8,
            rng=0,
        )
        rng = np.random.default_rng(1)
        machine.initialize(
            rng.uniform(-4, 4, (16, 8)), rng.uniform(-4, 4, 16), rng.uniform(-4, 4, 8)
        )
        return machine

    def test_one_pulse_per_phase(self, tiny_binary_data, monkeypatch):
        calls = {}
        for name in ("apply", "apply_sample", "apply_bias", "apply_bias_sample"):
            original = getattr(ChargePumpUpdater, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ChargePumpUpdater, name, counted)
        self._machine().run(tiny_binary_data)
        assert calls == {"apply_sample": 2 * tiny_binary_data.shape[0]}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_substrate_reads_views_of_the_buffer(self, dtype):
        machine = self._machine(dtype)
        buffer, sub = machine._buffer, machine.substrate
        assert buffer.shape == (17, 9) and buffer.dtype == np.dtype(dtype)
        assert sub.weights.base is buffer and sub.weights.shape == (16, 8)
        assert sub.visible_bias.base is buffer and sub.hidden_bias.base is buffer
        np.testing.assert_array_equal(buffer[:16, 8], sub.visible_bias)
        np.testing.assert_array_equal(buffer[16, :8], sub.hidden_bias)

    def test_read_parameters_returns_copies(self):
        machine = self._machine()
        parameters = machine.substrate.read_parameters()
        for array in parameters:
            assert not np.shares_memory(array, machine._buffer)
        before = machine._buffer.copy()
        for array in parameters:
            array += 1.0
        np.testing.assert_array_equal(machine._buffer, before)

    def test_rbm_arrays_stay_separate(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 8, rng=1)
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.2), rng=0)
        trainer.train(rbm, tiny_binary_data, epochs=1)
        for array in (rbm.weights, rbm.visible_bias, rbm.hidden_bias):
            assert not np.shares_memory(array, trainer.machine._buffer)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.3, 0.3)], ids=["ideal", "noisy"])
    def test_corner_stays_zero(self, tiny_binary_data, dtype, noise):
        machine = self._machine(dtype, noise)
        for _ in range(2):
            machine.run(tiny_binary_data)
        assert machine._buffer[16, 8] == 0.0


class TestBGFTrainer:
    def test_step_size_derived_from_learning_rate(self, tiny_binary_data):
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.5, reference_batch_size=100))
        trainer.train(BernoulliRBM(16, 8, rng=1), tiny_binary_data, epochs=1)
        assert trainer.machine.step_size == pytest.approx(0.005)

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
        assert machine.substrate.spec.noise.noise_rms == 0.1

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

    def test_empty_data_rejected(self):
        with pytest.raises(ValidationError, match="data"):
            BGFTrainer(
                spec=TrainerSpec.bgf(0.1), rng=0
            ).train(BernoulliRBM(16, 8, rng=0), np.zeros((0, 16)), epochs=1)


@pytest.mark.parametrize("fmt", ["csr", "coo"])
@pytest.mark.parametrize("entry", ["BGFTrainer.train", "BoltzmannGradientFollower.run"])
def test_sparse_stream_rejected_by_name(entry, fmt):
    """The BGF streams dense samples: sparse input fails validation naming
    the sparse matrix, not with a numpy error from deep in the kernel."""
    data = sp.random(6, 6, density=0.5, format=fmt, random_state=0)
    with pytest.raises(ValidationError, match=f"scipy-sparse {fmt}_"):
        if entry == "BGFTrainer.train":
            BGFTrainer(spec=TrainerSpec.bgf(0.1), rng=0).train(
                BernoulliRBM(6, 4, rng=0), data, epochs=1
            )
        else:
            machine = BoltzmannGradientFollower(TrainerSpec.bgf(), 6, 4, rng=0)
            machine.initialize(np.zeros((6, 4)), np.zeros(6), np.zeros(4))
            machine.run(data)
