"""Tests pinning down the BGF's algorithmic differences from textbook CD.

Sec. 3.3 enumerates three deviations: (1) mid-step parameter updates — the
positive-phase increment lands before the negative phase is sampled, (2) a
hardware update non-linearity f_ij, and (3) an effective minibatch size of
one with a correspondingly smaller step.  These tests verify each is
actually implemented, not just documented.
"""

from helpers import FLOAT64_EXACT_ATOL
import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.core import BGFConfig, BGFTrainer, BoltzmannGradientFollower


@pytest.fixture
def machine():
    m = BoltzmannGradientFollower(
        12, 6, config=BGFConfig(step_size=0.05, n_particles=2, anneal_steps=1), rng=0
    )
    m.initialize(np.zeros((12, 6)), np.zeros(12), np.zeros(6))
    return m


class TestMidStepUpdates:
    def test_positive_phase_update_lands_before_negative_phase(self, machine, monkeypatch):
        """Capture the weights seen by the negative phase: they must already
        include the positive-phase increment (W^(t+1/2) of Eq. 12)."""
        weights_before = machine.substrate.weights.copy()
        seen_by_negative = {}

        original_negative = machine._negative_step

        def spying_negative_step():
            seen_by_negative["weights"] = machine.substrate.weights.copy()
            return original_negative()

        monkeypatch.setattr(machine, "_negative_step", spying_negative_step)
        sample = np.ones(12)
        machine.learn_sample(sample)

        assert "weights" in seen_by_negative
        positive_delta = seen_by_negative["weights"] - weights_before
        # The positive phase can only increment (or leave) weights.
        assert positive_delta.min() >= -FLOAT64_EXACT_ATOL
        assert positive_delta.max() > 0.0


class TestMinibatchOfOne:
    def test_weights_change_after_every_sample(self, machine):
        rng = np.random.default_rng(0)
        previous = machine.substrate.weights.copy()
        changes = 0
        for _ in range(10):
            sample = (rng.random(12) < 0.6).astype(float)
            machine.learn_sample(sample)
            if not np.allclose(machine.substrate.weights, previous):
                changes += 1
            previous = machine.substrate.weights.copy()
        assert changes >= 8  # essentially every sample triggers an update

    def test_step_size_scaled_by_reference_batch(self):
        """The trainer derives alpha_effective = alpha / batch_size, the paper's
        guidance for matching the learning rate at minibatch size one."""
        coarse = BGFTrainer(spec=TrainerSpec.bgf(0.5, reference_batch_size=5))
        fine = BGFTrainer(spec=TrainerSpec.bgf(0.5, reference_batch_size=500))
        assert coarse.config.step_size == pytest.approx(0.1)
        assert fine.config.step_size == pytest.approx(0.001)
        assert fine.config.step_size < coarse.config.step_size


class TestHardwareNonlinearity:
    def test_update_magnitude_shrinks_near_the_rails(self):
        """f_ij: a weight near the positive rail receives a smaller increment
        than a weight in the middle of the range."""
        config = BGFConfig(step_size=0.05, weight_range=(-1.0, 1.0), saturation=True)
        machine = BoltzmannGradientFollower(4, 2, config=config, rng=0)
        near_rail = np.full((4, 2), 0.95)
        machine.initialize(near_rail, np.zeros(4), np.zeros(2))
        steps_near_rail = machine.weight_pump.step_matrix(machine.substrate.weights, positive=True)

        machine.initialize(np.zeros((4, 2)), np.zeros(4), np.zeros(2))
        steps_mid_range = machine.weight_pump.step_matrix(machine.substrate.weights, positive=True)
        assert np.all(steps_near_rail < steps_mid_range)

    def test_idealized_pump_available_for_ablation(self):
        config = BGFConfig(step_size=0.05, saturation=False)
        machine = BoltzmannGradientFollower(4, 2, config=config, rng=0)
        machine.initialize(np.full((4, 2), 3.9), np.zeros(4), np.zeros(2))
        steps = machine.weight_pump.step_matrix(machine.substrate.weights, positive=True)
        np.testing.assert_allclose(steps, 0.05)


class TestParticlePersistence:
    def test_particles_round_robin(self, machine):
        """Negative phases cycle through the p particles in order, persisting
        each one's final hidden state (Tieleman-style persistence)."""
        assert machine._particle_cursor == 0
        for i in range(1, 5):
            machine.learn_sample(np.ones(12))
            assert machine._particle_cursor == i

    def test_particle_states_are_binary(self, machine):
        for _ in range(4):
            machine.learn_sample(np.ones(12))
        particles = machine.particles
        assert set(np.unique(particles)).issubset({0.0, 1.0})
