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
from repro.core import BoltzmannGradientFollower
from repro.ising.bipartite import _settle_loop_kernel


@pytest.fixture
def machine():
    m = BoltzmannGradientFollower(
        TrainerSpec.bgf(0.05, reference_batch_size=1, particles=2, anneal_steps=1),
        12,
        6,
        rng=0,
    )
    assert m.step_size == 0.05
    m.initialize(np.zeros((12, 6)), np.zeros(12), np.zeros(6))
    return m


class TestMidStepUpdates:
    def test_positive_phase_update_lands_before_negative_phase(self, machine, monkeypatch):
        """Capture the weights seen by the negative-phase anneal of ``run``:
        they must already include the positive-phase increment (W^(t+1/2)
        of Eq. 12)."""
        weights_before = machine.substrate.weights.copy()
        seen_by_negative = {}

        def spying_anneal(*args, **kwargs):
            seen_by_negative["weights"] = machine.substrate.weights.copy()
            return _settle_loop_kernel(*args, **kwargs)

        monkeypatch.setattr(
            "repro.core.gradient_follower._settle_loop_kernel", spying_anneal
        )
        machine.run(np.ones((1, 12)), shuffle=False)

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
            machine.run(sample[None], shuffle=False)
            if not np.allclose(machine.substrate.weights, previous):
                changes += 1
            previous = machine.substrate.weights.copy()
        assert changes >= 8  # essentially every sample triggers an update

    def test_step_size_scaled_by_reference_batch(self):
        """The machine derives alpha_effective = alpha / batch_size, the paper's
        guidance for matching the learning rate at minibatch size one."""
        coarse, fine = (
            BoltzmannGradientFollower(
                TrainerSpec.bgf(0.5, reference_batch_size=batch), 4, 2, rng=0
            )
            for batch in (5, 500)
        )
        assert coarse.step_size == pytest.approx(0.1)
        assert fine.step_size == pytest.approx(0.001)
        assert fine.step_size < coarse.step_size


class TestHardwareNonlinearity:
    def test_update_magnitude_shrinks_near_the_rails(self):
        """f_ij: a weight near the positive rail receives a smaller increment
        than a weight in the middle of the range."""
        machine = BoltzmannGradientFollower(
            TrainerSpec.bgf(0.05, reference_batch_size=1), 4, 2, rng=0
        )
        assert machine.step_size == 0.05
        near_rail = np.full((4, 2), 3.8)
        machine.initialize(near_rail, np.zeros(4), np.zeros(2))
        steps_near_rail = machine.weight_pump.step_matrix(machine.substrate.weights, positive=True)

        machine.initialize(np.zeros((4, 2)), np.zeros(4), np.zeros(2))
        steps_mid_range = machine.weight_pump.step_matrix(machine.substrate.weights, positive=True)
        assert np.all(steps_near_rail < steps_mid_range)


class TestParticlePersistence:
    def test_particles_round_robin(self, machine):
        """Negative phases cycle through the p particles in order, persisting
        each one's final hidden state (Tieleman-style persistence)."""
        assert machine._particle_cursor == 0
        for i in range(1, 5):
            machine.run(np.ones((1, 12)), shuffle=False)
            assert machine._particle_cursor == i

    def test_particle_states_are_binary(self, machine):
        for _ in range(4):
            machine.run(np.ones((1, 12)), shuffle=False)
        particles = machine.particles
        assert set(np.unique(particles)).issubset({0.0, 1.0})
