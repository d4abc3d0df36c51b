"""Property-based tests for RBM invariants (free energy, conditionals, partition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FLOAT64_ASSOC_ATOL, FLOAT64_FUNC_ATOL
from helpers.reference import energy, exact_log_partition
from repro.rbm import BernoulliRBM, exact_visible_distribution
from repro.utils.numerics import logsumexp


def _rbm_from_seed(seed: int, n_visible: int, n_hidden: int, scale: float) -> BernoulliRBM:
    rng = np.random.default_rng(seed)
    rbm = BernoulliRBM(n_visible, n_hidden, rng=seed)
    rbm.set_parameters(
        rng.normal(0, scale, (n_visible, n_hidden)),
        rng.normal(0, scale, n_visible),
        rng.normal(0, scale, n_hidden),
    )
    return rbm


rbm_strategy = st.builds(
    _rbm_from_seed,
    seed=st.integers(0, 10_000),
    n_visible=st.integers(2, 7),
    n_hidden=st.integers(2, 5),
    scale=st.floats(0.1, 1.5),
)


class TestFreeEnergyProperties:
    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy, st.integers(0, 2**7 - 1))
    def test_free_energy_equals_hidden_marginalization(self, rbm, v_index):
        """exp(-F(v)) == sum_h exp(-E(v, h)) for arbitrary parameters."""
        v = np.array([(v_index >> k) & 1 for k in range(rbm.n_visible)], dtype=float)
        h_states = np.array(
            [[(i >> j) & 1 for j in range(rbm.n_hidden)] for i in range(2**rbm.n_hidden)],
            dtype=float,
        )
        energies = np.array([energy(rbm, v, h)[0] for h in h_states])
        assert rbm.free_energy(v)[0] == pytest.approx(float(-logsumexp(-energies)), abs=FLOAT64_FUNC_ATOL)

    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy)
    def test_visible_distribution_normalizes(self, rbm):
        distribution = exact_visible_distribution(rbm)
        assert distribution.min() >= 0.0
        assert distribution.sum() == pytest.approx(1.0, abs=FLOAT64_ASSOC_ATOL)

    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy)
    def test_partition_bounds(self, rbm):
        """log Z is bounded by the best/worst free energy plus log of the count."""
        states = np.array(
            [[(i >> j) & 1 for j in range(rbm.n_visible)] for i in range(2**rbm.n_visible)],
            dtype=float,
        )
        free_energies = rbm.free_energy(states)
        log_z = exact_log_partition(rbm)
        assert log_z >= -free_energies.max() - FLOAT64_ASSOC_ATOL
        assert log_z <= -free_energies.min() + np.log(states.shape[0]) + FLOAT64_ASSOC_ATOL


class TestConditionalProperties:
    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy, st.integers(0, 2**7 - 1))
    def test_conditional_matches_bayes_rule(self, rbm, v_index):
        """P(h_j=1 | v) from the sigmoid formula equals the ratio of joint sums."""
        v = np.array([(v_index >> k) & 1 for k in range(rbm.n_visible)], dtype=float)
        h_states = np.array(
            [[(i >> j) & 1 for j in range(rbm.n_hidden)] for i in range(2**rbm.n_hidden)],
            dtype=float,
        )
        joint = np.exp(-np.array([energy(rbm, v, h)[0] for h in h_states]))
        joint /= joint.sum()
        expected = joint @ h_states
        np.testing.assert_allclose(
            rbm.hidden_activation_probability(v)[0], expected, atol=FLOAT64_FUNC_ATOL
        )

    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy)
    def test_probabilities_within_bounds(self, rbm):
        rng = np.random.default_rng(0)
        v = (rng.random((5, rbm.n_visible)) < 0.5).astype(float)
        h = (rng.random((5, rbm.n_hidden)) < 0.5).astype(float)
        assert np.all(rbm.hidden_activation_probability(v) <= 1.0)
        assert np.all(rbm.hidden_activation_probability(v) >= 0.0)
        assert np.all(rbm.visible_activation_probability(h) <= 1.0)
        assert np.all(rbm.visible_activation_probability(h) >= 0.0)


class TestEnergyProperties:
    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy)
    def test_energy_linearity_in_bias(self, rbm):
        """Adding delta to a visible bias shifts E(v,h) by -delta when v_i=1."""
        rng = np.random.default_rng(1)
        v = np.ones(rbm.n_visible)
        h = (rng.random(rbm.n_hidden) < 0.5).astype(float)
        before = energy(rbm, v, h)[0]
        shifted = rbm.copy()
        bias = shifted.visible_bias.copy()
        bias[0] += 1.7
        shifted.set_parameters(shifted.weights, bias, shifted.hidden_bias)
        after = energy(shifted, v, h)[0]
        assert after == pytest.approx(before - 1.7, abs=FLOAT64_ASSOC_ATOL)

    @settings(max_examples=25, deadline=None)
    @given(rbm_strategy)
    def test_transform_deterministic(self, rbm):
        rng = np.random.default_rng(2)
        v = (rng.random((4, rbm.n_visible)) < 0.5).astype(float)
        np.testing.assert_array_equal(rbm.transform(v), rbm.transform(v))
