"""Property-based tests for analog-circuit and metric invariants."""

from helpers import FLOAT64_ASSOC_ATOL, FLOAT64_EXACT_ATOL
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analog import ChargePumpUpdater, quantize_uniform
from repro.eval import kl_divergence, roc_auc
from repro.utils.numerics import bernoulli_sample


class TestChargePumpProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 1000),
        st.floats(0.001, 0.3),
        st.integers(1, 40),
    )
    def test_weights_never_leave_range(self, seed, step, n_updates):
        rng = np.random.default_rng(seed)
        pump = ChargePumpUpdater((3, 3), step_size=step, weight_range=(-1.0, 1.0), rng=seed)
        weights = rng.uniform(-1, 1, (3, 3))
        for _ in range(n_updates):
            correlation = (rng.random((3, 3)) < 0.5).astype(float)
            pump.apply(weights, correlation, positive=bool(rng.integers(0, 2)))
        assert weights.min() >= -1.0 - FLOAT64_ASSOC_ATOL
        assert weights.max() <= 1.0 + FLOAT64_ASSOC_ATOL

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000), st.floats(0.001, 0.1))
    def test_positive_phase_never_decreases_weights(self, seed, step):
        rng = np.random.default_rng(seed)
        pump = ChargePumpUpdater((4, 2), step_size=step, rng=seed)
        weights = rng.uniform(-0.5, 0.5, (4, 2))
        before = weights.copy()
        pump.apply(weights, np.ones((4, 2)), positive=True)
        assert np.all(weights >= before - FLOAT64_EXACT_ATOL)


class TestQuantizationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(dtype=float, shape=st.integers(1, 50),
                   elements=st.floats(-1, 1, allow_nan=False)),
        st.integers(2, 12),
    )
    def test_quantization_error_bounded_by_half_lsb(self, values, bits):
        quantized = quantize_uniform(values, bits, (-1.0, 1.0))
        lsb = 2.0 / ((1 << bits) - 1)
        assert np.max(np.abs(values - quantized)) <= lsb / 2 + FLOAT64_EXACT_ATOL

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(dtype=float, shape=st.integers(1, 50),
                   elements=st.floats(-5, 5, allow_nan=False)),
        st.integers(1, 10),
    )
    def test_quantization_idempotent(self, values, bits):
        once = quantize_uniform(values, bits, (-1.0, 1.0))
        twice = quantize_uniform(once, bits, (-1.0, 1.0))
        np.testing.assert_allclose(once, twice, atol=FLOAT64_EXACT_ATOL)


class TestMetricProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 40))
    def test_kl_divergence_non_negative(self, seed, size):
        rng = np.random.default_rng(seed)
        p = rng.random(size) + 1e-6
        q = rng.random(size) + 1e-6
        assert kl_divergence(p, q) >= -1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 60))
    def test_auc_is_complement_under_score_negation(self, seed, size):
        rng = np.random.default_rng(seed)
        scores = rng.random(size)
        labels = np.zeros(size, dtype=int)
        labels[: max(1, size // 3)] = 1
        rng.shuffle(labels)
        auc = roc_auc(scores, labels)
        flipped = roc_auc(-scores, labels)
        assert auc + flipped == pytest.approx(1.0, abs=FLOAT64_ASSOC_ATOL)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.95))
    def test_bernoulli_sampling_mean(self, seed, probability):
        samples = bernoulli_sample(np.full(4000, probability), np.random.default_rng(seed))
        assert samples.mean() == pytest.approx(probability, abs=0.05)
