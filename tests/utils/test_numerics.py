"""Tests for repro.utils.numerics."""

import numpy as np
import pytest
from scipy.special import expit, logsumexp as scipy_logsumexp

from repro.utils.numerics import (
    bernoulli_sample,
    log1pexp,
    logsumexp,
    sigmoid,
    softmax,
)


class TestSigmoid:
    def test_matches_scipy(self):
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(sigmoid(x), expit(x), atol=1e-12)

    def test_extreme_values_do_not_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_is_half(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_shape_preserved(self):
        assert sigmoid(np.zeros((3, 4))).shape == (3, 4)


class TestLog1pexp:
    def test_log1pexp_matches_naive_in_safe_range(self):
        x = np.linspace(-30, 30, 61)
        np.testing.assert_allclose(log1pexp(x), np.log1p(np.exp(np.minimum(x, 700))), rtol=1e-10)

    def test_log1pexp_large_positive_is_linear(self):
        assert log1pexp(np.array([1000.0]))[0] == pytest.approx(1000.0)

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        """``log(sigmoid(x)) = -log1pexp(-x)``, the form the free energy uses."""
        x = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(-log1pexp(-x), np.log(expit(x)), atol=1e-10)

    def test_log_sigmoid_large_negative(self):
        # log(sigmoid(-500)) = -500 to first order; it must not be -inf.
        assert -log1pexp(np.array([500.0]))[0] == pytest.approx(-500.0, rel=1e-6)

    def test_large_negative_decays_to_zero(self):
        out = log1pexp(np.array([-1000.0, -50.0]))
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
        assert out[0] == 0.0 and out[1] == pytest.approx(np.exp(-50.0))

    @pytest.mark.parametrize("magnitude", [0.0, 0.5, 3.0, 30.0, 700.0, 1e4])
    def test_difference_of_mirrored_arguments_is_the_argument(self, magnitude):
        x = np.array([magnitude, -magnitude])
        diff = log1pexp(x) - log1pexp(-x)
        np.testing.assert_allclose(diff, x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype):
        x = np.linspace(-5, 5, 11).astype(dtype)
        assert log1pexp(x).dtype == dtype


class TestLogsumexp:
    def test_matches_scipy_flat(self):
        x = np.random.default_rng(0).normal(size=50)
        assert logsumexp(x) == pytest.approx(scipy_logsumexp(x))

    def test_reduces_every_axis_to_a_float(self):
        x = np.random.default_rng(1).normal(size=(6, 7))
        result = logsumexp(x)
        assert type(result) is float
        assert result == pytest.approx(scipy_logsumexp(x))

    def test_large_values_stable(self):
        x = np.array([1000.0, 1000.0])
        assert logsumexp(x) == pytest.approx(1000.0 + np.log(2.0))

    def test_with_neg_inf(self):
        x = np.array([-np.inf, 0.0])
        assert logsumexp(x) == pytest.approx(0.0)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(2).normal(size=(5, 8))
        np.testing.assert_allclose(softmax(x, axis=1).sum(axis=1), np.ones(5))

    def test_invariant_to_shift(self):
        x = np.random.default_rng(3).normal(size=(4, 6))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_large_values_stable(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert out[0, 0] == pytest.approx(1.0)


class TestBernoulliSample:
    def test_output_is_binary(self):
        p = np.random.default_rng(4).random((20, 20))
        samples = bernoulli_sample(p, np.random.default_rng(0))
        assert set(np.unique(samples)).issubset({0.0, 1.0})

    def test_deterministic_probabilities(self):
        p = np.array([0.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(bernoulli_sample(p, np.random.default_rng(0)), p)

    def test_mean_approximates_probability(self):
        p = np.full(20000, 0.3)
        samples = bernoulli_sample(p, np.random.default_rng(5))
        assert samples.mean() == pytest.approx(0.3, abs=0.02)

    def test_seeded_reproducibility(self):
        p = np.full(100, 0.5)
        np.testing.assert_array_equal(
            bernoulli_sample(p, np.random.default_rng(9)),
            bernoulli_sample(p, np.random.default_rng(9)),
        )
