"""Property-based tests (hypothesis) for the numerics primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import FLOAT64_ASSOC_ATOL, FLOAT64_EXACT_ATOL
from repro.utils.numerics import (
    log1pexp,
    logsumexp,
    sigmoid,
    softmax,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
float_arrays = hnp.arrays(
    dtype=float, shape=st.integers(1, 30), elements=small_floats
)


class TestSigmoidProperties:
    @given(finite_floats)
    def test_output_in_unit_interval(self, x):
        value = sigmoid(np.array([x]))[0]
        assert 0.0 <= value <= 1.0

    @given(small_floats)
    def test_symmetry(self, x):
        a = sigmoid(np.array([x]))[0]
        b = sigmoid(np.array([-x]))[0]
        assert a + b == pytest.approx(1.0, abs=FLOAT64_ASSOC_ATOL)

    @given(small_floats, small_floats)
    def test_monotonicity(self, x, y):
        low, high = min(x, y), max(x, y)
        assert sigmoid(np.array([low]))[0] <= sigmoid(np.array([high]))[0] + FLOAT64_EXACT_ATOL


class TestLog1pexpProperties:
    @given(finite_floats)
    def test_lower_bounds(self, x):
        value = log1pexp(np.array([x]))[0]
        assert value >= max(x, 0.0) - FLOAT64_ASSOC_ATOL

    @given(small_floats)
    def test_exact_identity(self, x):
        np.testing.assert_allclose(
            log1pexp(np.array([x]))[0], np.log1p(np.exp(x)), rtol=FLOAT64_ASSOC_ATOL
        )


class TestLogsumexpProperties:
    @given(float_arrays)
    def test_bounds(self, values):
        result = logsumexp(values)
        assert result >= values.max() - FLOAT64_ASSOC_ATOL
        assert result <= values.max() + np.log(values.size) + FLOAT64_ASSOC_ATOL

    @given(float_arrays, small_floats)
    def test_shift_invariance(self, values, shift):
        np.testing.assert_allclose(
            logsumexp(values + shift), logsumexp(values) + shift,
            rtol=FLOAT64_ASSOC_ATOL, atol=FLOAT64_ASSOC_ATOL
        )


class TestSoftmaxProperties:
    @given(hnp.arrays(dtype=float, shape=st.tuples(st.integers(1, 8), st.integers(2, 8)), elements=small_floats))
    def test_rows_are_distributions(self, matrix):
        probabilities = softmax(matrix, axis=1)
        assert np.all(probabilities >= 0)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=FLOAT64_ASSOC_ATOL)
