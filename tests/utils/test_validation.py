"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    ValidationError,
    check_array,
    check_binary,
    check_in_range,
    check_positive,
    check_probability,
)


class TestCheckArray:
    def test_coerces_lists(self):
        out = check_array([[1, 2], [3, 4]])
        assert isinstance(out, np.ndarray)
        assert out.dtype == float

    def test_ndim_enforced(self):
        with pytest.raises(ValidationError):
            check_array(np.zeros(3), ndim=2)

    def test_shape_wildcards(self):
        check_array(np.zeros((5, 3)), shape=(None, 3))
        with pytest.raises(ValidationError):
            check_array(np.zeros((5, 4)), shape=(None, 3))

    def test_shape_implies_ndim(self):
        with pytest.raises(ValidationError):
            check_array(np.zeros(5), shape=(None, 3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            check_array(np.array([1.0, np.nan]))
        with pytest.raises(ValidationError):
            check_array(np.array([1.0, np.inf]))

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="weights"):
            check_array(np.zeros(3), name="weights", ndim=2)


class TestCheckBinary:
    def test_accepts_zeros_and_ones(self):
        out = check_binary(np.array([0, 1, 1, 0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 1.0, 0.0])

    def test_rejects_other_values(self):
        with pytest.raises(ValidationError):
            check_binary(np.array([0.0, 0.5]))

    def test_empty_ok(self):
        assert check_binary(np.array([])).size == 0


class TestCheckProbability:
    def test_accepts_unit_interval(self):
        check_probability(np.linspace(0, 1, 11))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_probability(np.array([-0.1]))

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_probability(np.array([1.1]))


class TestCheckPositive:
    def test_strict_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_strict_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_non_strict_accepts_zero(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_non_strict_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, strict=False)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), "0.1", None, True]
    )
    def test_rejects_non_finite_and_non_numeric_naming_the_field(self, value):
        """``nan <= 0`` is False, so NaN once passed as positive; strings
        and bools coerced through ``float()``."""
        with pytest.raises(ValidationError, match="learning_rate"):
            check_positive(value, name="learning_rate", strict=False)

    def test_numpy_and_int_scalars_return_a_float(self):
        for value in (np.float32(0.5), np.int64(3), 2):
            out = check_positive(value)
            assert type(out) is float and out == float(value)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, 0.0, 1.0) == 0.0
        assert check_in_range(1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0.0, 1.0, inclusive=(False, True))
        with pytest.raises(ValidationError):
            check_in_range(1.0, 0.0, 1.0, inclusive=(True, False))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_in_range(2.0, 0.0, 1.0)

    def test_error_mentions_name(self):
        with pytest.raises(ValidationError, match="momentum"):
            check_in_range(2.0, 0.0, 1.0, name="momentum")

    @pytest.mark.parametrize("value", [float("nan"), "0.5"])
    def test_rejects_nan_and_strings(self, value):
        with pytest.raises(ValidationError, match="momentum"):
            check_in_range(value, 0.0, 1.0, name="momentum")
