"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    ValidationError,
    check_array,
    check_binary,
    check_bool,
    check_data_matrix,
    check_finite,
    check_int,
    check_positive,
    check_probability,
    check_range,
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


class TestCheckFinite:
    @pytest.mark.parametrize("value", [0, -3, 2.5, np.float32(1.5), np.int64(7)])
    def test_real_numbers_return_a_float(self, value):
        out = check_finite(value)
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize(
        "value",
        [True, False, "1.0", None, [1.0], float("nan"), float("inf"), -float("inf")],
    )
    def test_rejects_bools_strings_and_non_finite_naming_the_field(self, value):
        with pytest.raises(ValidationError, match="offset"):
            check_finite(value, name="offset")


class TestCheckBool:
    @pytest.mark.parametrize("value", [True, False])
    def test_accepts_real_bools(self, value):
        assert check_bool(value) is value

    @pytest.mark.parametrize("value", [0, 1, "false", "true", None, np.bool_(True)])
    def test_rejects_values_that_would_coerce(self, value):
        """``bool("false")`` is True; only a real bool may set a flag."""
        with pytest.raises(ValidationError, match="persistent"):
            check_bool(value, name="persistent")


class TestCheckInt:
    @pytest.mark.parametrize("value, minimum", [(0, 0), (5, 1), (np.int64(3), 1)])
    def test_accepts_ints_at_or_above_minimum(self, value, minimum):
        out = check_int(value, "chains", minimum)
        assert type(out) is int and out == value

    @pytest.mark.parametrize("value", [2.0, True, "3", None, np.float64(3.0)])
    def test_rejects_floats_bools_and_strings_without_truncating(self, value):
        with pytest.raises(ValidationError, match="chains must be an int >= 1"):
            check_int(value, "chains", 1)

    def test_rejects_below_minimum_naming_the_bound(self):
        with pytest.raises(ValidationError, match="chains must be >= 1, got 0"):
            check_int(0, "chains", 1)


class TestCheckRange:
    @pytest.mark.parametrize(
        "value, expected",
        [((0, 1), (0.0, 1.0)), ([-1, 2.5], (-1.0, 2.5)), (np.array([0.1, 0.2]), (0.1, 0.2))],
    )
    def test_increasing_pairs_return_float_tuples(self, value, expected):
        out = check_range(value)
        assert out == expected
        assert all(type(bound) is float for bound in out)

    @pytest.mark.parametrize(
        "value",
        [(1, 1), (2, 1), (0,), (0, 1, 2), "ab", 5, None, (0, float("nan")), (True, 2)],
    )
    def test_rejects_anything_but_an_increasing_finite_pair(self, value):
        with pytest.raises(ValidationError, match="clip"):
            check_range(value, name="clip")


class TestCheckDataMatrix:
    def test_dense_matrix_coerced_to_float(self):
        out = check_data_matrix([[0, 1], [1, 0]])
        assert isinstance(out, np.ndarray) and out.dtype == float

    @pytest.mark.parametrize("value", [np.zeros(3), np.zeros((2, 2, 2))])
    def test_dense_must_be_2d(self, value):
        with pytest.raises(ValidationError, match="data"):
            check_data_matrix(value)

    def test_feature_count_enforced(self):
        with pytest.raises(ValidationError, match="axis 1 must have size 4"):
            check_data_matrix(np.zeros((2, 3)), n_features=4)
