"""Tests for MAE, ROC/AUC and KL divergence."""

import numpy as np
import pytest

from repro.eval import (
    kl_divergence,
    mean_absolute_error,
    roc_auc,
    roc_curve,
)
from repro.utils.validation import ValidationError


class TestMeanAbsoluteError:
    def test_zero_for_identical(self):
        assert mean_absolute_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_value(self):
        assert mean_absolute_error(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mean_absolute_error(np.zeros(3), np.zeros(4))


class TestROC:
    def test_perfect_separation_auc_one(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        assert roc_auc(scores, labels) == pytest.approx(1.0)

    def test_inverted_scores_auc_zero(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels) == pytest.approx(0.0)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(4000)
        labels = rng.integers(0, 2, 4000)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.03)

    def test_curve_endpoints(self):
        scores = np.array([0.9, 0.1, 0.5, 0.4])
        labels = np.array([1, 0, 1, 0])
        fpr, tpr, thresholds = roc_curve(scores, labels)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert thresholds[0] == np.inf

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        fpr, tpr, _ = roc_curve(scores, labels)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_ties_handled(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 1, 0])
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_auc_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.random(300)
        labels = (scores + rng.normal(0, 0.3, 300) > 0.5).astype(int)
        assert roc_auc(scores, labels) == pytest.approx(roc_auc(scores * 10 + 3, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_curve(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            roc_curve(np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        """Satellite: NaN compares false with everything, so it would sort
        arbitrarily and yield an input-order-dependent curve/AUC."""
        scores = np.array([0.1, bad, 0.9, 0.4])
        labels = np.array([0, 1, 1, 0])
        with pytest.raises(ValidationError, match="finite"):
            roc_curve(scores, labels)
        with pytest.raises(ValidationError, match="finite"):
            roc_auc(scores, labels)

    def test_non_finite_message_counts_offenders(self):
        with pytest.raises(ValidationError, match="2 non-finite"):
            roc_curve(
                np.array([np.nan, 0.5, np.inf, 0.2]), np.array([0, 1, 0, 1])
            )


class TestKLDivergence:
    def test_zero_for_identical(self):
        p = np.array([0.25, 0.25, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        expected = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.random(8)
            q = rng.random(8)
            assert kl_divergence(p, q) >= -1e-12

    def test_renormalizes_inputs(self):
        p = np.array([2.0, 2.0])
        q = np.array([5.0, 5.0])
        assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_zero_model_probability_is_finite(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert np.isfinite(kl_divergence(p, q))

    def test_asymmetry(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            kl_divergence(np.array([0.5, 0.5]), np.array([0.5]))
        with pytest.raises(ValidationError):
            kl_divergence(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            kl_divergence(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
