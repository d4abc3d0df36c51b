"""Tests for the logistic-regression classifier head."""

import numpy as np
import pytest

from repro.eval import LogisticRegressionClassifier
from repro.utils.validation import ValidationError


def _separable_data(n=300, n_features=6, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3, (n_classes, n_features))
    labels = rng.integers(0, n_classes, n)
    features = centers[labels] + rng.normal(0, 0.5, (n, n_features))
    return features, labels


class TestConfiguration:
    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            LogisticRegressionClassifier(0, 3)
        with pytest.raises(ValidationError):
            LogisticRegressionClassifier(5, 1)


class TestTraining:
    def test_learns_separable_problem(self):
        features, labels = _separable_data()
        clf = LogisticRegressionClassifier(6, 3, rng=0)
        clf.fit(features, labels, epochs=100, learning_rate=0.3)
        assert clf.score(features, labels) > 0.95

    def test_generalizes_to_held_out_data(self):
        features, labels = _separable_data(seed=1)
        clf = LogisticRegressionClassifier(6, 3, rng=0)
        clf.fit(features[:200], labels[:200], epochs=100, learning_rate=0.3)
        assert clf.score(features[200:], labels[200:]) > 0.85

    def test_predict_proba_normalized(self):
        features, labels = _separable_data(seed=2)
        clf = LogisticRegressionClassifier(6, 3, rng=0).fit(features, labels, epochs=20)
        probabilities = clf.predict_proba(features[:10])
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_matches_argmax_of_proba(self):
        features, labels = _separable_data(seed=3)
        clf = LogisticRegressionClassifier(6, 3, rng=0).fit(features, labels, epochs=20)
        np.testing.assert_array_equal(
            clf.predict(features[:20]), np.argmax(clf.predict_proba(features[:20]), axis=1)
        )

    def test_fit_returns_self(self):
        features, labels = _separable_data(seed=4)
        clf = LogisticRegressionClassifier(6, 3, rng=0)
        assert clf.fit(features, labels, epochs=1) is clf

    def test_l2_shrinks_weights(self, monkeypatch):
        features, labels = _separable_data(seed=5)

        def fitted(l2):
            monkeypatch.setattr("repro.eval.logistic.L2", l2)
            return LogisticRegressionClassifier(6, 3, rng=0).fit(
                features, labels, epochs=60, learning_rate=0.3
            )

        free, regularized = fitted(0.0), fitted(0.1)
        assert np.abs(regularized.weights).mean() < np.abs(free.weights).mean()

    def test_label_out_of_range_rejected(self):
        features, labels = _separable_data(seed=6)
        clf = LogisticRegressionClassifier(6, 3, rng=0)
        with pytest.raises(ValidationError):
            clf.fit(features, labels + 5, epochs=1)

    def test_feature_width_check(self):
        clf = LogisticRegressionClassifier(6, 3, rng=0)
        with pytest.raises(ValidationError):
            clf.fit(np.zeros((10, 4)), np.zeros(10, dtype=int), epochs=1)
        with pytest.raises(ValidationError):
            clf.predict(np.zeros((10, 4)))

    def test_misaligned_labels_rejected(self):
        clf = LogisticRegressionClassifier(6, 3, rng=0)
        with pytest.raises(ValidationError):
            clf.fit(np.zeros((10, 6)), np.zeros(8, dtype=int), epochs=1)

    def test_deterministic_with_seeds(self):
        features, labels = _separable_data(seed=7)
        a = LogisticRegressionClassifier(6, 3, rng=1).fit(features, labels, epochs=10)
        b = LogisticRegressionClassifier(6, 3, rng=1).fit(features, labels, epochs=10)
        np.testing.assert_array_equal(a.weights, b.weights)
