"""Multinomial logistic regression used as the classification head.

The paper measures image-classification accuracy by training "a logistic
regression layer at the end" of the RBM/DBN feature extractor (Sec. 4.1).
This is a plain softmax-regression classifier trained with minibatch
gradient descent; it exists so the library needs no sklearn dependency.
"""

from __future__ import annotations


import numpy as np

from repro.utils.numerics import softmax
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_array, check_int, check_positive

#: L2 regularization strength applied to the weight matrix.
L2 = 1e-4


class LogisticRegressionClassifier:
    """Softmax regression trained by minibatch gradient descent.

    Parameters
    ----------
    n_features, n_classes:
        Input dimensionality and number of output classes.  The weight
        matrix carries an :data:`L2` penalty.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        *,
        rng: SeedLike = None,
    ):
        if n_features <= 0 or n_classes <= 1:
            raise ValidationError(
                f"need n_features > 0 and n_classes > 1, got ({n_features}, {n_classes})"
            )
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self._rng = as_rng(rng)
        self.weights = self._rng.normal(0.0, 0.01, size=(n_features, n_classes))
        self.bias = np.zeros(n_classes)
        self._fitted = False

    def _one_hot(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels, dtype=int)
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValidationError(
                f"labels must lie in [0, {self.n_classes - 1}]; "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        out = np.zeros((labels.shape[0], self.n_classes))
        out[np.arange(labels.shape[0]), labels] = 1.0
        return out

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        epochs: int,
        learning_rate: float,
        batch_size: int,
    ) -> "LogisticRegressionClassifier":
        """Train the classifier; returns ``self`` for chaining.

        Each epoch draws one row permutation from the constructor's
        generator and gathers the shuffled rows once; each batch of
        ``batch_size`` rows (the last may be smaller) takes one gradient
        step on the L2-penalized softmax cross-entropy, with the softmax
        and the gradient evaluated in place in one buffer.
        """
        features = check_array(features, name="features", ndim=2)
        if features.shape[1] != self.n_features:
            raise ValidationError(
                f"features have {features.shape[1]} columns; expected {self.n_features}"
            )
        labels = np.asarray(labels, dtype=int)
        if labels.shape[0] != features.shape[0]:
            raise ValidationError("features and labels must align")
        check_positive(learning_rate, name="learning_rate")
        batch_size = check_int(batch_size, "batch_size", 1)
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        one_hot = self._one_hot(labels)

        n = features.shape[0]
        weights, bias = self.weights, self.bias
        for _ in range(epochs):
            order = np.arange(n)
            self._rng.shuffle(order)
            epoch_x, epoch_y = features[order], one_hot[order]
            for start in range(0, n, batch_size):
                x = epoch_x[start : start + batch_size]
                rows = x.shape[0]
                # err = softmax(x W + b) - y, the stable softmax in place.
                err = x @ weights
                err += bias
                err -= np.maximum.reduce(err, axis=1, keepdims=True)
                np.exp(err, out=err)
                err /= np.add.reduce(err, axis=1, keepdims=True)
                err -= epoch_y[start : start + batch_size]
                grad_w = x.T @ err
                grad_w /= rows
                grad_w += L2 * weights
                grad_b = np.add.reduce(err, axis=0)
                grad_b /= rows
                weights -= learning_rate * grad_w
                bias -= learning_rate * grad_b
        self._fitted = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities of shape (n_samples, n_classes)."""
        features = check_array(features, name="features", ndim=2)
        if features.shape[1] != self.n_features:
            raise ValidationError(
                f"features have {features.shape[1]} columns; expected {self.n_features}"
            )
        return softmax(features @ self.weights + self.bias, axis=1)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most-likely class label per row."""
        return np.argmax(self.predict_proba(features), axis=1)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy."""
        labels = np.asarray(labels, dtype=int)
        return float(np.mean(self.predict(features) == labels))
