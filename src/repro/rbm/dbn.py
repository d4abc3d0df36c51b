"""Deep Belief Networks: greedy layer-wise RBM stacking plus a classifier head.

Table 1 of the paper lists DBN-DNN configurations (e.g. 784-500-500-10 for
MNIST): a stack of RBMs trained greedily layer by layer, with the final
layer acting as a classifier.  Table 4 reports their test accuracy when the
constituent RBMs are trained either with CD-10 in software or with the
Boltzmann gradient follower.  This module implements that pipeline with a
pluggable per-layer trainer, so the same class serves both the software
baseline and the hardware-in-the-loop runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.eval.logistic import LogisticRegressionClassifier
from repro.rbm.rbm import BernoulliRBM, TrainingHistory
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import ValidationError, check_array

#: A layer trainer takes (rbm, data) and trains the RBM in place.
LayerTrainer = Callable[[BernoulliRBM, np.ndarray], TrainingHistory]


class DeepBeliefNetwork:
    """Greedy layer-wise DBN with a logistic-regression output layer.

    Parameters
    ----------
    layer_sizes:
        Full layer specification including the input size and the class
        count, e.g. ``(784, 500, 500, 10)``.  The final entry is the number
        of output classes handled by the classifier head; the RBM stack
        covers every consecutive pair before it.
    rng:
        Master seed for layer initialization.
    """

    def __init__(self, layer_sizes: Sequence[int], *, rng: SeedLike = None):
        layer_sizes = tuple(int(s) for s in layer_sizes)
        if len(layer_sizes) < 3:
            raise ValidationError(
                "a DBN needs at least (input, hidden, classes) layer sizes"
            )
        if any(s <= 0 for s in layer_sizes):
            raise ValidationError(f"layer sizes must be positive, got {layer_sizes}")
        self.layer_sizes = layer_sizes
        self.n_classes = layer_sizes[-1]
        rngs = spawn_rngs(rng, len(layer_sizes) - 2 + 1)
        self.rbms: List[BernoulliRBM] = [
            BernoulliRBM(layer_sizes[i], layer_sizes[i + 1], rng=rngs[i])
            for i in range(len(layer_sizes) - 2)
        ]
        self.classifier = LogisticRegressionClassifier(
            n_features=layer_sizes[-2], n_classes=self.n_classes, rng=rngs[-1]
        )
        self._pretrained = False
        self._fine_tuned = False
        self._feature_mean: Optional[np.ndarray] = None
        self._feature_std: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def pretrain(
        self, data: np.ndarray, *, layer_trainer: LayerTrainer
    ) -> List[TrainingHistory]:
        """Greedy layer-wise pre-training.

        Each RBM's visible biases start at the smoothed log-odds of its
        input, and ``layer_trainer`` trains it on the (deterministic) hidden
        activations of the previous layer.  The experiment drivers pass a
        CD-k, Gibbs-sampler-accelerated or Boltzmann-gradient-follower
        trainer without touching this class.
        """
        data = check_array(data, name="data", ndim=2)
        if data.shape[1] != self.layer_sizes[0]:
            raise ValidationError(
                f"data has {data.shape[1]} features; DBN input layer is {self.layer_sizes[0]}"
            )
        histories: List[TrainingHistory] = []
        layer_input = data
        for rbm in self.rbms:
            rbm.init_visible_bias_from_data(layer_input)
            histories.append(layer_trainer(rbm, layer_input))
            layer_input = rbm.transform(layer_input)
        self._pretrained = True
        return histories

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Propagate ``data`` through the RBM stack (mean-field activations)."""
        data = check_array(data, name="data", ndim=2)
        out = data
        for rbm in self.rbms:
            out = rbm.transform(out)
        return out

    def fine_tune(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        *,
        epochs: int,
        learning_rate: float,
        batch_size: int,
    ) -> None:
        """Train the classifier head on top of the (frozen) RBM features.

        The paper attaches "a logistic regression layer at the end" for the
        image-classification accuracy numbers; full joint backprop is out of
        its scope and ours.  Features are standardized (using the training
        statistics) before the head so that weakly-activated hidden units
        remain usable by the linear classifier.
        """
        features = self.transform(data)
        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-6
        self.classifier.fit(
            (features - self._feature_mean) / self._feature_std,
            np.asarray(labels, dtype=int),
            epochs=epochs,
            learning_rate=learning_rate,
            batch_size=batch_size,
        )
        self._fine_tuned = True

    def _head_features(self, data: np.ndarray) -> np.ndarray:
        features = self.transform(data)
        if self._feature_mean is None or self._feature_std is None:
            raise ValidationError("fine_tune must be called before prediction")
        return (features - self._feature_mean) / self._feature_std

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Predict class labels for ``data``."""
        if not self._fine_tuned:
            raise ValidationError("fine_tune must be called before predict")
        return self.classifier.predict(self._head_features(data))

    def score(self, data: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on ``(data, labels)``."""
        predictions = self.predict(data)
        labels = np.asarray(labels, dtype=int)
        return float(np.mean(predictions == labels))
