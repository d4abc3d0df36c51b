"""Dataset containers shared by the synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_binary, check_probability


@dataclass
class Dataset:
    """A labelled image-style dataset flattened to feature vectors.

    Attributes
    ----------
    name:
        Human-readable dataset name (e.g. ``"mnist-like"``).
    train_x, test_x:
        Arrays of shape ``(n, n_features)`` with values in [0, 1].
    train_y, test_y:
        Integer class labels aligned with the corresponding rows.
    image_shape:
        Original per-sample shape before flattening (e.g. ``(28, 28)``),
        or ``None`` for non-image data.
    n_classes:
        Number of distinct classes.
    """

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    image_shape: Optional[Tuple[int, ...]] = None
    n_classes: int = 0

    def __post_init__(self) -> None:
        self.train_x = check_probability(np.asarray(self.train_x, dtype=float), name="train_x")
        self.test_x = check_probability(np.asarray(self.test_x, dtype=float), name="test_x")
        self.train_y = np.asarray(self.train_y, dtype=int)
        self.test_y = np.asarray(self.test_y, dtype=int)
        if self.train_x.ndim != 2 or self.test_x.ndim != 2:
            raise ValidationError("dataset feature arrays must be 2-D (n_samples, n_features)")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValidationError("train and test must have the same number of features")
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise ValidationError("train_x and train_y must align")
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise ValidationError("test_x and test_y must align")
        if self.n_classes == 0:
            labels = np.concatenate([self.train_y, self.test_y]) if self.train_y.size else self.test_y
            self.n_classes = int(labels.max()) + 1 if labels.size else 0

    @property
    def n_features(self) -> int:
        """Number of visible units an RBM attached to this dataset needs."""
        return int(self.train_x.shape[1])

    @property
    def n_train(self) -> int:
        return int(self.train_x.shape[0])

    @property
    def n_test(self) -> int:
        return int(self.test_x.shape[0])

    def binarized(self) -> "Dataset":
        """Return a copy with features thresholded to {0, 1} (1 above 0.5)."""
        return Dataset(
            name=f"{self.name}-binary",
            train_x=(self.train_x > 0.5).astype(float),
            train_y=self.train_y.copy(),
            test_x=(self.test_x > 0.5).astype(float),
            test_y=self.test_y.copy(),
            image_shape=self.image_shape,
            n_classes=self.n_classes,
        )

    def pooled(self, block: int) -> "Dataset":
        """Return a copy whose images are average-pooled by ``block`` per axis.

        Used by the CI-scale experiment drivers to shrink 28x28 images down
        to 7x7 so that training-based experiments (Figures 7-8, Table 4)
        finish quickly while exercising the same code paths.  Requires an
        image-shaped dataset whose spatial dimensions divide ``block``.
        """
        if block <= 0:
            raise ValidationError(f"block must be positive, got {block}")
        if self.image_shape is None or len(self.image_shape) < 2:
            raise ValidationError("pooled requires an image-shaped dataset")
        height, width = self.image_shape[0], self.image_shape[1]
        channels = self.image_shape[2] if len(self.image_shape) == 3 else 1
        if height % block or width % block:
            raise ValidationError(
                f"image shape {self.image_shape} is not divisible by block {block}"
            )
        new_h, new_w = height // block, width // block

        def _pool(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            imgs = x.reshape(n, height, width, channels)
            pooled = imgs.reshape(n, new_h, block, new_w, block, channels).mean(axis=(2, 4))
            # An explicit width: ``-1`` cannot be inferred for a 0-row split.
            return pooled.reshape(n, new_h * new_w * channels)

        new_shape = (new_h, new_w) if channels == 1 else (new_h, new_w, channels)
        return Dataset(
            name=f"{self.name}-pool{block}",
            train_x=_pool(self.train_x),
            train_y=self.train_y.copy(),
            test_x=_pool(self.test_x),
            test_y=self.test_y.copy(),
            image_shape=new_shape,
            n_classes=self.n_classes,
        )


@dataclass
class RatingsDataset:
    """User × item ratings for the recommender-system benchmark.

    ``train_ratings``/``test_ratings`` are dense matrices of shape
    ``(n_users, n_items)`` whose entries are integer ratings 1..rating_levels
    or 0 where the rating is unobserved (the MovieLens convention used by
    Salakhutdinov et al.'s RBM collaborative filtering formulation).
    """

    name: str
    train_ratings: np.ndarray
    test_ratings: np.ndarray
    rating_levels: int = 5

    def __post_init__(self) -> None:
        self.train_ratings = np.asarray(self.train_ratings, dtype=int)
        self.test_ratings = np.asarray(self.test_ratings, dtype=int)
        if self.train_ratings.shape != self.test_ratings.shape:
            raise ValidationError("train and test rating matrices must share a shape")
        for mat, label in ((self.train_ratings, "train"), (self.test_ratings, "test")):
            if mat.min() < 0 or mat.max() > self.rating_levels:
                raise ValidationError(
                    f"{label} ratings must lie in [0, {self.rating_levels}]"
                )

    @property
    def n_users(self) -> int:
        return int(self.train_ratings.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.train_ratings.shape[1])

    @property
    def n_train_ratings(self) -> int:
        return int(np.count_nonzero(self.train_ratings))

    @property
    def n_test_ratings(self) -> int:
        return int(np.count_nonzero(self.test_ratings))


@dataclass
class AnomalyDataset:
    """Tabular anomaly-detection data (credit-card-fraud-like).

    Features are scaled to [0, 1]; ``train_x`` contains only normal
    transactions (the usual unsupervised-RBM anomaly setup), while the test
    partition mixes normal and fraudulent rows with binary labels
    (1 = fraud).
    """

    name: str
    train_x: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self) -> None:
        self.train_x = check_probability(np.asarray(self.train_x, dtype=float), name="train_x")
        self.test_x = check_probability(np.asarray(self.test_x, dtype=float), name="test_x")
        self.test_y = check_binary(np.asarray(self.test_y, dtype=float), name="test_y").astype(int)
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValidationError("train and test must share the feature dimension")
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise ValidationError("test_x and test_y must align")

    @property
    def n_features(self) -> int:
        return int(self.train_x.shape[1])

    @property
    def fraud_fraction(self) -> float:
        """Fraction of the test set that is fraudulent."""
        return float(self.test_y.mean()) if self.test_y.size else 0.0
