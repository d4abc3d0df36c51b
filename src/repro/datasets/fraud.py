"""Synthetic credit-card-fraud-like data for the anomaly-detection benchmark.

The paper's anomaly-detection benchmark trains a 28-visible / 10-hidden RBM
on the "European Credit Card Fraud Detection" dataset and reports the area
under the ROC curve (~0.96).  That dataset is 28 PCA-transformed features
with a highly imbalanced fraud rate (~0.17%).  This generator reproduces the
same structure:

* normal transactions are drawn from a correlated Gaussian cluster,
* fraudulent transactions are drawn from a shifted, broader cluster,
* features are squashed to [0, 1] (RBM visible units expect probabilities),
* the training partition contains only normal rows (the standard
  reconstruction-error / free-energy anomaly-scoring setup).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import AnomalyDataset
from repro.utils.rng import SeedLike, as_rng
from repro.utils.numerics import sigmoid
from repro.utils.validation import ValidationError


def encode_features_onehot(x, n_bins: int = 16, *, sparse: bool = True):
    """Quantize [0, 1] features into one-hot bin indicators.

    Each feature value is binned as ``min(floor(x * n_bins), n_bins - 1)``
    and replaced by a block of ``n_bins`` indicator units, so a row with
    ``f`` features becomes ``f * n_bins`` visibles with exactly ``f`` ones
    — density is exactly ``1 / n_bins`` regardless of the data.

    Parameters
    ----------
    x:
        ``(n_samples, n_features)`` matrix with values in [0, 1].
    n_bins:
        Quantization levels per feature (>= 2).
    sparse:
        ``True`` (default) returns scipy CSR; ``False`` returns the same
        matrix densified — the two encodings are elementwise equal.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError("encode_features_onehot requires a 2-D matrix")
    if n_bins < 2:
        raise ValidationError(f"n_bins must be >= 2, got {n_bins}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValidationError("features must lie in [0, 1]")

    n, f = x.shape
    bins = np.minimum((x * n_bins).astype(int), n_bins - 1)
    cols = (np.arange(f)[None, :] * n_bins + bins).ravel()
    rows = np.repeat(np.arange(n), f)
    shape = (n, f * n_bins)

    if sparse:
        from scipy import sparse as sp

        return sp.csr_matrix(
            (np.ones(rows.size, dtype=float), (rows, cols)), shape=shape
        )
    out = np.zeros(shape, dtype=float)
    out[rows, cols] = 1.0
    return out


def make_fraud_like(
    n_train: int = 2000,
    n_test: int = 1000,
    *,
    n_features: int = 28,
    fraud_fraction: float = 0.05,
    separation: float = 2.5,
    seed: SeedLike = 0,
) -> AnomalyDataset:
    """Generate a fraud-like anomaly dataset.

    Parameters
    ----------
    n_train:
        Number of (all-normal) training transactions.
    n_test:
        Number of test transactions; a ``fraud_fraction`` of them are fraud.
    n_features:
        Feature dimensionality (28 in the paper's benchmark).
    fraud_fraction:
        Fraction of the test set that is fraudulent.  The real dataset is far
        more imbalanced (~0.0017); we default to 5% so AUC estimates are
        stable at CI-scale sample counts, and paper-scale runs can lower it.
    separation:
        Mean shift (in feature-space standard deviations) between the normal
        and fraud clusters; larger values make detection easier.
    """
    if n_train <= 0 or n_test <= 0:
        raise ValidationError("n_train and n_test must be positive")
    if not 0.0 < fraud_fraction < 1.0:
        raise ValidationError(f"fraud_fraction must be in (0, 1), got {fraud_fraction}")
    rng = as_rng(seed)

    # Correlated normal cluster: random low-rank covariance structure.
    mixing = rng.normal(0.0, 1.0, size=(n_features, max(2, n_features // 4)))

    def _draw_normal(n: int) -> np.ndarray:
        latent = rng.normal(0.0, 1.0, size=(n, mixing.shape[1]))
        return latent @ mixing.T / np.sqrt(mixing.shape[1]) + rng.normal(0.0, 0.3, size=(n, n_features))

    def _draw_fraud(n: int) -> np.ndarray:
        shift_direction = rng.normal(0.0, 1.0, size=n_features)
        shift_direction /= np.linalg.norm(shift_direction)
        base = _draw_normal(n) * 1.8
        return base + separation * shift_direction

    train_x = sigmoid(_draw_normal(n_train))

    n_fraud = max(1, int(round(n_test * fraud_fraction)))
    n_normal = n_test - n_fraud
    test_normal = _draw_normal(n_normal)
    test_fraud = _draw_fraud(n_fraud)
    test_x = sigmoid(np.vstack([test_normal, test_fraud]))
    test_y = np.concatenate([np.zeros(n_normal, dtype=int), np.ones(n_fraud, dtype=int)])

    perm = rng.permutation(n_test)
    return AnomalyDataset(
        name="fraud-like",
        train_x=train_x,
        test_x=test_x[perm],
        test_y=test_y[perm],
    )
