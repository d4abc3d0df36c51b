"""RBM-based anomaly detection (the paper's credit-card-fraud benchmark).

The paper trains a 28-visible / 10-hidden RBM on normal transactions and
flags anomalies by how poorly the model explains a transaction, reporting
the area under the ROC curve (Table 4, Figure 10).  Following the RBM
fraud-detection literature (Pumsirirat & Yan 2018) the anomaly score is the
reconstruction error of the input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.base import AnomalyDataset
from repro.datasets.fraud import encode_features_onehot
from repro.eval.metrics import roc_auc, roc_curve
from repro.rbm.rbm import BernoulliRBM
from repro.utils.numerics import is_sparse, sparse_mean_squared_error
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_array


class RBMAnomalyDetector:
    """Unsupervised anomaly detector built on a Bernoulli RBM.

    Parameters
    ----------
    n_hidden:
        Hidden-layer size (10 in the paper's configuration).
    trainer:
        Any object with ``train(rbm, data, epochs=...)``; :meth:`fit` needs
        one (a model rebuilt from an artifact serves without one).
    encoding:
        ``"direct"`` (default) trains on the [0, 1] features as-is;
        ``"onehot"`` quantizes each feature into ``n_bins`` indicator
        units, the 1/n_bins-dense form that exercises the sparse kernels.
    n_bins:
        Quantization levels per feature for ``encoding="onehot"``.
    sparse:
        Feed the trainer/scorer scipy CSR matrices (``encoding="onehot"``
        only).  AUC matches the dense one-hot run at float tolerance under
        the same seed.
    """

    ENCODINGS = ("direct", "onehot")

    def __init__(
        self,
        n_hidden: int = 10,
        *,
        trainer=None,
        epochs: int = 20,
        encoding: str = "direct",
        n_bins: int = 16,
        sparse: bool = False,
        rng: SeedLike = None,
    ):
        if n_hidden <= 0:
            raise ValidationError(f"n_hidden must be positive, got {n_hidden}")
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        if encoding not in self.ENCODINGS:
            raise ValidationError(
                f"encoding must be one of {self.ENCODINGS}, got {encoding!r}"
            )
        if n_bins < 2:
            raise ValidationError(f"n_bins must be >= 2, got {n_bins}")
        if sparse and encoding != "onehot":
            raise ValidationError(
                "sparse=True requires encoding='onehot' (direct features are dense)"
            )
        self.n_hidden = int(n_hidden)
        self.epochs = int(epochs)
        self.encoding = encoding
        self.n_bins = int(n_bins)
        self.sparse = bool(sparse)
        self._rng = as_rng(rng)
        self.trainer = trainer
        self.rbm: Optional[BernoulliRBM] = None
        self._train_mean_score: float = 0.0
        self._n_features_raw: int = 0

    def _encode(self, data: np.ndarray):
        """Raw [0, 1] features -> the model's visible representation."""
        if self.encoding == "onehot":
            return encode_features_onehot(data, self.n_bins, sparse=self.sparse)
        return data

    def fit(self, dataset: AnomalyDataset) -> "RBMAnomalyDetector":
        """Train the RBM on the (all-normal) training partition."""
        if self.trainer is None:
            raise ValidationError("fit needs a trainer= (none was given)")
        train_x = check_array(dataset.train_x, name="train_x", ndim=2)
        self._n_features_raw = dataset.n_features
        encoded = self._encode(train_x)
        self.rbm = BernoulliRBM(
            n_visible=encoded.shape[1], n_hidden=self.n_hidden, rng=self._rng
        )
        self.trainer.train(self.rbm, encoded, epochs=self.epochs)
        self._train_mean_score = float(np.mean(self._raw_scores(encoded)))
        return self

    def _raw_scores(self, data) -> np.ndarray:
        """Per-row reconstruction errors of already-encoded (possibly CSR) data."""
        assert self.rbm is not None
        recon = self.rbm.reconstruct(data)
        if is_sparse(data):
            return sparse_mean_squared_error(data, recon, axis=1)
        return np.mean((data - recon) ** 2, axis=1)

    def anomaly_scores(self, data: np.ndarray) -> np.ndarray:
        """Anomaly scores (larger = more anomalous), centered on the training mean.

        ``data`` is always the *raw* feature matrix; one-hot detectors
        encode it internally before scoring.
        """
        if self.rbm is None:
            raise ValidationError("fit must be called before anomaly_scores")
        data = check_array(data, name="data", ndim=2)
        expected = self._n_features_raw or self.rbm.n_visible
        if data.shape[1] != expected:
            raise ValidationError(
                f"data has {data.shape[1]} features; model expects {expected}"
            )
        return self._raw_scores(self._encode(data)) - self._train_mean_score

    def evaluate_auc(self, dataset: AnomalyDataset) -> float:
        """Area under the ROC curve on the labelled test partition."""
        scores = self.anomaly_scores(dataset.test_x)
        return roc_auc(scores, dataset.test_y)

    def evaluate_roc(self, dataset: AnomalyDataset):
        """Full ROC curve (fpr, tpr, thresholds) on the test partition."""
        scores = self.anomaly_scores(dataset.test_x)
        return roc_curve(scores, dataset.test_y)
