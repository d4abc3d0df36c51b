"""RBM-based collaborative filtering (the paper's recommender benchmark).

The paper trains a 943-visible / 100-hidden RBM on MovieLens-100k following
the RBM collaborative-filtering line of work (Salakhutdinov et al. 2007;
Verma et al. 2017) and reports the mean absolute error of predicted ratings
(Table 4 and Figure 9).  Table 1's 943 visible units correspond to the 943
MovieLens users, i.e. each training vector is one *item* described by the
(normalized) ratings it received from every user.

This implementation follows that encoding:

* training sample = one item column, with observed ratings scaled to [0, 1]
  and unobserved entries imputed with the item's mean rating,
* the RBM (trained with any trainer exposing ``train(rbm, data, epochs=...)``,
  so both software CD-k and the Boltzmann gradient follower plug in),
* rating prediction = mean-field reconstruction mapped back to the 1..K
  rating scale,
* evaluation = MAE over the held-out observed ratings.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.base import RatingsDataset
from repro.datasets.movielens import encode_ratings_onehot
from repro.eval.metrics import mean_absolute_error
from repro.rbm.rbm import BernoulliRBM
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError


class RBMRecommender:
    """Collaborative-filtering wrapper around a Bernoulli RBM.

    Parameters
    ----------
    n_hidden:
        Hidden-layer size (100 in the paper's configuration).
    trainer:
        Any object with ``train(rbm, data, epochs=...)``; :meth:`fit` needs
        one (a model rebuilt from an artifact serves without one).
    epochs:
        Training epochs passed to the trainer.
    encoding:
        ``"mean"`` (default) is the dense mean-imputed [0, 1] encoding;
        ``"onehot"`` is the Salakhutdinov-style softmax-visible encoding
        (``n_users * rating_levels`` visibles, one block per user), the
        form that supports sparse training data.
    sparse:
        Feed the trainer a scipy CSR matrix instead of a dense one
        (``encoding="onehot"`` only — the mean encoding is dense by
        construction).  Predicted ratings match the dense run at float
        tolerance under the same seed.
    """

    ENCODINGS = ("mean", "onehot")

    def __init__(
        self,
        n_hidden: int = 100,
        *,
        trainer=None,
        epochs: int = 10,
        encoding: str = "mean",
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
        if sparse and encoding != "onehot":
            raise ValidationError(
                "sparse=True requires encoding='onehot' (the mean encoding is dense)"
            )
        self.n_hidden = int(n_hidden)
        self.epochs = int(epochs)
        self.encoding = encoding
        self.sparse = bool(sparse)
        self._rng = as_rng(rng)
        self.trainer = trainer
        self.rbm: Optional[BernoulliRBM] = None
        self._rating_levels: int = 5
        self._global_mean: float = 3.0
        self._n_users: int = 0

    # ------------------------------------------------------------------ #
    def _encode_items(self, item_rows: np.ndarray):
        """Raw item-major rating rows -> the model's visible representation.

        ``item_rows`` is ``(n_rows, n_users)`` with integer ratings in
        ``1..rating_levels`` and 0 marking unobserved entries.  The mean
        encoding imputes each row's unobserved entries with that row's own
        observed mean, so encoding a serving batch needs nothing beyond the
        batch itself — the scoring path is stateless w.r.t. training data.
        """
        item_rows = np.asarray(item_rows, dtype=float)
        if self.encoding == "onehot":
            # encode_ratings_onehot takes the user-major orientation and
            # emits item-major one-hot blocks (n_rows, n_users * K).
            return encode_ratings_onehot(
                item_rows.T, self._rating_levels, sparse=self.sparse
            )
        observed = item_rows > 0
        scaled = np.where(
            observed, (item_rows - 1) / (self._rating_levels - 1), 0.0
        )
        item_means = np.where(
            observed.sum(axis=1, keepdims=True) > 0,
            scaled.sum(axis=1, keepdims=True)
            / np.maximum(observed.sum(axis=1, keepdims=True), 1),
            0.5,
        )
        return np.where(observed, scaled, item_means)

    def fit(self, dataset: RatingsDataset) -> "RBMRecommender":
        """Train the underlying RBM on the training ratings."""
        if self.trainer is None:
            raise ValidationError("fit needs a trainer= (none was given)")
        observed = dataset.train_ratings > 0
        if not observed.any():
            raise ValidationError(
                "train_ratings contains no observed entries (every rating is 0 ="
                " unobserved); the recommender cannot estimate the global mean"
                " or any item statistics from an all-unobserved training matrix"
            )
        self._rating_levels = dataset.rating_levels
        self._n_users = dataset.n_users
        self._global_mean = float(dataset.train_ratings[observed].mean())
        data = self._encode_items(np.asarray(dataset.train_ratings, dtype=float).T)
        self.rbm = BernoulliRBM(
            n_visible=data.shape[1], n_hidden=self.n_hidden, rng=self._rng
        )
        self.trainer.train(self.rbm, data, epochs=self.epochs)
        return self

    def predict_ratings(self, item_rows: np.ndarray) -> np.ndarray:
        """Predicted ratings for raw item-major rating rows.

        The frozen scoring entry point: ``item_rows`` is ``(n_rows,
        n_users)`` with ratings in ``1..rating_levels`` and 0 marking
        unobserved entries; returns the same shape filled with predicted
        ratings in ``[1, rating_levels]``.  Uses only the fitted RBM weights
        plus the rows themselves — no training data is retained, so a model
        loaded from an artifact serves this without refitting.
        """
        if self.rbm is None:
            raise ValidationError("fit must be called before predict_ratings")
        item_rows = np.asarray(item_rows, dtype=float)
        if item_rows.ndim == 1:
            item_rows = item_rows[np.newaxis, :]
        if item_rows.ndim != 2:
            raise ValidationError(
                f"item_rows must be 2-D (n_rows, n_users), got ndim={item_rows.ndim}"
            )
        if item_rows.shape[1] != self._n_users:
            raise ValidationError(
                f"item_rows has {item_rows.shape[1]} user columns; the model"
                f" was fitted on {self._n_users} users"
            )
        recon = self.rbm.reconstruct(self._encode_items(item_rows))
        if self.encoding == "onehot":
            levels = self._rating_levels
            # (n_rows, n_users * K) -> per-user softmax blocks: the predicted
            # rating is the probability-weighted mean level (Salakhutdinov
            # et al. 2007, Eq. 2), renormalized since reconstruction
            # probabilities need not sum to one across a block.
            probs = recon.reshape(recon.shape[0], -1, levels)
            scale = np.arange(1, levels + 1, dtype=float)
            expected = probs @ scale / np.maximum(probs.sum(axis=2), 1e-12)
            return np.clip(expected, 1.0, levels)
        predicted = 1.0 + recon * (self._rating_levels - 1)
        return np.clip(predicted, 1.0, self._rating_levels)

    def predict_matrix(self, ratings: np.ndarray) -> np.ndarray:
        """Predicted full rating matrix of shape (n_users, n_items).

        ``ratings`` is the observed user-major matrix to reconstruct from
        (typically ``dataset.train_ratings``): the fitted model does not
        retain its training data.
        """
        ratings = np.asarray(ratings, dtype=float)
        if ratings.ndim != 2:
            raise ValidationError(
                f"ratings must be 2-D (n_users, n_items), got ndim={ratings.ndim}"
            )
        return self.predict_ratings(ratings.T).T

    def evaluate_mae(self, dataset: RatingsDataset) -> float:
        """MAE over the held-out observed ratings of ``dataset.test_ratings``."""
        predictions = self.predict_matrix(dataset.train_ratings)
        mask = dataset.test_ratings > 0
        if not mask.any():
            raise ValidationError("test ratings contain no observed entries")
        return mean_absolute_error(
            predictions[mask], dataset.test_ratings[mask].astype(float)
        )

    def baseline_mae(self, dataset: RatingsDataset) -> float:
        """MAE of predicting the global mean rating everywhere (sanity baseline)."""
        mask = dataset.test_ratings > 0
        if not mask.any():
            raise ValidationError("test ratings contain no observed entries")
        preds = np.full(int(mask.sum()), self._global_mean)
        return mean_absolute_error(preds, dataset.test_ratings[mask].astype(float))
