"""Evaluation metrics: MAE, ROC/AUC and KL divergence."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import ValidationError

#: Floor of the renormalized ``q`` in :func:`kl_divergence`.
KL_EPSILON = 1e-12


def mean_absolute_error(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean absolute error, the paper's recommender-quality metric."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValidationError("predictions and targets must have the same shape")
    if predictions.size == 0:
        raise ValidationError("cannot compute MAE of empty arrays")
    return float(np.mean(np.abs(predictions - targets)))


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Receiver-operating-characteristic curve.

    Parameters
    ----------
    scores:
        Anomaly scores; larger means "more likely positive".
    labels:
        Binary ground truth (1 = positive/fraud).

    Returns
    -------
    (fpr, tpr, thresholds):
        False-positive rates, true-positive rates, and the score thresholds
        that produce them, ordered from the most permissive threshold to the
        strictest.  The endpoints (0,0) and (1,1) are always included.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=int).ravel()
    if scores.shape != labels.shape:
        raise ValidationError("scores and labels must have the same length")
    if scores.size == 0:
        raise ValidationError("cannot compute a ROC curve from empty arrays")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("ROC requires at least one positive and one negative label")
    if not np.all(np.isfinite(scores)):
        # NaN scores would sort arbitrarily (NaN compares false with
        # everything), silently producing a curve and an AUC that depend
        # on the input order rather than the scores.
        n_bad = int(np.sum(~np.isfinite(scores)))
        raise ValidationError(
            f"scores must be finite to rank: got {n_bad} non-finite"
            f" value(s) out of {scores.size}"
        )

    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = labels[order]
    sorted_scores = scores[order]

    tp_cum = np.cumsum(sorted_labels == 1)
    fp_cum = np.cumsum(sorted_labels == 0)
    # Collapse ties: only keep the last index of each distinct score value.
    distinct = np.r_[np.diff(sorted_scores) != 0, True]
    tpr = tp_cum[distinct] / n_pos
    fpr = fp_cum[distinct] / n_neg
    thresholds = sorted_scores[distinct]

    tpr = np.r_[0.0, tpr]
    fpr = np.r_[0.0, fpr]
    thresholds = np.r_[np.inf, thresholds]
    return fpr, tpr, thresholds


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via trapezoidal integration."""
    fpr, tpr, _ = roc_curve(scores, labels)
    return float(np.trapezoid(tpr, fpr))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) between two discrete distributions (the Fig.-11 metric).

    Both arguments must be non-negative and are renormalized; ``q`` is
    floored at :data:`KL_EPSILON` to keep the divergence finite when the model
    assigns (numerically) zero probability to an observed state — the same
    practical convention used when comparing learned RBMs to an empirical
    training distribution.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise ValidationError("p and q must have the same length")
    if np.any(p < 0) or np.any(q < 0):
        raise ValidationError("distributions must be non-negative")
    p_sum, q_sum = p.sum(), q.sum()
    if p_sum <= 0 or q_sum <= 0:
        raise ValidationError("distributions must have positive mass")
    p = p / p_sum
    q = np.maximum(q / q_sum, KL_EPSILON)
    support = p > 0
    return float(np.sum(p[support] * np.log(p[support] / q[support])))
