"""Evaluation substrates: classifier head, metrics, recommender and anomaly scoring.

These are the pieces the paper delegates to sklearn and friends (logistic
regression accuracy, MAE for the recommender, ROC/AUC for anomaly
detection, KL divergence for the bias study).  They are implemented here in
NumPy so the library has no dependency beyond numpy/scipy.
"""

from repro.eval.logistic import LogisticRegressionClassifier
from repro.eval.metrics import (
    mean_absolute_error,
    roc_curve,
    roc_auc,
    kl_divergence,
)
from repro.eval.recommender import RBMRecommender
from repro.eval.anomaly import RBMAnomalyDetector

__all__ = [
    "LogisticRegressionClassifier",
    "mean_absolute_error",
    "roc_curve",
    "roc_auc",
    "kl_divergence",
    "RBMRecommender",
    "RBMAnomalyDetector",
]
