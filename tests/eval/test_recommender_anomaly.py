"""Tests for the recommender and anomaly-detection pipelines."""

import numpy as np
import pytest

from helpers.estimators import cd1_detector, cd1_recommender
from repro.config import TrainerSpec
from repro.core import BGFTrainer
from repro.eval import RBMAnomalyDetector, RBMRecommender
from repro.rbm import CDTrainer
from repro.utils.validation import ValidationError


class TestRBMRecommender:
    def test_invalid_configuration(self):
        with pytest.raises(ValidationError):
            RBMRecommender(n_hidden=0)
        with pytest.raises(ValidationError):
            RBMRecommender(epochs=0)

    def test_fit_predict_shapes(self, tiny_ratings_dataset):
        recommender = cd1_recommender(n_hidden=12, epochs=5, rng=0).fit(tiny_ratings_dataset)
        predictions = recommender.predict_matrix(tiny_ratings_dataset.train_ratings)
        assert predictions.shape == (tiny_ratings_dataset.n_users, tiny_ratings_dataset.n_items)

    def test_predictions_in_rating_range(self, tiny_ratings_dataset):
        recommender = cd1_recommender(n_hidden=12, epochs=5, rng=0).fit(tiny_ratings_dataset)
        predictions = recommender.predict_matrix(tiny_ratings_dataset.train_ratings)
        assert predictions.min() >= 1.0
        assert predictions.max() <= tiny_ratings_dataset.rating_levels

    def test_fit_needs_a_trainer(self, tiny_ratings_dataset):
        with pytest.raises(ValidationError, match="trainer"):
            RBMRecommender(n_hidden=8, epochs=1, rng=0).fit(tiny_ratings_dataset)

    def test_requires_fit_before_predict(self, tiny_ratings_dataset):
        with pytest.raises(ValidationError, match="fit must be called"):
            RBMRecommender().predict_ratings(tiny_ratings_dataset.train_ratings.T)

    def test_predict_matrix_requires_ratings(self, tiny_ratings_dataset):
        """The fitted model no longer retains the training matrix: scoring
        takes the observed ratings explicitly."""
        recommender = cd1_recommender(n_hidden=8, epochs=3, rng=0).fit(tiny_ratings_dataset)
        assert not hasattr(recommender, "_train_data")
        with pytest.raises(TypeError, match="ratings"):
            recommender.predict_matrix()

    def test_predict_ratings_row_width_check(self, tiny_ratings_dataset):
        recommender = cd1_recommender(n_hidden=8, epochs=3, rng=0).fit(tiny_ratings_dataset)
        with pytest.raises(ValidationError, match="user columns"):
            recommender.predict_ratings(np.zeros((2, tiny_ratings_dataset.n_users + 1)))

    def test_fit_rejects_all_unobserved_ratings(self, tiny_ratings_dataset):
        """All-zero training ratings must fail loudly instead of silently
        scoring against the stale default global mean."""
        empty = type(tiny_ratings_dataset)(
            name="all-unobserved",
            train_ratings=np.zeros_like(tiny_ratings_dataset.train_ratings),
            test_ratings=tiny_ratings_dataset.test_ratings,
            rating_levels=tiny_ratings_dataset.rating_levels,
        )
        with pytest.raises(ValidationError, match="no observed entries"):
            cd1_recommender(n_hidden=8, epochs=1, rng=0).fit(empty)

    def test_beats_global_mean_baseline(self, tiny_ratings_dataset):
        """The quality bar behind Table 4's MAE row: the learned model must be
        better than predicting the global mean rating everywhere."""
        trainer = CDTrainer(spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=5), rng=0)
        recommender = RBMRecommender(
            n_hidden=16, trainer=trainer, epochs=40, rng=0
        ).fit(tiny_ratings_dataset)
        assert recommender.evaluate_mae(tiny_ratings_dataset) < recommender.baseline_mae(
            tiny_ratings_dataset
        )

    def test_bgf_trainer_plugs_in(self, tiny_ratings_dataset):
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=0)
        recommender = RBMRecommender(
            n_hidden=16, trainer=trainer, epochs=15, rng=0
        ).fit(tiny_ratings_dataset)
        mae = recommender.evaluate_mae(tiny_ratings_dataset)
        assert 0.0 < mae < tiny_ratings_dataset.rating_levels

    def test_deterministic_given_seeds(self, tiny_ratings_dataset):
        a = cd1_recommender(n_hidden=8, epochs=3, rng=5).fit(tiny_ratings_dataset)
        b = cd1_recommender(n_hidden=8, epochs=3, rng=5).fit(tiny_ratings_dataset)
        np.testing.assert_allclose(
            a.predict_matrix(tiny_ratings_dataset.train_ratings),
            b.predict_matrix(tiny_ratings_dataset.train_ratings),
        )


class TestRBMAnomalyDetector:
    def test_invalid_configuration(self):
        with pytest.raises(ValidationError):
            RBMAnomalyDetector(n_hidden=0)
        with pytest.raises(ValidationError):
            RBMAnomalyDetector(epochs=0)

    def test_fit_needs_a_trainer(self, tiny_fraud_dataset):
        with pytest.raises(ValidationError, match="trainer"):
            RBMAnomalyDetector(n_hidden=8, epochs=1, rng=0).fit(tiny_fraud_dataset)

    def test_requires_fit_before_scoring(self, tiny_fraud_dataset):
        detector = RBMAnomalyDetector(rng=0)
        with pytest.raises(ValidationError):
            detector.anomaly_scores(tiny_fraud_dataset.test_x)

    def test_scores_shape(self, tiny_fraud_dataset):
        detector = cd1_detector(n_hidden=8, epochs=5, rng=0).fit(tiny_fraud_dataset)
        scores = detector.anomaly_scores(tiny_fraud_dataset.test_x)
        assert scores.shape == (tiny_fraud_dataset.test_x.shape[0],)

    def test_auc_well_above_chance(self, tiny_fraud_dataset):
        """Table 4 reports AUC ~0.96; at miniature scale we still expect the
        detector to be clearly better than random."""
        detector = cd1_detector(n_hidden=10, epochs=20, rng=0).fit(tiny_fraud_dataset)
        assert detector.evaluate_auc(tiny_fraud_dataset) > 0.8

    def test_roc_curve_output(self, tiny_fraud_dataset):
        detector = cd1_detector(n_hidden=8, epochs=5, rng=0).fit(tiny_fraud_dataset)
        fpr, tpr, thresholds = detector.evaluate_roc(tiny_fraud_dataset)
        assert fpr.shape == tpr.shape == thresholds.shape
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_bgf_trainer_plugs_in(self, tiny_fraud_dataset):
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.05, reference_batch_size=20), rng=0)
        detector = RBMAnomalyDetector(
            n_hidden=10, trainer=trainer, epochs=15, rng=0
        ).fit(tiny_fraud_dataset)
        assert detector.evaluate_auc(tiny_fraud_dataset) > 0.75

    def test_feature_width_check(self, tiny_fraud_dataset):
        detector = cd1_detector(n_hidden=8, epochs=3, rng=0).fit(tiny_fraud_dataset)
        with pytest.raises(ValidationError):
            detector.anomaly_scores(np.zeros((5, 10)))


@pytest.mark.sparse
class TestSparseEncodedPipelines:
    """Sparse-vs-dense pinning of the one-hot encoded eval pipelines."""

    def test_recommender_sparse_requires_onehot(self):
        with pytest.raises(ValidationError):
            RBMRecommender(encoding="mean", sparse=True)
        with pytest.raises(ValidationError):
            RBMRecommender(encoding="nonsense")

    def test_recommender_onehot_predictions_in_range(self, tiny_ratings_dataset):
        recommender = cd1_recommender(
            n_hidden=12, epochs=5, encoding="onehot", sparse=True, rng=0
        ).fit(tiny_ratings_dataset)
        predictions = recommender.predict_matrix(tiny_ratings_dataset.train_ratings)
        assert predictions.shape == (
            tiny_ratings_dataset.n_users,
            tiny_ratings_dataset.n_items,
        )
        assert predictions.min() >= 1.0
        assert predictions.max() <= tiny_ratings_dataset.rating_levels

    def test_recommender_sparse_matches_dense(self, tiny_ratings_dataset):
        predictions = [
            cd1_recommender(
                n_hidden=12, epochs=5, encoding="onehot", sparse=sparse, rng=0
            )
            .fit(tiny_ratings_dataset)
            .predict_matrix(tiny_ratings_dataset.train_ratings)
            for sparse in (True, False)
        ]
        np.testing.assert_allclose(predictions[0], predictions[1], atol=1e-8)

    def test_detector_sparse_requires_onehot(self):
        with pytest.raises(ValidationError):
            RBMAnomalyDetector(encoding="direct", sparse=True)
        with pytest.raises(ValidationError):
            RBMAnomalyDetector(encoding="nonsense")
        with pytest.raises(ValidationError):
            RBMAnomalyDetector(encoding="onehot", n_bins=1)

    def test_detector_sparse_matches_dense(self, tiny_fraud_dataset):
        scores = [
            cd1_detector(
                n_hidden=8,
                epochs=5,
                encoding="onehot",
                n_bins=8,
                sparse=sparse,
                rng=0,
            )
            .fit(tiny_fraud_dataset)
            .anomaly_scores(tiny_fraud_dataset.test_x)
            for sparse in (True, False)
        ]
        np.testing.assert_allclose(scores[0], scores[1], atol=1e-8)

    def test_detector_onehot_takes_raw_features(self, tiny_fraud_dataset):
        detector = cd1_detector(
            n_hidden=8, epochs=5, encoding="onehot", n_bins=8, sparse=True, rng=0
        ).fit(tiny_fraud_dataset)
        scores = detector.anomaly_scores(tiny_fraud_dataset.test_x)
        assert scores.shape == (tiny_fraud_dataset.test_x.shape[0],)
        auc = detector.evaluate_auc(tiny_fraud_dataset)
        assert 0.0 <= auc <= 1.0
        with pytest.raises(ValidationError):
            detector.anomaly_scores(np.zeros((5, 10)))
