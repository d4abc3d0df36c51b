"""End-to-end integration tests across subsystems.

Each test exercises a full pipeline the way a downstream user (or the
paper's evaluation) would: data generation -> training on a chosen
substrate -> evaluation metric.
"""

import pytest

from repro.config import TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.datasets import load_benchmark_dataset
from repro.eval import LogisticRegressionClassifier, RBMAnomalyDetector, RBMRecommender
from repro.rbm import (
    BernoulliRBM,
    CDTrainer,
    DeepBeliefNetwork,
    average_log_probability,
)


@pytest.fixture(scope="module")
def image_data():
    return load_benchmark_dataset("mnist", scale="ci", seed=0).binarized()


class TestImageClassificationPipelines:
    def _feature_accuracy(self, rbm, data, seed=0):
        train_f = rbm.transform(data.train_x)
        test_f = rbm.transform(data.test_x)
        mean, std = train_f.mean(axis=0), train_f.std(axis=0) + 1e-6
        clf = LogisticRegressionClassifier(rbm.n_hidden, data.n_classes, rng=seed)
        clf.fit(
            (train_f - mean) / std, data.train_y, epochs=60, learning_rate=0.2, batch_size=50
        )
        return clf.score((test_f - mean) / std, data.test_y)

    def test_cd_and_bgf_features_both_classify_well(self, image_data):
        """The Table-4 comparison, end to end, on one CI-scale benchmark."""
        base = BernoulliRBM(image_data.n_features, 32, rng=0)
        base.init_visible_bias_from_data(image_data.train_x)

        cd_rbm = base.copy()
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=10, batch_size=10), rng=1
        ).train(cd_rbm, image_data.train_x, epochs=15)
        cd_accuracy = self._feature_accuracy(cd_rbm, image_data)

        bgf_rbm = base.copy()
        BGFTrainer(
            spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1
        ).train(bgf_rbm, image_data.train_x, epochs=15)
        bgf_accuracy = self._feature_accuracy(bgf_rbm, image_data)

        assert cd_accuracy > 0.5
        assert bgf_accuracy > 0.5
        assert abs(cd_accuracy - bgf_accuracy) < 0.2

    def test_gs_trainer_in_dbn_pipeline(self, image_data):
        """The GS accelerator slots into DBN greedy pre-training unchanged."""
        dbn = DeepBeliefNetwork((image_data.n_features, 24, 16, image_data.n_classes), rng=0)

        def layer_trainer(rbm, layer_data):
            return GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10), rng=2
            ).train(
                rbm, layer_data, epochs=5
            )

        dbn.pretrain(image_data.train_x, layer_trainer=layer_trainer)
        dbn.fine_tune(
            image_data.train_x, image_data.train_y, epochs=80, learning_rate=0.2, batch_size=50
        )
        assert dbn.score(image_data.test_x, image_data.test_y) > 2.0 / image_data.n_classes


class TestRecommenderAndAnomalyPipelines:
    def test_recommender_end_to_end_with_bgf(self):
        ratings = load_benchmark_dataset("recommender", scale="ci", seed=0)
        trainer = BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=0)
        recommender = RBMRecommender(n_hidden=24, trainer=trainer, epochs=25, rng=1).fit(ratings)
        assert recommender.evaluate_mae(ratings) < recommender.baseline_mae(ratings) * 1.05

    def test_anomaly_end_to_end_with_gs(self):
        dataset = load_benchmark_dataset("anomaly", scale="ci", seed=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.05, cd_k=1, batch_size=20), rng=0
        )
        detector = RBMAnomalyDetector(n_hidden=10, trainer=trainer, epochs=15, rng=1).fit(dataset)
        assert detector.evaluate_auc(dataset) > 0.85


class TestQualityMetricsAcrossTrainers:
    def test_all_three_trainers_raise_log_probability(self, image_data):
        """CD (software), GS (hardware sampling) and BGF (hardware training)
        all raise the paper's quality metric on the same data."""
        data = image_data.train_x[:150]
        base = BernoulliRBM(image_data.n_features, 24, rng=0)
        base.init_visible_bias_from_data(data)
        initial = average_log_probability(base, data, n_chains=20, n_betas=60, rng=0)

        trainers = {
            "cd": CDTrainer(spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1),
            "gs": GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10), rng=1
            ),
            "bgf": BGFTrainer(
                spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1
            ),
        }
        for name, trainer in trainers.items():
            rbm = base.copy()
            trainer.train(rbm, data, epochs=10)
            final = average_log_probability(rbm, data, n_chains=20, n_betas=60, rng=0)
            assert final > initial + 0.3, name
