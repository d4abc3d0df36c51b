"""Tests for the deep belief network."""

import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.rbm import CDTrainer, DeepBeliefNetwork
from repro.rbm.rbm import smoothed_log_odds
from repro.utils.validation import ValidationError


def cd_layers(*, epochs=1, batch_size=16, learning_rate=0.1):
    """A CD-1 layer trainer drawing from one seeded stream."""
    rng = np.random.default_rng(0)

    def layer_trainer(rbm, layer_data):
        spec = TrainerSpec.cd(learning_rate, batch_size=batch_size)
        return CDTrainer(spec=spec, rng=rng).train(rbm, layer_data, epochs=epochs)

    return layer_trainer


class TestDeepBeliefNetworkConstruction:
    def test_layer_structure(self):
        dbn = DeepBeliefNetwork((20, 12, 8, 4), rng=0)
        assert len(dbn.rbms) == 2
        assert dbn.rbms[0].n_visible == 20 and dbn.rbms[0].n_hidden == 12
        assert dbn.rbms[1].n_visible == 12 and dbn.rbms[1].n_hidden == 8
        assert dbn.n_classes == 4

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValidationError):
            DeepBeliefNetwork((20, 10))

    def test_non_positive_layer_rejected(self):
        with pytest.raises(ValidationError):
            DeepBeliefNetwork((20, 0, 5))


class TestDeepBeliefNetworkTraining:
    @pytest.fixture
    def labelled_data(self, tiny_image_dataset):
        data = tiny_image_dataset.binarized()
        return data.train_x, data.train_y, data.test_x, data.test_y, data.n_classes

    def test_pretrain_returns_history_per_layer(self, labelled_data):
        train_x, train_y, _, _, n_classes = labelled_data
        dbn = DeepBeliefNetwork((train_x.shape[1], 16, 12, n_classes), rng=0)
        histories = dbn.pretrain(train_x, layer_trainer=cd_layers(epochs=2))
        assert len(histories) == 2

    def test_transform_shape(self, labelled_data):
        train_x, _, _, _, n_classes = labelled_data
        dbn = DeepBeliefNetwork((train_x.shape[1], 16, 12, n_classes), rng=0)
        dbn.pretrain(train_x, layer_trainer=cd_layers())
        features = dbn.transform(train_x)
        assert features.shape == (train_x.shape[0], 12)

    def test_transform_chains_the_layers_mean_field(self, labelled_data):
        train_x, _, _, _, n_classes = labelled_data
        dbn = DeepBeliefNetwork((train_x.shape[1], 16, 12, n_classes), rng=0)
        dbn.pretrain(train_x, layer_trainer=cd_layers())
        np.testing.assert_array_equal(
            dbn.transform(train_x), dbn.rbms[1].transform(dbn.rbms[0].transform(train_x))
        )

    def test_each_layer_starts_from_its_inputs_log_odds(self, labelled_data):
        train_x, _, _, _, n_classes = labelled_data
        seen = []

        def layer_trainer(rbm, layer_data):
            seen.append((rbm.visible_bias.copy(), np.asarray(layer_data).copy()))
            return CDTrainer(spec=TrainerSpec.cd(0.1), rng=0).train(rbm, layer_data, epochs=1)

        dbn = DeepBeliefNetwork((train_x.shape[1], 10, 6, n_classes), rng=0)
        dbn.pretrain(train_x, layer_trainer=layer_trainer)
        assert len(seen) == 2
        for visible_bias, layer_data in seen:
            np.testing.assert_array_equal(visible_bias, smoothed_log_odds(layer_data))

    def test_predict_requires_fine_tune(self, labelled_data):
        train_x, _, _, _, n_classes = labelled_data
        dbn = DeepBeliefNetwork((train_x.shape[1], 16, 12, n_classes), rng=0)
        dbn.pretrain(train_x, layer_trainer=cd_layers())
        with pytest.raises(ValidationError):
            dbn.predict(train_x)

    def test_end_to_end_classification_beats_chance(self):
        # A slightly larger sample than the shared fixture so the accuracy
        # estimate (and the 2x-chance bar) is not dominated by test-set noise.
        from repro.datasets import load_mnist_like

        data = load_mnist_like(scale=0.15, seed=0).pooled(4).binarized()
        dbn = DeepBeliefNetwork((data.n_features, 24, 16, data.n_classes), rng=0)
        dbn.pretrain(
            data.train_x,
            layer_trainer=cd_layers(epochs=8, batch_size=10, learning_rate=0.2),
        )
        dbn.fine_tune(data.train_x, data.train_y, epochs=120, learning_rate=0.2, batch_size=32)
        accuracy = dbn.score(data.test_x, data.test_y)
        assert accuracy > 2.0 / data.n_classes

    def test_custom_layer_trainer_is_used(self, labelled_data):
        train_x, _, _, _, n_classes = labelled_data
        calls = []

        def layer_trainer(rbm, layer_data):
            calls.append(rbm.n_hidden)
            return CDTrainer(
                spec=TrainerSpec.cd(0.1), rng=0
            ).train(rbm, layer_data, epochs=1)

        dbn = DeepBeliefNetwork((train_x.shape[1], 10, 6, n_classes), rng=0)
        dbn.pretrain(train_x, layer_trainer=layer_trainer)
        assert calls == [10, 6]

    def test_data_width_check(self):
        dbn = DeepBeliefNetwork((20, 10, 4), rng=0)
        with pytest.raises(ValidationError):
            dbn.pretrain(np.zeros((5, 12)), layer_trainer=cd_layers())
