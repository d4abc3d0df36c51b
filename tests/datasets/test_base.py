"""Tests for the dataset containers (Dataset, RatingsDataset, AnomalyDataset)."""

import numpy as np
import pytest

from repro.datasets import Dataset, load_mnist_like
from repro.datasets.base import AnomalyDataset, RatingsDataset
from repro.utils.validation import ValidationError


def _simple_dataset(n_train=20, n_test=8, n_features=16, n_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        name="simple",
        train_x=rng.random((n_train, n_features)),
        train_y=rng.integers(0, n_classes, n_train),
        test_x=rng.random((n_test, n_features)),
        test_y=rng.integers(0, n_classes, n_test),
        image_shape=(4, 4),
        n_classes=n_classes,
    )


class TestDataset:
    def test_properties(self):
        ds = _simple_dataset()
        assert ds.n_features == 16
        assert ds.n_train == 20
        assert ds.n_test == 8

    def test_n_classes_inferred(self):
        rng = np.random.default_rng(0)
        ds = Dataset(
            name="x",
            train_x=rng.random((10, 4)),
            train_y=np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 2]),
            test_x=rng.random((3, 4)),
            test_y=np.array([0, 1, 2]),
        )
        assert ds.n_classes == 3

    def test_feature_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            Dataset(
                name="bad",
                train_x=rng.random((5, 4)),
                train_y=np.zeros(5, dtype=int),
                test_x=rng.random((3, 5)),
                test_y=np.zeros(3, dtype=int),
            )

    def test_label_misalignment_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            Dataset(
                name="bad",
                train_x=rng.random((5, 4)),
                train_y=np.zeros(4, dtype=int),
                test_x=rng.random((3, 4)),
                test_y=np.zeros(3, dtype=int),
            )

    def test_out_of_range_features_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(
                name="bad",
                train_x=np.full((3, 2), 1.5),
                train_y=np.zeros(3, dtype=int),
                test_x=np.zeros((2, 2)),
                test_y=np.zeros(2, dtype=int),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["train_x", "test_x"])
    def test_non_finite_features_rejected_by_name(self, field, bad):
        arrays = {"train_x": [[0.5, 0.25]], "test_x": [[0.0, 1.0]]}
        arrays[field] = [[0.5, bad]]
        with pytest.raises(ValidationError, match=f"{field} contains non-finite"):
            Dataset(name="bad", train_y=[0], test_y=[0], **arrays)

    def test_pooled_empty_split(self):
        ds = _simple_dataset()
        empty_test = Dataset(
            name="train-only",
            train_x=ds.train_x,
            train_y=ds.train_y,
            test_x=np.empty((0, 16)),
            test_y=np.empty(0, dtype=int),
            image_shape=(4, 4),
            n_classes=4,
        )
        pooled = empty_test.pooled(2)
        assert pooled.test_x.shape == (0, 4)
        assert pooled.n_test == 0
        np.testing.assert_array_equal(pooled.train_x, ds.pooled(2).train_x)

    def test_binarized(self):
        ds = _simple_dataset().binarized()
        assert set(np.unique(ds.train_x)).issubset({0.0, 1.0})
        assert set(np.unique(ds.test_x)).issubset({0.0, 1.0})

    def test_binarized_threshold(self):
        ds = _simple_dataset()
        strict = ds.binarized(threshold=0.9)
        assert strict.train_x.mean() < ds.binarized(threshold=0.1).train_x.mean()

    def test_pooled_shapes(self):
        ds = load_mnist_like(scale=0.02, seed=0)
        pooled = ds.pooled(4)
        assert pooled.n_features == 49
        assert pooled.image_shape == (7, 7)
        assert pooled.n_train == ds.n_train

    def test_pooled_preserves_labels(self):
        ds = load_mnist_like(scale=0.02, seed=0)
        pooled = ds.pooled(4)
        np.testing.assert_array_equal(pooled.train_y, ds.train_y)

    def test_pooled_values_are_block_means(self):
        ds = load_mnist_like(scale=0.02, seed=0)
        pooled = ds.pooled(4)
        img = ds.train_x[0].reshape(28, 28)
        expected = img[:4, :4].mean()
        assert pooled.train_x[0, 0] == pytest.approx(expected)

    def test_pooled_requires_divisible_block(self):
        ds = load_mnist_like(scale=0.02, seed=0)
        with pytest.raises(ValidationError):
            ds.pooled(5)

    def test_pooled_requires_image_shape(self):
        ds = _simple_dataset()
        no_shape = Dataset(
            name="flat",
            train_x=ds.train_x,
            train_y=ds.train_y,
            test_x=ds.test_x,
            test_y=ds.test_y,
        )
        with pytest.raises(ValidationError):
            no_shape.pooled(2)


class TestRatingsDataset:
    def test_valid_construction(self):
        train = np.array([[1, 0], [0, 5]])
        test = np.array([[0, 3], [2, 0]])
        ds = RatingsDataset(name="r", train_ratings=train, test_ratings=test)
        assert ds.n_users == 2
        assert ds.n_items == 2
        assert ds.n_train_ratings == 2
        assert ds.n_test_ratings == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            RatingsDataset(
                name="r",
                train_ratings=np.zeros((2, 3), dtype=int),
                test_ratings=np.zeros((2, 2), dtype=int),
            )

    def test_out_of_range_rating_rejected(self):
        with pytest.raises(ValidationError):
            RatingsDataset(
                name="r",
                train_ratings=np.array([[9]]),
                test_ratings=np.array([[0]]),
            )


class TestAnomalyDataset:
    def test_valid_construction(self):
        ds = AnomalyDataset(
            name="a",
            train_x=np.random.default_rng(0).random((10, 4)),
            test_x=np.random.default_rng(1).random((6, 4)),
            test_y=np.array([0, 0, 1, 0, 1, 0]),
        )
        assert ds.n_features == 4
        assert ds.fraud_fraction == pytest.approx(2 / 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["train_x", "test_x"])
    def test_non_finite_features_rejected_by_name(self, field, bad):
        arrays = {"train_x": np.zeros((3, 2)), "test_x": np.zeros((3, 2))}
        arrays[field][1, 0] = bad
        with pytest.raises(ValidationError, match=f"{field} contains non-finite"):
            AnomalyDataset(name="a", test_y=np.array([0, 1, 0]), **arrays)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValidationError):
            AnomalyDataset(
                name="a",
                train_x=np.zeros((3, 2)),
                test_x=np.zeros((3, 2)),
                test_y=np.array([0, 2, 1]),
            )

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            AnomalyDataset(
                name="a",
                train_x=np.zeros((3, 2)),
                test_x=np.zeros((3, 3)),
                test_y=np.array([0, 1, 0]),
            )
