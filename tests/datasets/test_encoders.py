"""Tests for the sparse one-hot encoders feeding the sparse workloads."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.datasets import encode_features_onehot, encode_ratings_onehot
from repro.utils.batching import minibatches
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.sparse


class TestEncodeRatingsOnehot:
    @pytest.fixture
    def ratings(self):
        # 4 users x 3 items, levels 1..5, 0 = unobserved.
        return np.array(
            [
                [5, 0, 1],
                [0, 3, 0],
                [2, 2, 0],
                [0, 0, 4],
            ]
        )

    def test_shape_is_item_major(self, ratings):
        encoded = encode_ratings_onehot(ratings, 5)
        assert encoded.shape == (3, 4 * 5)

    def test_sparse_equals_dense(self, ratings):
        csr = encode_ratings_onehot(ratings, 5, sparse=True)
        dense = encode_ratings_onehot(ratings, 5, sparse=False)
        assert sp.issparse(csr) and not sp.issparse(dense)
        np.testing.assert_array_equal(csr.toarray(), dense)

    def test_one_hot_placement(self, ratings):
        dense = encode_ratings_onehot(ratings, 5, sparse=False)
        # Item 0, user 0 rated 5 -> unit 0*5 + 4 of row 0.
        assert dense[0, 4] == 1.0
        # Item 2, user 3 rated 4 -> unit 3*5 + 3 of row 2.
        assert dense[2, 3 * 5 + 3] == 1.0
        # Unobserved (user 1, item 0): whole block is zero.
        assert dense[0, 1 * 5 : 2 * 5].sum() == 0.0

    def test_nnz_is_observed_count(self, ratings):
        encoded = encode_ratings_onehot(ratings, 5)
        assert encoded.nnz == np.count_nonzero(ratings)
        row_ones = np.asarray(encoded.sum(axis=1)).ravel()
        np.testing.assert_array_equal(row_ones, np.count_nonzero(ratings.T, axis=1))

    def test_validation_errors(self, ratings):
        with pytest.raises(ValidationError):
            encode_ratings_onehot(np.zeros(4), 5)
        with pytest.raises(ValidationError):
            encode_ratings_onehot(ratings, 0)
        with pytest.raises(ValidationError):
            encode_ratings_onehot(ratings, 4)  # contains a 5 > rating_levels
        with pytest.raises(ValidationError):
            encode_ratings_onehot(ratings - 1, 5)  # negatives

    def test_feeds_sparse_minibatches(self, ratings):
        encoded = encode_ratings_onehot(ratings, 5)
        batches = list(minibatches(encoded, 2))
        assert all(sp.issparse(batch) for batch in batches)
        np.testing.assert_array_equal(
            sp.vstack(batches).toarray(), encoded.toarray()
        )


class TestEncodeFeaturesOnehot:
    @pytest.fixture
    def features(self):
        return np.random.default_rng(0).random((10, 4))

    def test_shape_and_density(self, features):
        encoded = encode_features_onehot(features, n_bins=8)
        assert encoded.shape == (10, 4 * 8)
        # Exactly one indicator per (row, feature) block.
        assert encoded.nnz == 10 * 4
        assert encoded.nnz / np.prod(encoded.shape) == pytest.approx(1 / 8)

    def test_sparse_equals_dense(self, features):
        csr = encode_features_onehot(features, n_bins=8, sparse=True)
        dense = encode_features_onehot(features, n_bins=8, sparse=False)
        assert sp.issparse(csr) and not sp.issparse(dense)
        np.testing.assert_array_equal(csr.toarray(), dense)

    def test_bin_placement(self):
        x = np.array([[0.0, 0.5, 1.0]])
        dense = encode_features_onehot(x, n_bins=4, sparse=False)
        # 0.0 -> bin 0; 0.5 -> bin 2; 1.0 clips into the last bin.
        assert dense[0, 0] == 1.0
        assert dense[0, 4 + 2] == 1.0
        assert dense[0, 8 + 3] == 1.0

    def test_validation_errors(self, features):
        with pytest.raises(ValidationError):
            encode_features_onehot(np.zeros(5))
        with pytest.raises(ValidationError):
            encode_features_onehot(features, n_bins=1)
        with pytest.raises(ValidationError):
            encode_features_onehot(features + 1.0)
        with pytest.raises(ValidationError):
            encode_features_onehot(features - 1.0)
