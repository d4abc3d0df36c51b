"""Tests for repro.utils.batching."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.utils.batching import minibatches


class TestMinibatches:
    def test_covers_all_rows(self):
        data = np.arange(23).reshape(23, 1)
        batches = list(minibatches(data, 5))
        assert sum(b.shape[0] for b in batches) == 23

    def test_batch_sizes(self):
        data = np.arange(20).reshape(10, 2)
        sizes = [b.shape[0] for b in minibatches(data, 4)]
        assert sizes == [4, 4, 2]

    def test_no_shuffle_preserves_order(self):
        data = np.arange(12).reshape(6, 2)
        first = next(iter(minibatches(data, 3)))
        np.testing.assert_array_equal(first, data[:3])

    def test_shuffle_changes_order_but_not_content(self):
        data = np.arange(50).reshape(50, 1)
        batches = list(minibatches(data, 10, shuffle=True, rng=0))
        combined = np.sort(np.concatenate(batches).ravel())
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_shuffle_is_seeded(self):
        data = np.arange(30).reshape(30, 1)
        a = np.concatenate(list(minibatches(data, 7, shuffle=True, rng=3)))
        b = np.concatenate(list(minibatches(data, 7, shuffle=True, rng=3)))
        np.testing.assert_array_equal(a, b)

    def test_with_labels(self):
        data = np.arange(10).reshape(10, 1)
        labels = np.arange(10)
        for batch_x, batch_y in minibatches(data, 3, labels=labels):
            np.testing.assert_array_equal(batch_x.ravel(), batch_y)

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError):
            list(minibatches(np.zeros((5, 2)), 2, labels=np.zeros(4)))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(minibatches(np.zeros((5, 2)), 0))

    def test_oversized_batch_yields_single_full_batch(self):
        data = np.arange(12).reshape(6, 2)
        batches = list(minibatches(data, 100))
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], data)

    def test_sparse_batches_stay_sparse_and_match_dense(self):
        dense = np.where(np.random.default_rng(0).random((11, 4)) < 0.3, 1.0, 0.0)
        csr = sp.csr_matrix(dense)
        sparse_batches = list(minibatches(csr, 4))
        dense_batches = list(minibatches(dense, 4))
        assert len(sparse_batches) == len(dense_batches)
        for sb, db in zip(sparse_batches, dense_batches):
            assert sp.issparse(sb)
            np.testing.assert_array_equal(sb.toarray(), db)

    def test_sparse_with_labels(self):
        csr = sp.csr_matrix(np.eye(7))
        labels = np.arange(7)
        for batch_x, batch_y in minibatches(csr, 3, labels=labels):
            assert sp.issparse(batch_x)
            assert batch_x.shape[0] == batch_y.shape[0]


def _binary(n_rows=17, n_cols=3, seed=1):
    return np.where(np.random.default_rng(seed).random((n_rows, n_cols)) < 0.4, 1.0, 0.0)


class TestMinibatchPartition:
    """The batches of ``minibatches`` partition the rows in order: every
    batch but the last holds ``batch_size`` rows, and CSR input yields CSR
    batches equal to the dense ones."""

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 7, 17, 100])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_batches_reassemble_the_data(self, batch_size, sparse):
        dense = _binary()
        data = sp.csr_matrix(dense) if sparse else dense
        batches = list(minibatches(data, batch_size))
        assert len(batches) == -(-dense.shape[0] // batch_size)
        assert all(b.shape[0] == batch_size for b in batches[:-1])
        assert all(sp.issparse(b) == sparse for b in batches)
        stack = sp.vstack(batches).toarray() if sparse else np.concatenate(batches)
        np.testing.assert_array_equal(stack, dense)

    @pytest.mark.parametrize("batch_size", [1, 4, 7])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_last_batch_holds_the_remainder(self, batch_size, sparse):
        """Every batch is full except the last, which keeps the leftover
        rows instead of dropping them."""
        dense = _binary()
        data = sp.csr_matrix(dense) if sparse else dense
        sizes = [b.shape[0] for b in minibatches(data, batch_size)]
        full, rest = divmod(dense.shape[0], batch_size)
        assert sizes == [batch_size] * full + ([rest] if rest else [])

    @pytest.mark.parametrize("batch_size", [1, 4, 17])
    def test_shuffled_csr_matches_shuffled_dense(self, batch_size):
        dense = _binary()
        sparse_batches = list(minibatches(sp.csr_matrix(dense), batch_size, shuffle=True, rng=2))
        dense_batches = list(minibatches(dense, batch_size, shuffle=True, rng=2))
        assert len(sparse_batches) == len(dense_batches)
        for sb, db in zip(sparse_batches, dense_batches):
            np.testing.assert_array_equal(sb.toarray(), db)
