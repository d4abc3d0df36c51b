"""The softmax head's in-place SGD loop equals the oracle bit for bit.

``LogisticRegressionClassifier.fit`` draws one row permutation per epoch
and evaluates the softmax and its gradient in place; the oracle
(``helpers.reference.logistic_fit``) runs the same steps through
``minibatches``, ``softmax`` and ``np.mean``.  Weights, bias and the
generator's state must be equal after fitting, across a partial last
batch, an exact split, one batch holding every row and single-row batches.
"""

import numpy as np
import pytest

from helpers.reference import logistic_fit
from repro.eval import LogisticRegressionClassifier


@pytest.mark.parametrize(
    "n_rows, n_features, n_classes, batch_size",
    [(400, 32, 10, 32), (48, 5, 3, 16), (50, 7, 3, 64), (50, 7, 3, 50), (9, 4, 2, 1)],
    ids=["partial", "exact", "oversized", "one-batch", "single-row"],
)
@pytest.mark.parametrize("seed", [0, 1, 9001])
def test_fit_matches_the_oracle(seed, n_rows, n_features, n_classes, batch_size):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_rows, n_features))
    labels = rng.integers(0, n_classes, n_rows)
    fast = LogisticRegressionClassifier(n_features, n_classes, rng=seed)
    oracle = LogisticRegressionClassifier(n_features, n_classes, rng=seed)
    fast.fit(features, labels, epochs=4, learning_rate=0.2, batch_size=batch_size)
    logistic_fit(oracle, features, labels, epochs=4, learning_rate=0.2, batch_size=batch_size)
    np.testing.assert_array_equal(fast.weights, oracle.weights)
    np.testing.assert_array_equal(fast.bias, oracle.bias)
    assert fast._rng.bit_generator.state == oracle._rng.bit_generator.state


def test_fit_leaves_its_inputs_untouched():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, 30)
    kept = (features.copy(), labels.copy())
    LogisticRegressionClassifier(4, 3, rng=0).fit(
        features, labels, epochs=2, learning_rate=0.1, batch_size=8
    )
    np.testing.assert_array_equal(features, kept[0])
    np.testing.assert_array_equal(labels, kept[1])


@pytest.mark.parametrize("batch_size", [0, -3, 2.0, True])
def test_fit_rejects_a_bad_batch_size(batch_size):
    clf = LogisticRegressionClassifier(4, 3, rng=0)
    with pytest.raises(ValueError, match="batch_size"):
        clf.fit(np.zeros((6, 4)), np.zeros(6, dtype=int), epochs=1,
                learning_rate=0.1, batch_size=batch_size)
