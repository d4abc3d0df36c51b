"""Synthetic MovieLens-100k-like ratings for the recommender benchmark.

The paper trains an RBM collaborative-filtering model (Salakhutdinov,
Mnih & Hinton 2007) on the 100k MovieLens dataset with a 943-visible /
100-hidden RBM (Table 1).  This generator produces a user × item rating
matrix from a low-rank latent-factor model plus user/item biases and
observation sparsity, which preserves the properties the experiment needs:

* ratings are predictable from latent structure, so a trained model can
  reach a meaningfully low mean absolute error;
* the observation mask is sparse and unevenly distributed across users,
  like real MovieLens;
* train/test splits hold out observed ratings per user.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import RatingsDataset
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError

# The generator's latent model: the rank of the user/item factors, the
# standard deviation of the per-user and per-item rating biases (real
# MovieLens is dominated by such main effects, which is what makes learned
# models clearly better than the global-mean baseline), the weight of the
# factor interaction relative to the biases, and the standard deviation of
# the per-rating noise added to the affinities.
N_FACTORS = 4
BIAS_SCALE = 0.8
FACTOR_SCALE = 0.6
OBSERVATION_NOISE = 0.2


def encode_ratings_onehot(ratings, rating_levels: int, *, sparse: bool = True):
    """One-hot encode an item-major rating matrix for RBM training.

    This is the Salakhutdinov-style softmax-visible encoding: each training
    sample is one *item*, described by a block of ``rating_levels`` visible
    units per user — unit ``user * rating_levels + (r - 1)`` is 1 when the
    user rated the item ``r``, and a user's whole block is 0 when the
    rating is unobserved.  At real MovieLens sparsity the result is ~1-2%
    dense, which is what makes the sparse kernels pay off.

    Parameters
    ----------
    ratings:
        ``(n_users, n_items)`` integer matrix, 0 = unobserved.
    rating_levels:
        Ratings take values ``1..rating_levels``.
    sparse:
        ``True`` (default) returns a scipy CSR matrix; ``False`` returns the
        exact same matrix densified — both are built from one construction,
        so sparse and dense encodings are elementwise equal.

    Returns
    -------
    ``(n_items, n_users * rating_levels)`` float matrix, CSR or dense.
    """
    ratings = np.asarray(ratings)
    if ratings.ndim != 2:
        raise ValidationError("ratings must be a 2-D (n_users, n_items) matrix")
    if rating_levels < 1:
        raise ValidationError(f"rating_levels must be >= 1, got {rating_levels}")
    ratings = ratings.astype(int)
    if ratings.min() < 0 or ratings.max() > rating_levels:
        raise ValidationError(f"ratings must lie in [0, {rating_levels}]")

    item_major = ratings.T  # (n_items, n_users)
    n_items, n_users = item_major.shape
    rows, users = np.nonzero(item_major)
    cols = users * rating_levels + (item_major[rows, users] - 1)
    shape = (n_items, n_users * rating_levels)

    if sparse:
        from scipy import sparse as sp

        return sp.csr_matrix(
            (np.ones(rows.size, dtype=float), (rows, cols)), shape=shape
        )
    out = np.zeros(shape, dtype=float)
    out[rows, cols] = 1.0
    return out


def make_movielens_like(
    n_users: int = 200,
    n_items: int = 100,
    *,
    density: float = 0.3,
    rating_levels: int = 5,
    test_fraction: float = 0.2,
    seed: SeedLike = 0,
) -> RatingsDataset:
    """Generate a synthetic ratings dataset.

    Parameters
    ----------
    n_users, n_items:
        Matrix dimensions.  The paper-scale configuration uses 943 users
        (visible units in the per-item RBM encoding) and 100 items.
    density:
        Fraction of (user, item) pairs that are observed overall.
    rating_levels:
        Ratings take integer values 1..rating_levels; 0 marks "unobserved".
    test_fraction:
        Fraction of each user's observed ratings held out for testing.
    """
    if n_users <= 1 or n_items <= 1:
        raise ValidationError("need at least 2 users and 2 items")
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density must be in (0, 1], got {density}")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = as_rng(seed)

    user_factors = rng.normal(0.0, 1.0, size=(n_users, N_FACTORS))
    item_factors = rng.normal(0.0, 1.0, size=(n_items, N_FACTORS))
    user_bias = rng.normal(0.0, BIAS_SCALE, size=(n_users, 1))
    item_bias = rng.normal(0.0, BIAS_SCALE, size=(1, n_items))
    affinity = (
        FACTOR_SCALE * user_factors @ item_factors.T / np.sqrt(N_FACTORS)
        + user_bias
        + item_bias
    )
    affinity += rng.normal(0.0, OBSERVATION_NOISE, size=affinity.shape)

    # Map affinities to 1..rating_levels through global quantiles so the
    # rating histogram is non-degenerate (roughly bell-shaped like MovieLens).
    quantiles = np.quantile(affinity, np.linspace(0, 1, rating_levels + 1)[1:-1])
    ratings = np.digitize(affinity, quantiles) + 1

    observed = rng.random((n_users, n_items)) < density
    # Guarantee every user and every item has at least two observations so
    # per-user train/test splits are well defined.
    for u in range(n_users):
        if observed[u].sum() < 2:
            observed[u, rng.choice(n_items, size=2, replace=False)] = True
    for i in range(n_items):
        if observed[:, i].sum() < 2:
            observed[rng.choice(n_users, size=2, replace=False), i] = True

    train = np.zeros((n_users, n_items), dtype=int)
    test = np.zeros((n_users, n_items), dtype=int)
    for u in range(n_users):
        cols = np.flatnonzero(observed[u])
        rng.shuffle(cols)
        n_test = max(1, int(round(len(cols) * test_fraction)))
        if n_test >= len(cols):
            n_test = len(cols) - 1
        test_cols, train_cols = cols[:n_test], cols[n_test:]
        train[u, train_cols] = ratings[u, train_cols]
        test[u, test_cols] = ratings[u, test_cols]

    return RatingsDataset(
        name="movielens-like",
        train_ratings=train,
        test_ratings=test,
        rating_levels=rating_levels,
    )
