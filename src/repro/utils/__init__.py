"""Shared utilities: random-number management, numerics, batching, validation.

These helpers are deliberately small and dependency-free (NumPy only) so
that every other subpackage — datasets, RBM training, the Ising substrate
simulator and the analog circuit models — can rely on a single, consistent
notion of seeding and a single set of numerically-stable primitives.
"""

from repro.utils.rng import RandomState, spawn_rngs, as_rng
from repro.utils.numerics import (
    sigmoid,
    log_sigmoid,
    logsumexp,
    softmax,
    log1pexp,
    softplus,
    bernoulli_sample,
    sign_to_binary,
    binary_to_sign,
    clip_norm,
    is_sparse,
    safe_sparse_dot,
    to_dense,
    sparse_mean,
    sparse_mean_squared_error,
    sparse_density,
)
from repro.utils.batching import (
    minibatches,
    shuffle_arrays,
    train_test_split,
)
from repro.utils.parallel import (
    ShardedExecutor,
    check_workers,
    shard_slices,
)
from repro.utils.validation import (
    check_array,
    check_data_matrix,
    check_binary,
    check_probability,
    check_positive,
    check_in_range,
    ValidationError,
)

__all__ = [
    "RandomState",
    "spawn_rngs",
    "as_rng",
    "sigmoid",
    "log_sigmoid",
    "logsumexp",
    "softmax",
    "log1pexp",
    "softplus",
    "bernoulli_sample",
    "sign_to_binary",
    "binary_to_sign",
    "clip_norm",
    "is_sparse",
    "safe_sparse_dot",
    "to_dense",
    "sparse_mean",
    "sparse_mean_squared_error",
    "sparse_density",
    "minibatches",
    "shuffle_arrays",
    "train_test_split",
    "ShardedExecutor",
    "check_workers",
    "shard_slices",
    "check_array",
    "check_data_matrix",
    "check_binary",
    "check_probability",
    "check_positive",
    "check_in_range",
    "ValidationError",
]
