"""Shared utilities: random-number management, numerics, batching, validation.

These helpers are deliberately small and dependency-free (NumPy only) so
that every other subpackage — datasets, RBM training, the Ising substrate
simulator and the analog circuit models — can rely on a single, consistent
notion of seeding and a single set of numerically-stable primitives.
"""

from repro.utils.rng import spawn_rngs, as_rng
from repro.utils.numerics import (
    sigmoid,
    logsumexp,
    softmax,
    log1pexp,
    bernoulli_sample,
    is_sparse,
    safe_sparse_dot,
    sparse_mean,
    sparse_mean_squared_error,
)
from repro.utils.batching import minibatches
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
    ValidationError,
)

__all__ = [
    "spawn_rngs",
    "as_rng",
    "sigmoid",
    "logsumexp",
    "softmax",
    "log1pexp",
    "bernoulli_sample",
    "is_sparse",
    "safe_sparse_dot",
    "sparse_mean",
    "sparse_mean_squared_error",
    "minibatches",
    "ShardedExecutor",
    "check_workers",
    "shard_slices",
    "check_array",
    "check_data_matrix",
    "check_binary",
    "check_probability",
    "check_positive",
    "ValidationError",
]
