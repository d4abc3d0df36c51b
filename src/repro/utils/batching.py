"""Minibatching and dataset-splitting helpers.

:func:`minibatches` is sparse-aware: scipy CSR inputs are row-sliced
without densification, so feeding its batches to ``Trainer.partial_fit``
keeps sparse visibles sparse end to end.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.numerics import is_sparse
from repro.utils.rng import SeedLike, as_rng


def _as_rows(data):
    """Coerce to a row-indexable matrix, leaving sparse inputs sparse."""
    if is_sparse(data):
        return data.tocsr()
    return np.asarray(data)


def minibatches(
    data: np.ndarray,
    batch_size: int,
    *,
    labels: Optional[np.ndarray] = None,
    shuffle: bool = False,
    rng: SeedLike = None,
    drop_last: bool = False,
) -> Iterator:
    """Yield minibatches of ``data`` (and optionally aligned ``labels``).

    Parameters
    ----------
    data:
        Array of shape ``(n_samples, ...)``.
    batch_size:
        Number of rows per batch; must be positive.
    labels:
        Optional aligned label array; when given, ``(batch, label_batch)``
        tuples are yielded instead of bare batches.
    shuffle:
        Shuffle the row order before batching.
    rng:
        Seed or generator used when ``shuffle`` is true.
    drop_last:
        Drop the final, smaller batch when the sample count is not a
        multiple of ``batch_size``.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    data = _as_rows(data)
    n = data.shape[0]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ValueError(
                f"labels length {labels.shape[0]} does not match data length {n}"
            )
    indices = np.arange(n)
    if shuffle:
        as_rng(rng).shuffle(indices)
    for start in range(0, n, batch_size):
        idx = indices[start : start + batch_size]
        if drop_last and idx.shape[0] < batch_size:
            break
        if labels is None:
            yield data[idx]
        else:
            yield data[idx], labels[idx]


def shuffle_arrays(*arrays: np.ndarray, rng: SeedLike = None) -> Tuple[np.ndarray, ...]:
    """Shuffle several arrays with the same permutation along axis 0."""
    if not arrays:
        raise ValueError("shuffle_arrays requires at least one array")
    arrays = tuple(np.asarray(a) for a in arrays)
    n = arrays[0].shape[0]
    for a in arrays[1:]:
        if a.shape[0] != n:
            raise ValueError("all arrays must share the first dimension")
    perm = as_rng(rng).permutation(n)
    return tuple(a[perm] for a in arrays)


def train_test_split(
    data: np.ndarray,
    labels: Optional[np.ndarray] = None,
    *,
    test_fraction: float = 0.2,
    rng: SeedLike = None,
):
    """Split rows into train/test partitions.

    Returns ``(train, test)`` or ``(train_x, test_x, train_y, test_y)`` when
    labels are provided, mirroring the common sklearn ordering closely
    enough to be unambiguous in this codebase.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    data = np.asarray(data)
    n = data.shape[0]
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError("test_fraction leaves no training samples")
    perm = as_rng(rng).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    if labels is None:
        return data[train_idx], data[test_idx]
    labels = np.asarray(labels)
    if labels.shape[0] != n:
        raise ValueError("labels must align with data rows")
    return data[train_idx], data[test_idx], labels[train_idx], labels[test_idx]
