"""Minibatching helper.

:func:`minibatches` is sparse-aware: scipy CSR inputs are row-sliced
without densification, so feeding its batches to ``Trainer.partial_fit``
keeps sparse visibles sparse end to end.
"""

from __future__ import annotations

from typing import Iterator, Optional

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
