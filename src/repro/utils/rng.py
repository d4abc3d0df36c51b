"""Random-number management.

Every stochastic component in the library (Gibbs samplers, annealing
schedules, analog noise models, dataset generators) accepts either an
integer seed, ``None`` or an existing :class:`numpy.random.Generator`.
The :func:`as_rng` helper normalizes all three into a ``Generator`` so
call-sites never have to special-case.

``spawn_rngs`` produces statistically independent child generators from a
parent, which is how multi-particle (PCD) chains and per-node analog noise
sources obtain decorrelated streams without manual seed bookkeeping.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators derived from ``seed``.

    The child streams are derived through ``SeedSequence.spawn`` so they are
    independent of each other and of the parent stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if seq is None:  # pragma: no cover - defensive, numpy always sets it
            seq = np.random.SeedSequence()
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]

