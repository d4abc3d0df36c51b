"""Exact model and empirical distributions by enumeration.

These routines are only tractable for small models (the Appendix-A bias
study uses 12 visible × 4 hidden units), but they are exact, which makes
them the ground truth of the Figure-11 KL-divergence bias experiment and
the exact maximum-likelihood trainer (``repro.rbm.ml``).  The hidden-layer
sum inside the free energy is analytic, so enumerating the visible
configurations costs ``2**n_visible`` free-energy evaluations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.numerics import logsumexp
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.rbm.rbm import BernoulliRBM

#: Enumeration guard: 2**24 states is ~16M free-energy evaluations, beyond
#: which exact computation is considered intractable for this library.
MAX_ENUMERATION_BITS = 24


def enumerate_states(n_bits: int) -> np.ndarray:
    """Return all 2**n_bits binary vectors as an array of shape (2**n, n)."""
    if n_bits <= 0:
        raise ValidationError(f"n_bits must be positive, got {n_bits}")
    if n_bits > MAX_ENUMERATION_BITS:
        raise ValidationError(
            f"enumerating {n_bits} bits ({2**n_bits} states) is intractable; "
            f"limit is {MAX_ENUMERATION_BITS} bits"
        )
    count = 1 << n_bits
    states = ((np.arange(count)[:, None] >> np.arange(n_bits)[None, :]) & 1).astype(np.float64)
    return states


def exact_visible_distribution(rbm: "BernoulliRBM") -> np.ndarray:
    """Exact marginal P(v) over all visible configurations.

    Returns a vector of length ``2**n_visible`` indexed by the integer whose
    bit ``i`` is visible unit ``i`` (matching :func:`enumerate_states`).
    """
    states = enumerate_states(rbm.n_visible)
    log_unnorm = -rbm.free_energy(states)
    log_z = logsumexp(log_unnorm)
    return np.exp(log_unnorm - log_z)


def empirical_visible_distribution(data: np.ndarray, n_visible: int) -> np.ndarray:
    """Empirical distribution of binary visible vectors in ``data``.

    Used as the "ground truth" target distribution in the Figure-11 bias
    study: each training set of images defines an empirical distribution
    which the learned models are compared against via KL divergence.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != n_visible:
        raise ValidationError("data width does not match n_visible")
    if n_visible > MAX_ENUMERATION_BITS:
        raise ValidationError("empirical distribution enumeration is intractable")
    weights = (1 << np.arange(n_visible)).astype(np.int64)
    indices = (data.astype(np.int64) @ weights).astype(np.int64)
    counts = np.bincount(indices, minlength=1 << n_visible).astype(np.float64)
    return counts / counts.sum()
