"""Model-quality metrics for RBMs that do not require partition functions."""

from __future__ import annotations

import numpy as np

from repro.rbm.rbm import BernoulliRBM, reconstruction_error
from repro.utils.numerics import log_sigmoid
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_array

__all__ = ["reconstruction_error", "free_energy_gap", "pseudo_log_likelihood"]


def free_energy_gap(rbm: BernoulliRBM, train: np.ndarray, held_out: np.ndarray) -> float:
    """Difference between held-out and training mean free energies.

    A standard overfitting monitor (Hinton's practical guide): the gap grows
    as the model starts memorizing the training set.
    """
    train = check_array(train, name="train", ndim=2)
    held_out = check_array(held_out, name="held_out", ndim=2)
    return float(np.mean(rbm.free_energy(held_out)) - np.mean(rbm.free_energy(train)))


def pseudo_log_likelihood(
    rbm: BernoulliRBM, data: np.ndarray, *, rng: SeedLike = None
) -> float:
    """Stochastic pseudo-log-likelihood proxy.

    For each row, one visible unit is flipped and the log probability of the
    observed bit given the rest is scored via the free-energy difference:
    ``n_visible * log sigmoid(F(v_flipped) - F(v))``.  This is the standard
    cheap proxy for the true log likelihood when log Z is unavailable.
    """
    data = check_array(data, name="data", ndim=2)
    if data.shape[1] != rbm.n_visible:
        raise ValidationError(
            f"data has {data.shape[1]} features; RBM has {rbm.n_visible} visible units"
        )
    gen = as_rng(rng)
    v = (data > 0.5).astype(np.float64)
    flip_idx = gen.integers(0, rbm.n_visible, size=v.shape[0])
    v_flipped = v.copy()
    rows = np.arange(v.shape[0])
    v_flipped[rows, flip_idx] = 1.0 - v_flipped[rows, flip_idx]
    gap = rbm.free_energy(v_flipped) - rbm.free_energy(v)
    return float(rbm.n_visible * np.mean(log_sigmoid(gap)))
