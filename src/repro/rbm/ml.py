"""Exact maximum-likelihood training for small RBMs.

Appendix A of the paper compares the bias of CD-k and the BGF training rule
against true maximum-likelihood (ML) learning on a 12×4 RBM, where the
model expectation ⟨v_i h_j⟩_model (Eq. 10) can be computed exactly by
enumeration.  This trainer implements that exact gradient ascent.
"""

from __future__ import annotations

import numpy as np

from repro.rbm.partition import MAX_ENUMERATION_BITS, enumerate_states
from repro.rbm.rbm import BernoulliRBM, TrainingHistory, run_epochs
from repro.utils.numerics import is_sparse, logsumexp, safe_sparse_dot, sparse_mean
from repro.utils.validation import ValidationError, check_positive


class MaximumLikelihoodTrainer:
    """Exact gradient-ascent trainer (tractable only for tiny RBMs).

    Parameters
    ----------
    learning_rate:
        Gradient step size.
    """

    def __init__(self, learning_rate: float = 0.1):
        self.learning_rate = check_positive(learning_rate, name="learning_rate")

    @staticmethod
    def model_expectations(rbm: BernoulliRBM) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact ⟨v_i h_j⟩, ⟨v_i⟩ and ⟨h_j⟩ under the model distribution.

        Enumerates visible configurations (2**n_visible of them); the hidden
        layer is marginalized analytically via P(h | v).
        """
        if rbm.n_visible > MAX_ENUMERATION_BITS:
            raise ValidationError(
                "model_expectations requires n_visible <= "
                f"{MAX_ENUMERATION_BITS}, got {rbm.n_visible}"
            )
        v_states = enumerate_states(rbm.n_visible)
        log_unnorm = -rbm.free_energy(v_states)
        log_z = logsumexp(log_unnorm)
        p_v = np.exp(log_unnorm - log_z)  # (2**n_visible,)
        h_probs = rbm.hidden_activation_probability(v_states)  # (2**nv, n_hidden)

        vh = (v_states * p_v[:, None]).T @ h_probs  # (n_visible, n_hidden)
        v_mean = p_v @ v_states
        h_mean = p_v @ h_probs
        return vh, v_mean, h_mean

    @staticmethod
    def data_expectations(rbm: BernoulliRBM, data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact ⟨v_i h_j⟩_data, ⟨v_i⟩_data, ⟨h_j⟩_data (Eq. 9).

        ``data`` may be dense or scipy-sparse CSR; the sparse accumulation
        matches the dense one at float tolerance.
        """
        if not is_sparse(data):
            data = np.atleast_2d(np.asarray(data, dtype=float))
        h_probs = rbm.hidden_activation_probability(data)
        n = data.shape[0]
        vh = safe_sparse_dot(data.T, h_probs) / n
        return vh, sparse_mean(data), np.mean(h_probs, axis=0)

    def train(
        self, rbm: BernoulliRBM, data: np.ndarray, *, epochs: int = 1000
    ) -> TrainingHistory:
        """Exact gradient ascent on the data log likelihood: one full-batch
        step per epoch (the paper runs 1000)."""

        def one_step(data) -> None:
            # The data-side hidden expectations depend on the weights, so
            # they are recomputed before every step.
            data_vh, data_v, data_h = self.data_expectations(rbm, data)
            model_vh, model_v, model_h = self.model_expectations(rbm)
            rbm.weights += self.learning_rate * (data_vh - model_vh)
            rbm.visible_bias += self.learning_rate * (data_v - model_v)
            rbm.hidden_bias += self.learning_rate * (data_h - model_h)

        return run_epochs(rbm, data, epochs, one_step)
