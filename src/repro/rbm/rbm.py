"""Bernoulli Restricted Boltzmann Machine and CD-k training (Algorithm 1).

The model follows the paper's Eq. 3 energy

    E(v, h) = - v' W h - b_v . v - b_h . h

with binary visible and hidden units, the conditional distributions of
Eqs. 4/5, and the contrastive-divergence training loop of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.config.specs import TrainerSpec, check_spec
from repro.utils.batching import minibatches
from repro.utils.numerics import (
    bernoulli_sample,
    is_sparse,
    log1pexp,
    safe_sparse_dot,
    sigmoid_kernel,
    sparse_mean,
    sparse_mean_squared_error,
)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import (
    ValidationError,
    check_array,
    check_data_matrix,
    check_int,
    check_positive,
)

#: Clip of the empirical pixel means before their log odds, so an all-0 or
#: all-1 pixel gets a finite bias.
LOG_ODDS_SMOOTHING = 0.05


def smoothed_log_odds(data: np.ndarray) -> np.ndarray:
    """Per-column log odds ``log(p / (1 - p))`` of the mean ``p`` of the
    2-D float ``data``, with ``p`` clipped to :data:`LOG_ODDS_SMOOTHING`
    from either end."""
    p = np.clip(np.mean(data, axis=0), LOG_ODDS_SMOOTHING, 1.0 - LOG_ODDS_SMOOTHING)
    return np.log(p / (1.0 - p))


def conditional_probability(state, coupling: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Trusted Eq. 4/5 conditional ``sigmoid(state @ coupling + bias)``.

    ``state`` is a 2-D float array (or, for the hidden units, a CSR
    visible batch) and ``coupling`` the weights (``W`` for the hidden
    units, ``W.T`` for the visible ones); nothing is coerced or checked.
    The field is one buffer: the bias is added in place and the logistic's
    work buffer reuses it, so a call allocates the field and the result
    only.
    """
    field = safe_sparse_dot(state, coupling)
    field += bias
    return sigmoid_kernel(field, out=field)


class BernoulliRBM:
    """Restricted Boltzmann Machine with Bernoulli visible and hidden units.

    Parameters
    ----------
    n_visible, n_hidden:
        Layer sizes (``m`` and ``n`` in the paper).
    weight_scale:
        Standard deviation of the random normal weight initialization
        (biases start at zero, matching Algorithm 1 lines 1-3).
    rng:
        Seed or generator used for initialization and for sampling methods
        that are not given an explicit generator.
    """

    def __init__(
        self,
        n_visible: int,
        n_hidden: int,
        *,
        weight_scale: float = 0.01,
        rng: SeedLike = None,
    ):
        self.n_visible = check_int(n_visible, "n_visible", 1)
        self.n_hidden = check_int(n_hidden, "n_hidden", 1)
        check_positive(weight_scale, name="weight_scale")
        self._rng = as_rng(rng)
        self.weights = self._rng.normal(
            0.0, weight_scale, size=(self.n_visible, self.n_hidden)
        )
        self.visible_bias = np.zeros(self.n_visible, dtype=np.float64)
        self.hidden_bias = np.zeros(self.n_hidden, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def copy(self) -> "BernoulliRBM":
        """Return a deep copy (sharing no parameter arrays, but the same
        generator); nothing is drawn."""
        clone = object.__new__(BernoulliRBM)
        clone.n_visible = self.n_visible
        clone.n_hidden = self.n_hidden
        clone._rng = self._rng
        clone.weights = self.weights.copy()
        clone.visible_bias = self.visible_bias.copy()
        clone.hidden_bias = self.hidden_bias.copy()
        return clone

    def set_parameters(
        self,
        weights: np.ndarray,
        visible_bias: np.ndarray,
        hidden_bias: np.ndarray,
    ) -> None:
        """Overwrite all parameters (validating shapes)."""
        self.weights = check_array(
            weights, name="weights", shape=(self.n_visible, self.n_hidden)
        )
        self.visible_bias = check_array(
            visible_bias, name="visible_bias", shape=(self.n_visible,)
        )
        self.hidden_bias = check_array(
            hidden_bias, name="hidden_bias", shape=(self.n_hidden,)
        )

    def init_visible_bias_from_data(self, data: np.ndarray) -> None:
        """Set the visible biases to the data's smoothed per-pixel log odds
        (:func:`smoothed_log_odds`).

        Hinton's practical-guide initialization: with ``b_v_i = log(p_i /
        (1 - p_i))`` the model reproduces the marginal pixel statistics
        before any weight has been learned, so the hidden units do not waste
        capacity (or saturate) encoding global brightness.
        """
        data = check_array(data, name="data", ndim=2)
        if data.shape[1] != self.n_visible:
            raise ValidationError(
                f"data has {data.shape[1]} features; RBM has {self.n_visible} visible units"
            )
        self.visible_bias = smoothed_log_odds(data)

    # ------------------------------------------------------------------ #
    # Energies and probabilities
    # ------------------------------------------------------------------ #
    def free_energy(self, v: np.ndarray) -> np.ndarray:
        """Visible free energy F(v) = -log sum_h exp(-E(v, h)).

        For Bernoulli hidden units this has the closed form
        ``-b_v.v - sum_j softplus(b_h_j + (v W)_j)``.
        """
        if not is_sparse(v):
            v = np.atleast_2d(np.asarray(v, dtype=float))
        hidden_input = safe_sparse_dot(v, self.weights) + self.hidden_bias
        return -safe_sparse_dot(v, self.visible_bias) - np.sum(
            log1pexp(hidden_input), axis=1
        )

    def hidden_activation_probability(self, v: np.ndarray) -> np.ndarray:
        """P(h_j = 1 | v) for each hidden unit (Eq. 4).

        ``v`` may be a scipy-sparse CSR batch: the matmul runs sparse-dense
        and the returned probability array is dense, so everything
        downstream of this call is unchanged.
        """
        if not is_sparse(v):
            v = np.atleast_2d(np.asarray(v, dtype=float))
        return conditional_probability(v, self.weights, self.hidden_bias)

    def visible_activation_probability(self, h: np.ndarray) -> np.ndarray:
        """P(v_i = 1 | h) for each visible unit (Eq. 5)."""
        h = np.atleast_2d(np.asarray(h, dtype=float))
        return conditional_probability(h, self.weights.T, self.visible_bias)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_hidden(self, v: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Sample h ~ P(h | v)."""
        gen = as_rng(rng) if rng is not None else self._rng
        return bernoulli_sample(self.hidden_activation_probability(v), gen)

    def sample_visible(self, h: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Sample v ~ P(v | h)."""
        gen = as_rng(rng) if rng is not None else self._rng
        return bernoulli_sample(self.visible_activation_probability(h), gen)

    def gibbs_step(self, v: np.ndarray, rng: SeedLike = None) -> tuple[np.ndarray, np.ndarray]:
        """One full Gibbs step v -> h -> v'. Returns ``(v_new, h)``."""
        gen = as_rng(rng) if rng is not None else self._rng
        h = self.sample_hidden(v, gen)
        v_new = self.sample_visible(h, gen)
        return v_new, h

    def reconstruct(self, v: np.ndarray) -> np.ndarray:
        """Mean-field reconstruction: P(v' | E[h | v])."""
        hidden_probs = self.hidden_activation_probability(v)
        return self.visible_activation_probability(hidden_probs)

    def transform(self, v: np.ndarray) -> np.ndarray:
        """Deterministic feature mapping used when stacking / classifying."""
        return self.hidden_activation_probability(v)

    def score_samples(self, v: np.ndarray) -> np.ndarray:
        """Unnormalized per-row log-probability score ``-F(v)``.

        The frozen scoring entry point (sklearn's ``score_samples``
        convention, up to the intractable log-partition constant):
        deterministic, stateless w.r.t. training data, and defined for
        dense or CSR visible batches — the natural quantity a serving
        artifact exposes.  For a normalized log-probability see
        :func:`repro.rbm.ais.average_log_probability`.
        """
        return -self.free_energy(v)


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics recorded by :func:`run_epochs`."""

    epochs: List[int] = field(default_factory=list)
    reconstruction_error: List[float] = field(default_factory=list)

    def record(self, epoch: int, recon_error: float) -> None:
        self.epochs.append(int(epoch))
        self.reconstruction_error.append(float(recon_error))

    def __len__(self) -> int:
        return len(self.epochs)


def reconstruction_error(rbm: BernoulliRBM, data) -> float:
    """Mean squared error of the mean-field reconstruction of ``data``.

    ``data`` is a 2-D dense or scipy-sparse matrix with ``rbm.n_visible``
    columns; the sparse operand is never densified (see
    :func:`~repro.utils.numerics.sparse_mean_squared_error`, whose dense
    branch is ``np.mean((data - recon) ** 2)``).
    """
    data = check_data_matrix(data, name="data", n_features=rbm.n_visible)
    return float(sparse_mean_squared_error(data, rbm.reconstruct(data)))


def check_training_rows(data, n_visible: int, *, name: str = "data"):
    """``data`` as a checked 2-D dense or CSR matrix of finite values with
    ``n_visible`` columns and at least one row (an empty pass would divide
    by zero and record ``nan``)."""
    data = check_data_matrix(data, name=name, n_features=n_visible)
    if data.shape[0] == 0:
        raise ValidationError(f"{name} must have at least one row, got 0")
    return data


def run_epochs(
    rbm: BernoulliRBM,
    data,
    epochs: int,
    one_pass: Callable,
    *,
    setup: Optional[Callable[[], None]] = None,
    callback: Optional[Callable[[int, BernoulliRBM], None]] = None,
) -> TrainingHistory:
    """The epoch loop behind every trainer's ``train``.

    The call is checked first (:func:`check_training_rows`, and ``epochs``
    an int >= 1), so a bad call raises a :class:`ValidationError` before
    anything is drawn or changed.  Then ``setup()`` runs the trainer's own
    entry work once, and each epoch calls ``one_pass(data)`` with the
    checked matrix, records the epoch's :func:`reconstruction_error` and
    calls ``callback(epoch, rbm)``.
    """
    data = check_training_rows(data, rbm.n_visible)
    epochs = check_int(epochs, "epochs", 1)
    if setup is not None:
        setup()
    history = TrainingHistory()
    for epoch in range(epochs):
        one_pass(data)
        history.record(epoch, reconstruction_error(rbm, data))
        if callback is not None:
            callback(epoch, rbm)
    return history


class CDTrainer:
    """Contrastive-divergence trainer implementing the paper's Algorithm 1.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.TrainerSpec` with
        ``kind="cd"``; see :meth:`~repro.config.TrainerSpec.cd`): the step
        size ``alpha`` (the paper trains its benchmarks with 0.1), the
        number of Gibbs steps ``cd_k`` and the minibatch size.
    rng:
        Generator for the Bernoulli draws and the per-epoch shuffle.
    callback:
        Optional ``callback(epoch, rbm)`` hook invoked after every epoch;
        used by the experiment drivers to record AIS log-probability
        trajectories (Figure 7).
    """

    def __init__(
        self,
        spec: TrainerSpec,
        *,
        rng: SeedLike = None,
        callback: Optional[Callable[[int, BernoulliRBM], None]] = None,
    ):
        check_spec(spec, TrainerSpec, "CDTrainer", kind="cd")
        self.spec = spec
        self.learning_rate = spec.learning_rate
        self.cd_k = spec.cd_k
        self.batch_size = spec.batch_size
        self._rng = as_rng(rng)
        self.callback = callback

    def _gradient(self, rbm: BernoulliRBM, v_pos: np.ndarray):
        """Compute the CD-k gradient estimate for one minibatch.

        Follows Algorithm 1 lines 9-15: the positive phase clamps the data
        and samples hidden units once; the negative phase runs ``cd_k`` full
        Gibbs steps starting from those hidden samples.  ``v_pos`` is a
        2-D float64 (or CSR) batch of rows :func:`run_epochs` checked, so
        the chain runs the trusted :func:`conditional_probability` and
        :func:`~repro.utils.numerics.bernoulli_sample` directly.
        """
        rng = self._rng
        weights, weights_t = rbm.weights, rbm.weights.T
        h_pos_prob = conditional_probability(v_pos, weights, rbm.hidden_bias)
        h_neg = bernoulli_sample(h_pos_prob, rng)

        v_neg = v_pos
        for _ in range(self.cd_k):
            v_neg_prob = conditional_probability(h_neg, weights_t, rbm.visible_bias)
            v_neg = bernoulli_sample(v_neg_prob, rng)
            h_neg_prob = conditional_probability(v_neg, weights, rbm.hidden_bias)
            h_neg = bernoulli_sample(h_neg_prob, rng)

        batch = v_pos.shape[0]
        # Use probabilities for the positive hidden statistics and the final
        # negative hidden statistics (Hinton's practical guide); sampled
        # states are used for the chain itself, as in Algorithm 1.  The data
        # term dispatches on the batch type: CSR visibles accumulate
        # v_pos^T . h_pos as a sparse-dense product (the negative statistics
        # are dense Gibbs samples either way).
        grad_w = (safe_sparse_dot(v_pos.T, h_pos_prob) - v_neg.T @ h_neg_prob) / batch
        if is_sparse(v_pos):
            grad_bv = sparse_mean(v_pos) - np.add.reduce(v_neg, axis=0) / batch
        else:
            grad_bv = np.add.reduce(v_pos - v_neg, axis=0) / batch
        grad_bh = np.add.reduce(h_pos_prob - h_neg_prob, axis=0) / batch
        return grad_w, grad_bv, grad_bh, v_neg

    def train(
        self,
        rbm: BernoulliRBM,
        data: np.ndarray,
        *,
        epochs: int = 10,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Train ``rbm`` in place on ``data`` (rows in [0, 1]).

        Returns a :class:`TrainingHistory` with per-epoch reconstruction
        error (mean squared error of the mean-field reconstruction).

        ``data`` may be dense or scipy-sparse CSR; sparse batches run the
        sparse-dense data-term kernels and agree with the dense expansion at
        float tolerance under the same seed (the Bernoulli draws consume the
        identical uniform stream either way).
        """

        def one_pass(data) -> None:
            for batch in minibatches(
                data, self.batch_size, shuffle=shuffle, rng=self._rng
            ):
                grad_w, grad_bv, grad_bh, _ = self._gradient(rbm, batch)
                rbm.weights += self.learning_rate * grad_w
                rbm.visible_bias += self.learning_rate * grad_bv
                rbm.hidden_bias += self.learning_rate * grad_bh

        return run_epochs(rbm, data, epochs, one_pass, callback=self.callback)
