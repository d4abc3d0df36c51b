"""Annealed Importance Sampling (AIS) for RBM partition functions.

The paper quantifies training quality with the *average log probability* of
the training data, estimated with AIS exactly as in Salakhutdinov & Murray
(2008) — the estimator behind Figures 7 and 8.  AIS interpolates between a
"base-rate" RBM with zero weights (whose partition function is analytic)
and the target RBM through a sequence of inverse temperatures ``beta``,
accumulating importance weights along Gibbs transitions at each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config.specs import ComputeSpec, EstimatorSpec, check_spec
from repro.rbm.rbm import BernoulliRBM, smoothed_log_odds
from repro.utils.numerics import (
    bernoulli_sample,
    fused_sigmoid_bernoulli,
    log1pexp,
    log1pexp_diff,
    logsumexp,
    sigmoid,
)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_array


def _ais_sweep(
    weights: np.ndarray,
    visible_bias: np.ndarray,
    hidden_bias: np.ndarray,
    base_bias: np.ndarray,
    betas: list,
    n_chains: int,
    rng: np.random.Generator,
    *,
    dtype: np.dtype,
) -> np.ndarray:
    """Run the full beta sweep for ``n_chains`` particles on ``rng``.

    The whole estimator as a function of plain arrays, so the per-beta
    oracle (``tests/helpers/reference.py``) can stand in for it.
    """
    # Initial samples from the base-rate model.
    v = bernoulli_sample(np.tile(sigmoid(base_bias), (n_chains, 1)), rng)
    log_w = np.zeros(n_chains, dtype=np.float64)
    # Vectorized sweep: one (chains x n_hidden) input matmul per
    # temperature, shared by the weight update at both adjacent betas
    # (through the fused softplus-difference kernel) and by the Gibbs
    # transition; the visible-bias gap against the base rate collapses to
    # a single hoisted vector.  On the float32 tier the parameters are
    # quantized once up front, the matmuls and draws run in single
    # precision, and log_w stays float64.
    tier32 = dtype == np.float32
    weights = np.asarray(weights, dtype=dtype)
    weights_t = weights.T
    hidden_bias = np.asarray(hidden_bias, dtype=dtype)
    visible_bias = np.asarray(visible_bias, dtype=dtype)
    base = np.asarray(base_bias, dtype=dtype)
    bias_gap = visible_bias - base
    if tier32:
        v = v.astype(dtype)
    for prev_beta, beta in zip(betas[:-1], betas[1:]):
        hidden_in = v @ weights + hidden_bias
        log_w += (beta - prev_beta) * (v @ bias_gap)
        log_w += np.sum(
            log1pexp_diff(hidden_in, beta, prev_beta),
            axis=1,
            dtype=np.float64,
        )
        if tier32:
            h = fused_sigmoid_bernoulli(
                beta * hidden_in,
                rng.random(hidden_in.shape, dtype=np.float32),
            )
            v_field = beta * (h @ weights_t + visible_bias)
            v_field += (1.0 - beta) * base
            v = fused_sigmoid_bernoulli(
                v_field, rng.random(v_field.shape, dtype=np.float32)
            )
        else:
            h = bernoulli_sample(sigmoid(beta * hidden_in), rng)
            v_field = beta * (h @ weights_t + visible_bias) + (1.0 - beta) * base
            v = bernoulli_sample(sigmoid(v_field), rng)
    return log_w


@dataclass
class AISResult:
    """Outcome of an AIS run.

    Attributes
    ----------
    log_partition:
        Estimated log Z of the target RBM.
    log_weights:
        Per-chain log importance weights (diagnostic; their spread indicates
        estimator reliability).
    log_partition_base:
        Analytic log Z of the base-rate model.
    """

    log_partition: float
    log_weights: np.ndarray
    log_partition_base: float


class AISEstimator:
    """Annealed-importance-sampling estimator of an RBM's log partition.

    Parameters
    ----------
    spec:
        Typed configuration (:class:`~repro.config.EstimatorSpec`).
        ``chains`` is the number of independent AIS chains (particles);
        ``betas`` the number of interpolation temperatures between 0 and 1
        inclusive (the original paper uses ~10,000-15,000; a few hundred
        suffice for CI-scale models).  The beta sweep is vectorized: per
        temperature one matmul of the hidden inputs of all chains serves
        the importance-weight update at both adjacent temperatures and the
        Gibbs transition, and the weight update goes through the fused
        :func:`~repro.utils.numerics.log1pexp_diff` kernel.  Its float64
        Bernoulli draws are bit-identical to the per-beta reference loop's
        (the test oracle in ``tests/helpers/reference.py``), so the two
        agree to float64 reassociation tolerance.
        ``compute.dtype="float32"`` runs the sweep in single precision while
        the log weights accumulate in float64, pinned statistically
        (``tests/property/test_precision_tiers.py``).
    rng:
        The estimator's generator (see the stream order below).
    base_visible_bias:
        Visible biases of the base-rate model.  Defaults to zeros (the
        uniform base-rate model); passing the data log-odds tightens the
        estimate, matching common practice.

    RNG stream order
    ----------------
    All chains draw from the estimator's single generator in fixed
    ``(n_chains, n)`` blocks: one visible block for the base-rate
    initialization, then per intermediate temperature one hidden block
    followed by one visible block.  Chains are decorrelated by their row
    position inside each block; no draw touches NumPy's global RNG, and the
    order is identical on both tiers.
    """

    def __init__(
        self,
        spec: EstimatorSpec,
        *,
        rng: SeedLike = None,
        base_visible_bias: Optional[np.ndarray] = None,
    ):
        check_spec(spec, EstimatorSpec, "AISEstimator")
        self.spec = spec
        self.n_chains = spec.chains
        self.n_betas = spec.betas
        self.base_visible_bias = (
            None if base_visible_bias is None else np.asarray(base_visible_bias, dtype=float)
        )
        self._rng = as_rng(rng)
        self.dtype = np.dtype(spec.compute.dtype)

    # ------------------------------------------------------------------ #
    def _base_bias(self, rbm: BernoulliRBM) -> np.ndarray:
        if self.base_visible_bias is None:
            return np.zeros(rbm.n_visible, dtype=np.float64)
        if self.base_visible_bias.shape != (rbm.n_visible,):
            raise ValidationError(
                "base_visible_bias shape does not match the RBM's visible layer"
            )
        return self.base_visible_bias

    def estimate_log_partition(self, rbm: BernoulliRBM) -> AISResult:
        """Run AIS and return the estimated log partition function."""
        base_bias = self._base_bias(rbm)
        # Python-float betas: a NumPy float64 scalar is not a "weak" scalar
        # under NEP 50, so `beta * float32_array` would silently promote the
        # whole float32 sweep back to float64; Python floats multiply
        # bit-identically on the float64 tier and preserve float32.
        betas = np.linspace(0.0, 1.0, self.n_betas).tolist()

        # log Z of the base-rate model: hidden units are free (2**n_hidden)
        # and visible units factorize over (1 + exp(base_bias)).
        log_z_base = rbm.n_hidden * np.log(2.0) + float(np.sum(log1pexp(base_bias)))

        log_w = _ais_sweep(
            rbm.weights, rbm.visible_bias, rbm.hidden_bias, base_bias, betas,
            self.n_chains, self._rng, dtype=self.dtype,
        )

        log_z = log_z_base + float(logsumexp(log_w) - np.log(self.n_chains))
        return AISResult(log_partition=log_z, log_weights=log_w, log_partition_base=log_z_base)


def estimate_log_partition(
    rbm: BernoulliRBM,
    *,
    n_chains: int = 64,
    n_betas: int = 200,
    data: Optional[np.ndarray] = None,
    rng: SeedLike = None,
    dtype: str = "float64",
) -> float:
    """Convenience wrapper returning just the estimated log Z.

    When ``data`` is given, the base-rate model's visible biases are set to
    the data log-odds, which substantially reduces estimator variance.
    """
    base_bias = (
        None
        if data is None
        else smoothed_log_odds(np.atleast_2d(np.asarray(data, dtype=float)))
    )
    estimator = AISEstimator(
        spec=EstimatorSpec(
            chains=n_chains,
            betas=n_betas,
            compute=ComputeSpec(dtype=dtype),
        ),
        base_visible_bias=base_bias,
        rng=rng,
    )
    return estimator.estimate_log_partition(rbm).log_partition


def average_log_probability(
    rbm: BernoulliRBM,
    data: np.ndarray,
    *,
    n_chains: int = 64,
    n_betas: int = 200,
    rng: SeedLike = None,
    dtype: str = "float64",
) -> float:
    """Average log probability of ``data`` rows, the paper's quality metric.

    ``log P(v) = -F(v) - log Z`` where ``log Z`` is AIS-estimated.
    ``dtype="float32"`` runs the AIS sweep in the single-precision tier; the
    free energies of the data always evaluate in float64.
    """
    data = check_array(data, name="data", ndim=2)
    if data.shape[1] != rbm.n_visible:
        raise ValidationError(
            f"data has {data.shape[1]} features; RBM has {rbm.n_visible} visible units"
        )
    log_partition = estimate_log_partition(
        rbm, n_chains=n_chains, n_betas=n_betas, data=data, rng=rng,
        dtype=dtype,
    )
    return float(np.mean(-rbm.free_energy(data)) - log_partition)
