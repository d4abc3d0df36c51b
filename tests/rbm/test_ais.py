"""Tests for annealed importance sampling (the paper's log-probability estimator)."""

import numpy as np
import pytest

from helpers import FLOAT64_ASSOC_ATOL
from helpers.reference import ais_sweep, exact_log_likelihood, exact_log_partition
from repro.config import EstimatorSpec, TrainerSpec
from repro.rbm import (
    AISEstimator,
    BernoulliRBM,
    CDTrainer,
    average_log_probability,
    estimate_log_partition,
)
from repro.rbm.rbm import smoothed_log_odds
from repro.utils.numerics import log1pexp, log1pexp_diff
from repro.utils.validation import ValidationError

#: float64 tolerance for the vectorized-vs-loop regression: the two paths
#: draw identical samples and differ only in accumulation association /
#: the fused-kernel factoring (see tests/helpers/tolerances.py).
FLOAT64_ATOL = FLOAT64_ASSOC_ATOL


@pytest.fixture
def trained_tiny_rbm(tiny_binary_data):
    """A 16x6 RBM trained briefly so its distribution is non-trivial."""
    rbm = BernoulliRBM(16, 6, rng=0)
    CDTrainer(
        spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1
    ).train(rbm, tiny_binary_data, epochs=10)
    return rbm


class TestAISEstimatorConfiguration:
    def test_invalid_chains(self):
        with pytest.raises(ValidationError):
            AISEstimator(spec=EstimatorSpec(chains=0))

    def test_invalid_betas(self):
        with pytest.raises(ValidationError):
            AISEstimator(spec=EstimatorSpec(betas=1))

    def test_base_bias_shape_check(self):
        rbm = BernoulliRBM(8, 4, rng=0)
        estimator = AISEstimator(
            spec=EstimatorSpec(chains=4, betas=10), base_visible_bias=np.zeros(5)
        )
        with pytest.raises(ValidationError):
            estimator.estimate_log_partition(rbm)


class TestAISAccuracy:
    def test_zero_weight_model_is_exact(self):
        """With zero weights AIS must recover the analytic partition function."""
        rbm = BernoulliRBM(10, 5, rng=0)
        rbm.set_parameters(np.zeros((10, 5)), np.zeros(10), np.zeros(5))
        result = AISEstimator(
            spec=EstimatorSpec(chains=20, betas=30), rng=0
        ).estimate_log_partition(rbm)
        assert result.log_partition == pytest.approx(15 * np.log(2.0), abs=1e-6)

    def test_matches_exact_partition_on_trained_model(self, trained_tiny_rbm):
        exact = exact_log_partition(trained_tiny_rbm)
        estimate = estimate_log_partition(
            trained_tiny_rbm, n_chains=100, n_betas=300, rng=0
        )
        assert estimate == pytest.approx(exact, abs=0.5)

    def test_data_based_base_rate_reduces_error(self, trained_tiny_rbm, tiny_binary_data):
        exact = exact_log_partition(trained_tiny_rbm)
        plain = estimate_log_partition(trained_tiny_rbm, n_chains=40, n_betas=100, rng=0)
        informed = estimate_log_partition(
            trained_tiny_rbm, n_chains=40, n_betas=100, data=tiny_binary_data, rng=0
        )
        assert abs(informed - exact) <= abs(plain - exact) + 0.3

    def test_more_betas_reduce_error(self, trained_tiny_rbm):
        exact = exact_log_partition(trained_tiny_rbm)
        coarse = estimate_log_partition(trained_tiny_rbm, n_chains=50, n_betas=20, rng=3)
        fine = estimate_log_partition(trained_tiny_rbm, n_chains=50, n_betas=400, rng=3)
        assert abs(fine - exact) <= abs(coarse - exact) + 0.2

    def test_result_metadata(self, trained_tiny_rbm):
        result = AISEstimator(
            spec=EstimatorSpec(chains=16, betas=50), rng=1
        ).estimate_log_partition(trained_tiny_rbm)
        assert result.log_weights.shape == (16,)
        assert np.isfinite(result.log_partition_base)


class TestVectorizedSweepRegression:
    """The vectorized beta sweep against the oracle's per-beta loop.

    The sweep reuses one hidden-input matmul per temperature for the
    importance-weight update and the Gibbs transition; the Bernoulli draws
    are bit-identical between the two (same shapes, same stream order), so
    the log-Z estimates must agree to float64 accumulation tolerance on a
    fixed seed — and both must agree with the exact log Z on an enumerable
    model.
    """

    def _pair(self, rbm, monkeypatch, *, n_chains=40, n_betas=120, seed=5, base=None):
        def estimate():
            return AISEstimator(
                spec=EstimatorSpec(chains=n_chains, betas=n_betas),
                rng=seed,
                base_visible_bias=base,
            ).estimate_log_partition(rbm)

        fast = estimate()
        with monkeypatch.context() as patch:
            patch.setattr("repro.rbm.ais._ais_sweep", ais_sweep)
            loop = estimate()
        return fast, loop

    def test_matches_loop_on_trained_model(self, trained_tiny_rbm, monkeypatch):
        fast, loop = self._pair(trained_tiny_rbm, monkeypatch)
        np.testing.assert_allclose(
            fast.log_weights, loop.log_weights, atol=FLOAT64_ATOL
        )
        assert fast.log_partition == pytest.approx(
            loop.log_partition, abs=FLOAT64_ATOL
        )

    def test_matches_loop_with_data_base_rate(
        self, trained_tiny_rbm, tiny_binary_data, monkeypatch
    ):
        base = smoothed_log_odds(tiny_binary_data)
        fast, loop = self._pair(trained_tiny_rbm, monkeypatch, base=base, seed=9)
        np.testing.assert_allclose(
            fast.log_weights, loop.log_weights, atol=FLOAT64_ATOL
        )

    def test_matches_exact_on_enumerable_rbm(self, tiny_rbm, monkeypatch):
        """Both sweeps recover the exact log Z of a fully-enumerable 6x3 RBM."""
        exact = exact_log_partition(tiny_rbm)
        fast, loop = self._pair(tiny_rbm, monkeypatch, n_chains=100, n_betas=300, seed=0)
        assert fast.log_partition == pytest.approx(exact, abs=0.3)
        assert loop.log_partition == pytest.approx(exact, abs=0.3)


class TestFusedLog1pexpDiffKernel:
    """The fused softplus-difference kernel behind the fast AIS sweep.

    Reference is the two-softplus form ``log1pexp(hi*x) - log1pexp(lo*x)``
    built from the already-pinned :func:`log1pexp`; the fused kernel factors
    the shared ``max(x, 0)`` term, so agreement is at float64 reassociation
    tolerance, including the extreme-beta and saturated-field corners the
    AIS schedule actually visits.
    """

    def _reference(self, x, hi, lo):
        return log1pexp(hi * x) - log1pexp(lo * x)

    def test_matches_loop_reference_on_random_fields(self):
        x = np.random.default_rng(0).normal(0.0, 5.0, (64, 33))
        for hi, lo in [(1.0, 0.99), (0.5, 0.25), (0.01, 0.0), (1.0, 0.0)]:
            np.testing.assert_allclose(
                log1pexp_diff(x, hi, lo),
                self._reference(x, hi, lo),
                atol=FLOAT64_ATOL,
                rtol=FLOAT64_ATOL,
            )

    def test_adjacent_ais_betas(self):
        """The actual schedule geometry: thousands of near-equal betas."""
        x = np.random.default_rng(1).normal(0.0, 3.0, 200)
        betas = np.linspace(0.0, 1.0, 500).tolist()
        for lo, hi in zip(betas[:-1], betas[1:]):
            np.testing.assert_allclose(
                log1pexp_diff(x, hi, lo),
                self._reference(x, hi, lo),
                atol=FLOAT64_ATOL,
            )

    def test_extreme_fields_stay_finite_and_exact(self):
        """Saturated fields: large positive -> (hi-lo)*x exactly (both
        log1p terms vanish), large negative -> 0; never inf/nan."""
        x = np.array([-1e6, -745.0, -100.0, 0.0, 100.0, 745.0, 1e6])
        out = log1pexp_diff(x, 0.8, 0.3)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[x >= 100.0], 0.5 * x[x >= 100.0], rtol=1e-12)
        # Deep negative saturation decays through exp(lo*x): ~1e-97 at -745,
        # exactly 0.0 once exp underflows entirely.
        np.testing.assert_allclose(out[x <= -745.0], 0.0, atol=1e-30)
        np.testing.assert_allclose(
            out[x == -100.0], np.exp(-80.0) - np.exp(-30.0), rtol=1e-9
        )

    def test_equal_betas_give_zero(self):
        x = np.random.default_rng(2).normal(0.0, 10.0, 50)
        np.testing.assert_array_equal(log1pexp_diff(x, 0.4, 0.4), np.zeros(50))

    def test_invalid_beta_order_rejected(self):
        x = np.zeros(3)
        with pytest.raises(ValueError):
            log1pexp_diff(x, 0.2, 0.5)
        with pytest.raises(ValueError):
            log1pexp_diff(x, 0.5, -0.1)

    def test_dtype_preserving(self):
        x32 = np.random.default_rng(3).normal(0.0, 2.0, 40).astype(np.float32)
        out = log1pexp_diff(x32, 0.7, 0.6)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, self._reference(x32.astype(float), 0.7, 0.6), atol=1e-5
        )


class TestAverageLogProbability:
    def test_matches_exact_log_likelihood(self, trained_tiny_rbm, tiny_binary_data):
        exact = exact_log_likelihood(trained_tiny_rbm, tiny_binary_data)
        estimate = average_log_probability(
            trained_tiny_rbm, tiny_binary_data, n_chains=100, n_betas=300, rng=0
        )
        assert estimate == pytest.approx(exact, abs=0.5)

    def test_training_improves_metric(self, tiny_binary_data):
        """The Figure-7 trend: average log probability rises with training."""
        rbm = BernoulliRBM(16, 6, rng=0)
        before = average_log_probability(rbm, tiny_binary_data, n_chains=50, n_betas=150, rng=0)
        CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1
        ).train(rbm, tiny_binary_data, epochs=20)
        after = average_log_probability(rbm, tiny_binary_data, n_chains=50, n_betas=150, rng=0)
        assert after > before + 0.5

    def test_is_mean_negative_free_energy_minus_log_partition(
        self, trained_tiny_rbm, tiny_binary_data
    ):
        """``log P(v) = -F(v) - log Z`` with ``log Z`` the data-based AIS
        estimate under the same seed."""
        log_z = estimate_log_partition(
            trained_tiny_rbm, n_chains=20, n_betas=50, data=tiny_binary_data, rng=3
        )
        value = average_log_probability(
            trained_tiny_rbm, tiny_binary_data, n_chains=20, n_betas=50, rng=3
        )
        expected = np.mean(-trained_tiny_rbm.free_energy(tiny_binary_data)) - log_z
        assert value == pytest.approx(expected, abs=1e-12)

    def test_data_width_check(self, trained_tiny_rbm):
        with pytest.raises(ValidationError):
            average_log_probability(trained_tiny_rbm, np.zeros((4, 10)))
