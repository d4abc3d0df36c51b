"""Statistical pinning of the multicore layer (sharded settles, AIS pool).

Sharding a chain block across ``k`` workers moves every chain's draws onto
per-shard SeedSequence substreams, so — exactly like the multi-chain
layouts and the float32 tier before it (see ``test_chain_statistics.py``
and ``test_precision_tiers.py``) — the sharded kernels cannot be pinned by
seed against the serial reference.  They are pinned distributionally, with
the shared ``tests/helpers`` toolkit, for workers in {2, 4}:

* on the exactly-enumerable 6x4 RBM, the sharded sampler's long-run
  moments and visible-marginal KL match the *exact* model distribution (no
  "both wrong the same way" slack),
* at 48x24 — beyond enumeration — sharded settles agree Geweke-style with
  the serial float64 path,
* the threaded AIS chain pool matches the exact log Z on an enumerable RBM
  and the serial estimate, on both the vectorized sweep and the oracle's
  per-beta loop (``tests/helpers/reference.py``).

A shard that reused another shard's stream, dropped rows at a shard
boundary, or settled against a stale coupling block shifts every one of
these quantities by far more than the documented thresholds.
"""


import numpy as np
import pytest

from helpers import (
    AIS_LOGZ_STAT_ATOL,
    GEWEKE_ATOL,
    MOMENT_ATOL,
    assert_geweke_agree,
    assert_moments_match,
    assert_visible_kl_below,
    chain_moments,
)
from helpers.reference import ais_sweep, exact_log_partition, exact_model_moments
from repro.config import ComputeSpec, EstimatorSpec, SubstrateSpec
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM

WORKER_COUNTS = [2, 4]

N_VISIBLE, N_HIDDEN = 6, 4


@pytest.fixture(scope="module")
def enumerable_rbm() -> BernoulliRBM:
    """The same 6x4 moderately-coupled RBM the sibling suites pin against."""
    rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
    rng = np.random.default_rng(7)
    rbm.set_parameters(
        rng.normal(0.0, 0.5, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0.0, 0.3, N_VISIBLE),
        rng.normal(0.0, 0.3, N_HIDDEN),
    )
    return rbm


@pytest.fixture(scope="module")
def exact_moments(enumerable_rbm):
    return exact_model_moments(enumerable_rbm)


def _collect_samples(
    rbm, *, workers, dtype="float64", seed=23, chains=32, burn_in=250, sweeps=350
):
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            rbm.n_visible,
            rbm.n_hidden,
            input_bits=None,
            compute=ComputeSpec(dtype=dtype),
        ),
        rng=seed,
    )
    substrate.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
    hidden = (
        np.random.default_rng(seed).random((chains, rbm.n_hidden)) < 0.5
    ).astype(float)
    _, hidden = substrate.settle_batch(hidden, burn_in, workers=workers)
    v_samples, h_samples = [], []
    for _ in range(sweeps):
        visible, hidden = substrate.settle_batch(hidden, 1, workers=workers)
        v_samples.append(visible)
        h_samples.append(hidden)
    return np.concatenate(v_samples), np.concatenate(h_samples)


class TestShardedSettlesMatchExactDistribution:
    """Exact-enumeration pinning on the 6x4 RBM for every worker count."""

    @pytest.fixture(scope="class")
    def sharded_samples(self, enumerable_rbm):
        return {
            workers: _collect_samples(enumerable_rbm, workers=workers)
            for workers in WORKER_COUNTS
        }

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_moments(self, sharded_samples, exact_moments, workers):
        v, h = sharded_samples[workers]
        assert_moments_match(v, h, exact_moments, atol=MOMENT_ATOL)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_visible_marginal_kl(self, sharded_samples, enumerable_rbm, workers):
        v, _ = sharded_samples[workers]
        assert_visible_kl_below(v, enumerable_rbm)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_float32_sharded_moments(self, enumerable_rbm, exact_moments, workers):
        """The float32 tier and the sharded layer compose: single-precision
        shards still sample the true model distribution."""
        v, h = _collect_samples(
            enumerable_rbm, workers=workers, dtype="float32", seed=29
        )
        assert_moments_match(v, h, exact_moments, atol=MOMENT_ATOL)


class TestShardedSettlesGewekeAtScale:
    """48x24 is beyond enumeration: sharded settles must agree with the
    serial float64 path, Geweke-style (two independent estimators)."""

    @pytest.fixture(scope="class")
    def scale_rbm(self):
        rbm = BernoulliRBM(48, 24, rng=0)
        rng = np.random.default_rng(11)
        rbm.set_parameters(
            rng.normal(0.0, 0.25, (48, 24)),
            rng.normal(0.0, 0.2, 48),
            rng.normal(0.0, 0.2, 24),
        )
        return rbm

    @pytest.fixture(scope="class")
    def serial_moments(self, scale_rbm):
        v, h = _collect_samples(
            scale_rbm, workers=1, seed=31, burn_in=80, sweeps=160
        )
        return chain_moments(v, h)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_moments_agree_with_serial(self, scale_rbm, serial_moments, workers):
        v, h = _collect_samples(
            scale_rbm, workers=workers, seed=37 + workers, burn_in=80, sweeps=160
        )
        assert_geweke_agree(serial_moments, chain_moments(v, h), atol=GEWEKE_ATOL)


class TestThreadedAISPool:
    """The threaded chain pool estimates the same log Z as the serial
    estimator — against exact enumeration where possible."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_exact_on_enumerable_rbm(self, tiny_rbm, workers):
        exact = exact_log_partition(tiny_rbm)
        pooled = AISEstimator(
            spec=EstimatorSpec(
                chains=100, betas=300, compute=ComputeSpec(workers=workers)
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        assert pooled.log_partition == pytest.approx(exact, abs=AIS_LOGZ_STAT_ATOL)
        assert np.all(np.isfinite(pooled.log_weights))
        assert pooled.n_chains == 100

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_serial_estimate(self, tiny_rbm, workers):
        serial = AISEstimator(
            spec=EstimatorSpec(chains=100, betas=300), rng=0
        ).estimate_log_partition(
            tiny_rbm
        )
        pooled = AISEstimator(
            spec=EstimatorSpec(
                chains=100, betas=300, compute=ComputeSpec(workers=workers)
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        # Two runs of the same estimator on different streams: both carry
        # the estimator's own Monte-Carlo spread.
        assert pooled.log_partition == pytest.approx(
            serial.log_partition, abs=AIS_LOGZ_STAT_ATOL
        )

    def test_reference_loop_pool_matches_exact(self, tiny_rbm, monkeypatch):
        """The pool wraps the whole sweep, so the oracle's per-beta loop
        threads just as well."""
        monkeypatch.setattr("repro.rbm.ais._ais_sweep", ais_sweep)
        exact = exact_log_partition(tiny_rbm)
        pooled = AISEstimator(
            spec=EstimatorSpec(chains=60, betas=300, compute=ComputeSpec(workers=2)),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        assert pooled.log_partition == pytest.approx(exact, abs=AIS_LOGZ_STAT_ATOL)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_float32_pool_matches_exact(self, tiny_rbm, workers):
        exact = exact_log_partition(tiny_rbm)
        pooled = AISEstimator(
            spec=EstimatorSpec(
                chains=100,
                betas=300,
                compute=ComputeSpec(dtype="float32", workers=workers),
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        assert pooled.log_partition == pytest.approx(exact, abs=AIS_LOGZ_STAT_ATOL)
