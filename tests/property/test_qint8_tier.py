"""Statistical pinning of the qint8 quantized-coupling tier.

The qint8 tier stores the effective couplings and biases as symmetric int8
codes plus float32 scales and dequantizes them at the effective-weight
cache, so below the cache it runs the float32 tier's kernels unchanged.
Quantization perturbs every coupling by at most half an LSB (per-column
scale / 2 ≈ 0.004 at this suite's weight magnitudes) — far below the
shared toolkit's statistical thresholds — so, exactly like the float32
tier before it (``test_precision_tiers.py``), the quantized sampler is
pinned against the *exact unquantized* model distribution, not against a
quantized reference that could be wrong the same way:

* on the exactly-enumerable 6x4 RBM, the qint8 sampler's long-run moments
  and visible-marginal KL match the exact model distribution — for the
  full acceptance matrix of ``workers`` in {1, 2},
* at 48x24 — beyond enumeration — qint8 settles agree Geweke-style with
  the float64 reference,
* the qint8 AIS estimate lands within the estimator's statistical
  tolerance of the exact log Z and of the float64 estimate, again across
  the worker matrix,
* GS/PCD and BGF training runs on the qint8 tier learn float64-grade
  models (the host-side accumulator stays full precision by design).

A transposed scale axis, a saturating clip, codes applied without their
scales, or a stale quantized cache after reprogramming shifts every one
of these quantities by far more than the documented thresholds.
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
from repro.analog.converters import dequantize_symmetric
from repro.config import SubstrateSpec, TrainerSpec
from repro.config.specs import ComputeSpec, EstimatorSpec
from repro.core import BGFTrainer, GibbsSamplerMachine, GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM
from repro.rbm.partition import exact_log_partition, exact_model_moments
from repro.utils.validation import ValidationError

N_VISIBLE, N_HIDDEN = 6, 4

# The tier's acceptance matrix: serial and 2-way thread shards both sample
# the same quantized model.
POOL_CONFIGS = [1, 2]
POOL_IDS = [f"w{workers}" for workers in POOL_CONFIGS]


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
    rbm,
    *,
    dtype="qint8",
    seed=23,
    chains=32,
    burn_in=250,
    sweeps=350,
    workers=1,
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


class TestQint8SamplerMatchesExactDistribution:
    """Exact-enumeration pinning across the worker matrix."""

    @pytest.fixture(scope="class", params=POOL_CONFIGS, ids=POOL_IDS)
    def qint8_samples(self, request, enumerable_rbm):
        workers = request.param
        return _collect_samples(enumerable_rbm, seed=23 + workers, workers=workers)

    def test_moments(self, qint8_samples, exact_moments):
        v, h = qint8_samples
        assert_moments_match(v, h, exact_moments, atol=MOMENT_ATOL)

    def test_visible_marginal_kl(self, qint8_samples, enumerable_rbm):
        v, _ = qint8_samples
        assert_visible_kl_below(v, enumerable_rbm)

    def test_fused_latch_was_active(self):
        """The qint8 tier runs the float32 sampling kernels, fused latch
        included (guards the suite against silently testing a fallback)."""
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(
                N_VISIBLE, N_HIDDEN, input_bits=None, compute=ComputeSpec(dtype="qint8")
            ),
            rng=0,
        )
        assert substrate._fused_sampling
        assert substrate.quantized
        assert substrate.dtype == np.float32

    def test_effective_couplings_are_int8_codes(self, enumerable_rbm):
        """The cached effective weights really are dequantized int8: codes
        bounded by ±127, float32 per-column scales, and codes × scales
        reproduce the matrix the kernels consume bit-for-bit."""
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(
                N_VISIBLE, N_HIDDEN, input_bits=None, compute=ComputeSpec(dtype="qint8")
            ),
            rng=0,
        )
        substrate.program(
            enumerable_rbm.weights,
            enumerable_rbm.visible_bias,
            enumerable_rbm.hidden_bias,
        )
        static, static_t = substrate._static_pair()
        codes, scales = substrate._quantized_static
        assert codes.dtype == np.int8
        assert int(np.abs(codes).max()) <= 127
        assert scales.dtype == np.float32
        assert scales.shape == (N_HIDDEN,)
        assert static.dtype == np.float32
        np.testing.assert_array_equal(static, dequantize_symmetric(codes, scales))
        np.testing.assert_array_equal(static_t, static.T)


class TestQint8VsFloat64GewekeAtScale:
    """48x24 is beyond enumeration: the quantized tier must agree with the
    float64 reference, Geweke-style (two independent estimators)."""

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

    def test_moments_agree(self, scale_rbm):
        v64, h64 = _collect_samples(
            scale_rbm, dtype="float64", seed=31, burn_in=80, sweeps=160
        )
        vq, hq = _collect_samples(
            scale_rbm, dtype="qint8", seed=41, burn_in=80, sweeps=160
        )
        assert_geweke_agree(
            chain_moments(v64, h64), chain_moments(vq, hq), atol=GEWEKE_ATOL
        )


class TestQint8AIS:
    def test_matches_exact_on_enumerable_rbm(self, tiny_rbm):
        exact = exact_log_partition(tiny_rbm)
        quantized = AISEstimator(
            spec=EstimatorSpec(
                chains=100, betas=300, compute=ComputeSpec(dtype="qint8")
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        assert quantized.log_partition == pytest.approx(exact, abs=AIS_LOGZ_STAT_ATOL)
        assert np.all(np.isfinite(quantized.log_weights))

    def test_matches_float64_estimate(self, tiny_rbm):
        f64 = AISEstimator(
            spec=EstimatorSpec(chains=100, betas=300), rng=0
        ).estimate_log_partition(
            tiny_rbm
        )
        quantized = AISEstimator(
            spec=EstimatorSpec(
                chains=100, betas=300, compute=ComputeSpec(dtype="qint8")
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        # Two runs of the same estimator with different streams: both carry
        # the estimator's own Monte-Carlo spread.
        assert quantized.log_partition == pytest.approx(
            f64.log_partition, abs=AIS_LOGZ_STAT_ATOL
        )

    @pytest.mark.parametrize("workers", POOL_CONFIGS, ids=POOL_IDS)
    def test_pool_matches_exact(self, tiny_rbm, workers):
        """The acceptance matrix for the estimator: the sharded chain pool
        sweeps the same quantized parameters at every worker count."""
        exact = exact_log_partition(tiny_rbm)
        spec = EstimatorSpec(
            chains=100,
            betas=300,
            compute=ComputeSpec(dtype="qint8", workers=workers),
        )
        pooled = AISEstimator(spec=spec, rng=0).estimate_log_partition(tiny_rbm)
        assert pooled.log_partition == pytest.approx(exact, abs=AIS_LOGZ_STAT_ATOL)

    def test_qint8_requires_fast_path(self):
        with pytest.raises(ValidationError):
            AISEstimator(
                spec=EstimatorSpec(compute=ComputeSpec(dtype="qint8", fast_path=False))
            )


class TestQint8Trainers:
    """End-to-end: the qint8 tier trains models of float64-grade quality."""

    def test_gs_pcd_qint8_learns(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 6, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1,
                cd_k=1,
                batch_size=10,
                chains=8,
                persistent=True,
                compute=ComputeSpec(dtype="qint8"),
            ),
            rng=1,
        )
        history = trainer.train(rbm, tiny_binary_data, epochs=12)
        # Host-side model stays double precision (mixed-precision split);
        # the machine computes in float32 on the dequantized couplings.
        assert rbm.weights.dtype == np.float64
        assert trainer.machine.dtype == np.float32
        assert trainer.machine.substrate.quantized
        assert history.reconstruction_error[-1] < 0.3

    def test_bgf_qint8_learns(self, tiny_binary_data):
        """BGF's in-place charge-pump updates requantize through the cache
        invalidation path, so a learning run covers it end to end."""
        rbm = BernoulliRBM(16, 6, rng=0)
        history = BGFTrainer(
            spec=TrainerSpec.bgf(
                0.1, reference_batch_size=10, compute=ComputeSpec(dtype="qint8")
            ),
            rng=1,
        ).train(rbm, tiny_binary_data, epochs=6)
        assert np.isfinite(rbm.weights).all()
        assert history.reconstruction_error[-1] < history.reconstruction_error[0] + 0.05

    def test_qint8_requires_fast_path(self):
        with pytest.raises(ValidationError):
            BipartiteIsingSubstrate(
                spec=SubstrateSpec(
                    8, 4, compute=ComputeSpec(dtype="qint8", fast_path=False)
                ),
            )

    def test_machine_dtype_property(self):
        machine = GibbsSamplerMachine(
            spec=SubstrateSpec(8, 4, compute=ComputeSpec(dtype="qint8")), rng=0
        )
        assert machine.dtype == np.float32
        assert machine.substrate.quantized
        assert machine.substrate.weights.dtype == np.float32
