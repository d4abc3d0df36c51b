"""Statistical pinning of the float32 precision tier against float64.

The float32 kernels (single-precision effective weights and settles, the
fused sigmoid→compare Bernoulli latch, the float32 AIS sweep) draw
different bit streams than the float64 reference — float32 uniforms consume
the generator differently and the fused compare reassociates the inequality
— so, like the multi-chain layouts before them (see
``test_chain_statistics.py``), they cannot be pinned by seed.  They are
pinned distributionally instead, with the shared toolkit in
``tests/helpers``:

* on a small exactly-enumerable RBM, the float32 sampler's long-run moments
  and visible-marginal KL match the *exact* model distribution (no slack
  for "both tiers being wrong the same way"),
* at a scale where enumeration is intractable, the float32 and float64
  samplers agree Geweke-style (two independent estimators of the same
  moments),
* the float32 AIS estimate lands within the estimator's statistical
  tolerance of the exact log Z and of the float64 estimate,
* the fused latch kernel's empirical rates match the sigmoid probabilities.

A wrong-dtype matmul, a transposed cast, or a fused compare with a flipped
inequality shifts every one of these quantities by far more than the
documented thresholds.
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
from helpers.reference import exact_log_partition, exact_model_moments
from repro.config import ComputeSpec, EstimatorSpec, SubstrateSpec, TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerMachine, GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM
from repro.utils.numerics import fused_sigmoid_bernoulli, sigmoid

N_VISIBLE, N_HIDDEN = 6, 4


@pytest.fixture(scope="module")
def enumerable_rbm() -> BernoulliRBM:
    """The same 6x4 moderately-coupled RBM the chain-statistics suite uses."""
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


def _collect_samples(rbm, *, dtype, seed, chains=32, burn_in=250, sweeps=350):
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
    _, hidden = substrate.settle_batch(hidden, burn_in)
    v_samples, h_samples = [], []
    for _ in range(sweeps):
        visible, hidden = substrate.settle_batch(hidden, 1)
        v_samples.append(visible)
        h_samples.append(hidden)
    return np.concatenate(v_samples), np.concatenate(h_samples)


@pytest.fixture(scope="module")
def float32_samples(enumerable_rbm):
    return _collect_samples(enumerable_rbm, dtype="float32", seed=23)


class TestFloat32SamplerMatchesExactDistribution:
    """Exact-enumeration pinning: the float32 tier samples the true model."""

    def test_moments(self, float32_samples, exact_moments):
        v, h = float32_samples
        assert_moments_match(v, h, exact_moments, atol=MOMENT_ATOL)

    def test_visible_marginal_kl(self, float32_samples, enumerable_rbm):
        v, _ = float32_samples
        assert_visible_kl_below(v, enumerable_rbm)

    def test_fused_latch_was_active(self, enumerable_rbm):
        """The ideal corner actually exercises the fused kernel (guards the
        suite against silently testing the fallback path)."""
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(
                N_VISIBLE,
                N_HIDDEN,
                input_bits=None,
                compute=ComputeSpec(dtype="float32"),
            ),
            rng=0,
        )
        assert substrate._fused_sampling


class TestFloat32VsFloat64GewekeAtScale:
    """48x24 is far beyond enumeration: the two tiers must agree with each
    other (Geweke-style cross-estimator check) on a trained-like model."""

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
        v32, h32 = _collect_samples(
            scale_rbm, dtype="float32", seed=37, burn_in=80, sweeps=160
        )
        assert_geweke_agree(
            chain_moments(v64, h64), chain_moments(v32, h32), atol=GEWEKE_ATOL
        )


class TestFloat32AIS:
    def test_matches_exact_on_enumerable_rbm(self, tiny_rbm):
        exact = exact_log_partition(tiny_rbm)
        f32 = AISEstimator(
            spec=EstimatorSpec(
                chains=100, betas=300, compute=ComputeSpec(dtype="float32")
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        assert f32.log_partition == pytest.approx(exact, abs=AIS_LOGZ_STAT_ATOL)
        assert np.all(np.isfinite(f32.log_weights))

    def test_matches_float64_estimate(self, tiny_rbm):
        f64 = AISEstimator(
            spec=EstimatorSpec(chains=100, betas=300), rng=0
        ).estimate_log_partition(
            tiny_rbm
        )
        f32 = AISEstimator(
            spec=EstimatorSpec(
                chains=100, betas=300, compute=ComputeSpec(dtype="float32")
            ),
            rng=0,
        ).estimate_log_partition(tiny_rbm)
        # Two runs of the same estimator with different streams: both carry
        # the estimator's own Monte-Carlo spread.
        assert f32.log_partition == pytest.approx(
            f64.log_partition, abs=AIS_LOGZ_STAT_ATOL
        )



class TestFusedLatchKernel:
    """The fused sigmoid→compare draw has the right Bernoulli rates."""

    def test_empirical_rates_match_sigmoid(self):
        rng = np.random.default_rng(5)
        fields = np.array([-4.0, -1.0, 0.0, 0.5, 2.0, 5.0], dtype=np.float32)
        n = 40_000
        field = np.broadcast_to(fields, (n, fields.size)).copy()
        u = rng.random(field.shape, dtype=np.float32)
        draws = fused_sigmoid_bernoulli(field, u)
        rates = draws.mean(axis=0)
        np.testing.assert_allclose(rates, sigmoid(fields), atol=0.02)

    def test_saturated_fields_latch_deterministically(self):
        u = np.random.default_rng(0).random(1000, dtype=np.float32)
        hi = fused_sigmoid_bernoulli(np.full(1000, 200.0, dtype=np.float32), u.copy())
        lo = fused_sigmoid_bernoulli(np.full(1000, -200.0, dtype=np.float32), u.copy())
        assert hi.min() == 1.0
        assert lo.max() == 0.0

    def test_output_dtype_matches_field(self):
        u64 = np.random.default_rng(0).random(16)
        out64 = fused_sigmoid_bernoulli(np.zeros(16), u64)
        out32 = fused_sigmoid_bernoulli(
            np.zeros(16, dtype=np.float32),
            np.random.default_rng(0).random(16, dtype=np.float32),
        )
        assert out64.dtype == np.float64
        assert out32.dtype == np.float32


class TestFloat32Trainers:
    """End-to-end: the float32 tier trains models of float64-grade quality."""

    def test_gs_pcd_float32_learns(self, tiny_binary_data):
        histories = {}
        for dtype in ("float64", "float32"):
            rbm = BernoulliRBM(16, 6, rng=0)
            trainer = GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=10,
                    chains=8,
                    persistent=True,
                    compute=ComputeSpec(dtype=dtype),
                ),
                rng=1,
            )
            histories[dtype] = trainer.train(rbm, tiny_binary_data, epochs=12)
            # Host-side model stays double precision (mixed-precision split).
            assert rbm.weights.dtype == np.float64
            assert trainer.machine.substrate.dtype == np.dtype(dtype)
        final64 = histories["float64"].reconstruction_error[-1]
        final32 = histories["float32"].reconstruction_error[-1]
        # Both tiers learn (error well below the ~0.5 random-guess floor)
        # and land in the same quality band.
        assert final32 < 0.3
        assert final32 == pytest.approx(final64, abs=0.1)

    def test_bgf_float32_learns(self, tiny_binary_data):
        rbm = BernoulliRBM(16, 6, rng=0)
        history = BGFTrainer(
            spec=TrainerSpec.bgf(
                0.1, reference_batch_size=10, compute=ComputeSpec(dtype="float32")
            ),
            rng=1,
        ).train(rbm, tiny_binary_data, epochs=6)
        assert np.isfinite(rbm.weights).all()
        assert history.reconstruction_error[-1] < history.reconstruction_error[0] + 0.05

    def test_machine_substrate_takes_the_spec_dtype(self):
        machine = GibbsSamplerMachine(
            spec=SubstrateSpec(8, 4, compute=ComputeSpec(dtype="float32")), rng=0
        )
        assert machine.substrate.dtype == np.float32
        assert machine.substrate.weights.dtype == np.float32
