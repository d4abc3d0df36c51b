"""Dtype stability of every public substrate path, on both tiers.

The precision tiers are a contract about *every* array a substrate hands
back, not just the hot settle kernels: a float64 leak out of one entry
point (the original bug was ``clamp_visible``'s dense DTC path coercing to
``dtype=float``) silently upcasts every downstream matmul via NumPy
promotion, erasing the tier's memory/bandwidth win without failing a
single statistical test.  This suite walks the full public surface —
clamp, the hidden field, conditional samples and chain settles — on
float64 and float32 substrates, feeds each entry
point deliberately float64 inputs, and asserts the output dtype is the
tier's dtype.  The walk runs twice: on an ideal substrate and on one with
device variation and dynamic noise, whose effective couplings are a
float64 variation product cast into the tier and whose per-call noise
draws are added to the fields.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.config.specs import ComputeSpec, NoiseSpec, SubstrateSpec
from repro.ising.bipartite import BipartiteIsingSubstrate

TIERS = ["float64", "float32"]

N_VISIBLE, N_HIDDEN = 12, 5


def _substrate(tier: str, *, input_bits, noise=NoiseSpec()) -> BipartiteIsingSubstrate:
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            n_visible=N_VISIBLE,
            n_hidden=N_HIDDEN,
            input_bits=input_bits,
            noise=noise,
            compute=ComputeSpec(dtype=tier),
        ),
        rng=3,
    )
    rng = np.random.default_rng(9)
    substrate.program(
        rng.normal(0.0, 0.4, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0.0, 0.2, N_VISIBLE),
        rng.normal(0.0, 0.2, N_HIDDEN),
    )
    return substrate


@pytest.fixture(params=TIERS)
def tier(request):
    return request.param


@pytest.fixture
def noise():
    return NoiseSpec()


@pytest.fixture
def substrate(tier, noise):
    return _substrate(tier, input_bits=8, noise=noise)


@pytest.fixture
def expected(tier):
    return np.dtype(tier)


# Deliberately float64 inputs: the tier must coerce at the boundary.
def _visible_batch(n=4):
    return (np.random.default_rng(1).random((n, N_VISIBLE)) < 0.5).astype(float)


def _hidden_batch(n=4):
    return (np.random.default_rng(2).random((n, N_HIDDEN)) < 0.5).astype(float)


class TestPublicPathsStayInTier:
    def test_programmed_parameters(self, substrate, expected):
        assert substrate.weights.dtype == expected
        assert substrate.visible_bias.dtype == expected
        assert substrate.hidden_bias.dtype == expected

    def test_clamp_visible_dense_with_dtc(self, substrate, expected):
        """The original leak: the dense DTC path returned float64 on the
        float32 tier."""
        assert substrate.input_dtc is not None
        assert substrate.clamp_visible(_visible_batch()).dtype == expected

    def test_clamp_visible_dense_without_dtc(self, tier, noise, expected):
        substrate = _substrate(tier, input_bits=None, noise=noise)
        assert substrate.clamp_visible(_visible_batch()).dtype == expected

    @pytest.mark.sparse
    def test_clamp_visible_sparse(self, substrate, expected):
        clamped = substrate.clamp_visible(sp.csr_matrix(_visible_batch()))
        assert clamped.dtype == expected

    def test_hidden_field(self, substrate, expected):
        assert substrate.hidden_field(_visible_batch()).dtype == expected

    def test_conditional_samples(self, substrate, expected):
        assert substrate.sample_hidden_given_visible(_visible_batch()).dtype == expected

    def test_settle_batch(self, substrate, expected):
        visible, hidden = substrate.settle_batch(_hidden_batch(), 2)
        assert visible.dtype == expected
        assert hidden.dtype == expected

    def test_gibbs_chain(self, substrate, expected):
        visible, hidden = substrate.gibbs_chain(_hidden_batch(1), 3)
        assert visible.dtype == expected
        assert hidden.dtype == expected

    def test_fields_from_clamped_state_stay_in_tier(self, substrate, expected):
        """Compose the two paths the leak coupled: a clamped batch fed back
        through the field kernels must not re-promote to float64."""
        clamped = substrate.clamp_visible(_visible_batch())
        assert substrate.hidden_field(clamped).dtype == expected


class TestNoisyPathsStayInTier(TestPublicPathsStayInTier):
    """The same walk on a substrate with device variation and dynamic
    coupling/node noise: the noise model's float64 draws must be cast into
    the tier, never promote its outputs."""

    @pytest.fixture
    def noise(self):
        return NoiseSpec(variation_rms=0.1, noise_rms=0.1)

    def test_noise_is_active(self, substrate):
        """Guards the class against silently re-running the ideal corner:
        the cached couplings carry the variation gain, and two field reads
        of one batch draw different dynamic noise."""
        static, _ = substrate._static_pair()
        assert not np.array_equal(static, substrate.weights)
        batch = _visible_batch()
        assert not np.array_equal(
            substrate.hidden_field(batch), substrate.hidden_field(batch)
        )
