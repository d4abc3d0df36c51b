"""Tests for the bipartite (RBM-shaped) Ising substrate."""

import numpy as np
import pytest

from helpers.reference import unit_output
from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM
from repro.utils.rng import spawn_rngs
from repro.utils.validation import ValidationError


@pytest.fixture
def programmed_substrate():
    """A 12x6 substrate programmed with a random RBM's parameters."""
    rbm = BernoulliRBM(12, 6, rng=0)
    rng = np.random.default_rng(1)
    rbm.set_parameters(rng.normal(0, 0.5, (12, 6)), rng.normal(0, 0.3, 12), rng.normal(0, 0.3, 6))
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(12, 6, input_bits=None), rng=2
    )
    substrate.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
    return substrate, rbm


def _hidden_probability(substrate, visible):
    """The hidden sigmoid units' outputs for one evaluation of the field."""
    return unit_output(substrate.hidden_sigmoid, substrate.hidden_field(visible))


class TestConstruction:
    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            BipartiteIsingSubstrate(spec=SubstrateSpec(0, 5))

    @pytest.mark.parametrize(
        "dtype, noise, fused",
        [
            ("float32", NoiseSpec(), True),
            ("float32", NoiseSpec(0.0, 0.1), True),
            ("float32", NoiseSpec(0.1, 0.0), False),
            ("float64", NoiseSpec(), False),
        ],
        ids=["float32-ideal", "float32-dynamic-noise", "float32-variation", "float64"],
    )
    def test_fused_latch_needs_float32_and_identity_sigmoid_units(self, dtype, noise, fused):
        """Only per-unit gain variation makes the sigmoid units differ from
        the logistic; dynamic noise enters at the fields, before the latch."""
        spec = SubstrateSpec(10, 4, noise=noise, compute=ComputeSpec(dtype=dtype))
        assert BipartiteIsingSubstrate(spec=spec, rng=0)._fused_sampling is fused


class TestStreamLayout:
    """The master seed spawns seven child streams, in a fixed order: the
    noise model, the hidden and visible sigmoid units, the hidden and
    visible samplers, and two unused streams.  The unused ones are still
    spawned, since a seed sequence numbers its children in spawn order and
    a caller's later spawns from the same generator must keep their draws."""

    CIRCUITS = {
        "noise_model": 0,
        "hidden_sigmoid": 1,
        "visible_sigmoid": 2,
        "hidden_sampler": 3,
        "visible_sampler": 4,
    }

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_circuit_draws_from_its_spawned_child(self, circuit):
        # The ideal corner draws nothing at construction, so each circuit's
        # stream is still the child's initial state.
        substrate = BipartiteIsingSubstrate(spec=SubstrateSpec(10, 4), rng=11)
        child = spawn_rngs(11, 7)[self.CIRCUITS[circuit]]
        stream = getattr(substrate, circuit)._rng
        assert stream.bit_generator.state == child.bit_generator.state

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.1, 0.1)], ids=["ideal", "noisy"])
    def test_a_generator_seed_spawns_seven_children(self, noise):
        parent = np.random.default_rng(11)
        BipartiteIsingSubstrate(spec=SubstrateSpec(10, 4, noise=noise), rng=parent)
        assert parent.bit_generator.seed_seq.n_children_spawned == 7
        # The caller's next spawn is the eighth child of its seed.
        after = spawn_rngs(parent, 1)[0]
        eighth = np.random.default_rng(np.random.SeedSequence(11).spawn(8)[7])
        np.testing.assert_array_equal(after.random(5), eighth.random(5))


class TestProgramming:
    def test_program_and_read_back(self, programmed_substrate):
        substrate, rbm = programmed_substrate
        weights, bv, bh = substrate.read_parameters()
        np.testing.assert_array_equal(weights, rbm.weights)
        np.testing.assert_array_equal(bv, rbm.visible_bias)
        np.testing.assert_array_equal(bh, rbm.hidden_bias)

    def test_program_shape_check(self):
        substrate = BipartiteIsingSubstrate(spec=SubstrateSpec(5, 3), rng=0)
        with pytest.raises(ValidationError):
            substrate.program(np.zeros((3, 5)), np.zeros(5), np.zeros(3))

    def test_read_parameters_returns_copies(self, programmed_substrate):
        substrate, _ = programmed_substrate
        weights, _, _ = substrate.read_parameters()
        weights[0, 0] += 99.0
        assert substrate.weights[0, 0] != weights[0, 0]


class TestClamping:
    def test_clamp_without_dtc_passthrough(self):
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(4, 2, input_bits=None), rng=0
        )
        values = np.array([0.1, 0.5, 0.9, 0.3])
        np.testing.assert_array_equal(substrate.clamp_visible(values), values)

    def test_clamp_with_dtc_quantizes(self):
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(4, 2, input_bits=2), rng=0
        )
        values = np.array([[0.1, 0.5, 0.9, 0.3]])
        clamped = substrate.clamp_visible(values)
        # 2-bit DTC: only 4 levels {0, 1/3, 2/3, 1}
        levels = {0.0, 1 / 3, 2 / 3, 1.0}
        assert all(any(abs(v - level) < 1e-9 for level in levels) for v in clamped.ravel())

    def test_clamp_wrong_width(self):
        substrate = BipartiteIsingSubstrate(spec=SubstrateSpec(4, 2), rng=0)
        with pytest.raises(ValidationError):
            substrate.clamp_visible(np.zeros(5))

    @pytest.mark.parametrize("input_bits", [8, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_non_finite_clamp_rejected(self, layout, bad, input_bits):
        """NaN/inf used to latch as silent all-zero hidden samples; every
        clamping entry point now refuses them."""
        from scipy import sparse

        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(6, 4, input_bits=input_bits), rng=0
        )
        substrate.program(np.full((6, 4), 0.1), np.zeros(6), np.zeros(4))
        values = np.zeros((2, 6))
        values[1, 3] = bad
        if layout == "csr":
            values = sparse.csr_matrix(values)
        for entry in (substrate.clamp_visible, substrate.sample_hidden_given_visible):
            with pytest.raises(ValidationError, match="non-finite"):
                entry(values)


class TestConditionalSampling:
    def test_ideal_substrate_matches_rbm_probabilities(self, programmed_substrate):
        """With no noise and unit sigmoid gain the substrate's conditional
        hidden probabilities equal the software RBM's (Eq. 4)."""
        substrate, rbm = programmed_substrate
        v = (np.random.default_rng(3).random((5, 12)) < 0.5).astype(float)
        np.testing.assert_allclose(
            _hidden_probability(substrate, v), rbm.hidden_activation_probability(v), atol=1e-9
        )

    def test_visible_latch_statistics_match_probabilities(self, programmed_substrate):
        """A one-step settle latches the visibles from P(v | h) (Eq. 5)."""
        substrate, rbm = programmed_substrate
        h = np.tile((np.random.default_rng(4).random(6) < 0.5).astype(float), (3000, 1))
        visible, _ = substrate.settle_batch(h, 1)
        expected = rbm.visible_activation_probability(h[:1])[0]
        np.testing.assert_allclose(visible.mean(axis=0), expected, atol=0.05)

    def test_samples_are_binary(self, programmed_substrate):
        substrate, _ = programmed_substrate
        v = (np.random.default_rng(5).random((10, 12)) < 0.5).astype(float)
        h = substrate.sample_hidden_given_visible(v)
        assert set(np.unique(h)).issubset({0.0, 1.0})
        v2, _ = substrate.settle_batch(h, 1)
        assert set(np.unique(v2)).issubset({0.0, 1.0})

    def test_sample_statistics_match_probabilities(self, programmed_substrate):
        """Across many repeated latches the empirical hidden mean matches P(h|v)."""
        substrate, rbm = programmed_substrate
        v = np.tile((np.random.default_rng(6).random(12) < 0.5).astype(float), (3000, 1))
        samples = substrate.sample_hidden_given_visible(v)
        expected = rbm.hidden_activation_probability(v[:1])[0]
        np.testing.assert_allclose(samples.mean(axis=0), expected, atol=0.05)

    def test_hidden_init_must_be_binary(self, programmed_substrate):
        substrate, _ = programmed_substrate
        with pytest.raises(ValidationError):
            substrate.settle_batch(np.full((1, 6), 0.5), 1)

    def test_gibbs_chain_shapes(self, programmed_substrate):
        substrate, _ = programmed_substrate
        h0 = (np.random.default_rng(7).random((4, 6)) < 0.5).astype(float)
        v, h = substrate.gibbs_chain(h0, 3)
        assert v.shape == (4, 12)
        assert h.shape == (4, 6)

    def test_gibbs_chain_invalid_steps(self, programmed_substrate):
        substrate, _ = programmed_substrate
        with pytest.raises(ValidationError):
            substrate.gibbs_chain(np.zeros((1, 6)), 0)

    def test_hidden_field_accepts_one_row(self, programmed_substrate):
        substrate, rbm = programmed_substrate
        v = (np.random.default_rng(8).random(12) < 0.5).astype(float)
        field = substrate.hidden_field(v)
        assert field.shape == (1, 6)
        np.testing.assert_allclose(field[0], v @ rbm.weights + rbm.hidden_bias, atol=1e-12)


class TestNoiseInjection:
    def test_static_variation_changes_effective_probabilities(self):
        rbm = BernoulliRBM(10, 5, rng=0)
        rng = np.random.default_rng(1)
        rbm.set_parameters(rng.normal(0, 1, (10, 5)), np.zeros(10), np.zeros(5))
        ideal = BipartiteIsingSubstrate(
            spec=SubstrateSpec(10, 5, input_bits=None), rng=3
        )
        noisy = BipartiteIsingSubstrate(
            spec=SubstrateSpec(10, 5, input_bits=None, noise=NoiseSpec(0.3, 0.0)), rng=3
        )
        for sub in (ideal, noisy):
            sub.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        v = (np.random.default_rng(4).random((5, 10)) < 0.5).astype(float)
        assert not np.allclose(_hidden_probability(ideal, v), _hidden_probability(noisy, v))

    def test_dynamic_noise_varies_between_calls(self):
        rbm = BernoulliRBM(10, 5, rng=0)
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(10, 5, input_bits=None, noise=NoiseSpec(0.0, 0.2)), rng=3
        )
        substrate.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        v = np.ones((2, 10))
        a = _hidden_probability(substrate, v)
        b = _hidden_probability(substrate, v)
        assert not np.allclose(a, b)

    def test_ideal_substrate_is_deterministic_in_probabilities(self, programmed_substrate):
        substrate, _ = programmed_substrate
        v = np.ones((2, 12))
        np.testing.assert_array_equal(
            _hidden_probability(substrate, v), _hidden_probability(substrate, v)
        )

    def test_moderate_noise_preserves_probability_ordering(self):
        """Sec 4.5's qualitative claim: moderate analog noise perturbs but does
        not scramble the conditional probabilities."""
        rbm = BernoulliRBM(12, 6, rng=0)
        rng = np.random.default_rng(1)
        rbm.set_parameters(rng.normal(0, 1.0, (12, 6)), np.zeros(12), np.zeros(6))
        noisy = BipartiteIsingSubstrate(
            spec=SubstrateSpec(12, 6, input_bits=None, noise=NoiseSpec(0.1, 0.1)), rng=5
        )
        noisy.program(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
        v = (np.random.default_rng(6).random((200, 12)) < 0.5).astype(float)
        ideal_p = rbm.hidden_activation_probability(v).ravel()
        noisy_p = _hidden_probability(noisy, v).ravel()
        correlation = np.corrcoef(ideal_p, noisy_p)[0, 1]
        assert correlation > 0.9
