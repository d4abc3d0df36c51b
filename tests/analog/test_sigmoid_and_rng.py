"""Tests for the sigmoid unit and the neuron sampler (reference plus latch).

The settle kernel runs the unit's transfer curve and the latch inline, so
their laws live in the oracle (``tests/helpers/reference.py``:
``unit_output``, ``sample``, ``sample_from_field``) and are pinned here on
the library's circuits — the drawn gains and the samplers' streams.
"""

import copy

import numpy as np
import pytest

from helpers.reference import latch, sample, sample_from_field, unit_output
from repro.analog import SigmoidUnit, StochasticNeuronSampler
from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec
from repro.ising import BipartiteIsingSubstrate
from repro.utils.numerics import sigmoid
from repro.utils.validation import ValidationError


class TestSigmoidUnit:
    def test_matches_logistic(self):
        unit = SigmoidUnit(n_units=21)
        x = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(unit_output(unit, x), sigmoid(x))

    def test_per_unit_gain_variation_is_static(self):
        unit = SigmoidUnit(n_units=20, gain_variation_rms=0.3, rng=1)
        x = np.ones((1, 20))
        np.testing.assert_array_equal(unit_output(unit, x), unit_output(unit, x))

    def test_gain_variation_makes_units_differ(self):
        unit = SigmoidUnit(n_units=50, gain_variation_rms=0.3, rng=2)
        out = unit_output(unit, np.full((1, 50), 2.0))
        assert np.std(out) > 0.0

    def test_variation_scales_the_logistic_input(self):
        """Unit gain 1 with a per-unit mismatch: ``sigmoid(gain_i * x)``."""
        unit = SigmoidUnit(n_units=6, gain_variation_rms=0.2, rng=3)
        x = np.linspace(-3.0, 3.0, 12).reshape(2, 6)
        expected_gains = 1.0 + np.random.default_rng(3).normal(0.0, 0.2, size=6)
        np.testing.assert_array_equal(unit._unit_gains, expected_gains)
        np.testing.assert_array_equal(unit_output(unit, x), sigmoid(expected_gains * x))

    def test_gain_clipped_at_five_percent_of_nominal(self):
        unit = SigmoidUnit(n_units=2000, gain_variation_rms=2.0, rng=0)
        assert unit._unit_gains.min() == 0.05

    def test_unit_count_mismatch_rejected(self):
        unit = SigmoidUnit(n_units=10, gain_variation_rms=0.1, rng=0)
        with pytest.raises(ValidationError, match="n_units=10"):
            unit_output(unit, np.zeros((1, 5)))

    def test_negative_variation_rejected(self):
        with pytest.raises(ValidationError, match="gain_variation_rms"):
            SigmoidUnit(n_units=3, gain_variation_rms=-0.1)


class TestStochasticNeuronSampler:
    def test_samples_are_binary(self):
        sampler = StochasticNeuronSampler(8, rng=0)
        out = sample(sampler, np.full((10, 8), 0.5))
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_probability_is_respected(self):
        """The comparator-vs-noise circuit implements an unbiased Bernoulli draw."""
        sampler = StochasticNeuronSampler(4, rng=1)
        probabilities = np.tile(np.array([0.1, 0.3, 0.7, 0.95]), (20000, 1))
        samples = sample(sampler, probabilities)
        np.testing.assert_allclose(samples.mean(axis=0), [0.1, 0.3, 0.7, 0.95], atol=0.02)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draws_in_the_probability_dtype(self, dtype):
        p = np.random.default_rng(4).random((6, 3)).astype(dtype)
        out = sample(StochasticNeuronSampler(3, rng=9), p)
        reference = np.random.default_rng(9).random(p.shape, dtype=dtype)
        np.testing.assert_array_equal(out, (p > reference).astype(dtype))
        assert out.dtype == dtype

    @pytest.mark.parametrize("n_units", [0, 2.5, True])
    def test_invalid_units(self, n_units):
        with pytest.raises(ValidationError, match="n_units"):
            StochasticNeuronSampler(n_units)


class TestSigmoidIdentity:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({"n_units": 4}, True),
            ({"n_units": 4, "gain_variation_rms": 0.1}, False),
        ],
    )
    def test_is_identity_only_in_the_ideal_corner(self, kwargs, expected):
        unit = SigmoidUnit(rng=0, **kwargs)
        assert unit.is_identity is expected
        if expected:
            x = np.linspace(-4.0, 4.0, 4)
            np.testing.assert_array_equal(unit_output(unit, x), sigmoid(x))

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({}, TypeError),
            ({"gain_variation_rms": 0.1}, TypeError),
            ({"n_units": None}, ValidationError),
            ({"n_units": None, "gain_variation_rms": 0.1}, ValidationError),
        ],
    )
    def test_n_units_is_required(self, kwargs, error):
        """Without a unit count a variation setting would draw no mismatch
        and the unit would read as the identity; it fails naming n_units."""
        with pytest.raises(error, match="n_units"):
            SigmoidUnit(rng=0, **kwargs)


class TestFusedLatch:
    def test_sample_from_field_follows_sigmoid_of_field(self):
        sampler = StochasticNeuronSampler(4, rng=5)
        field = np.tile(np.array([-2.0, -0.5, 0.5, 3.0]), (20000, 1))
        samples = sample_from_field(sampler, field)
        np.testing.assert_allclose(samples.mean(axis=0), sigmoid(field[0]), atol=0.02)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_from_field_keeps_field_dtype(self, dtype):
        sampler = StochasticNeuronSampler(3, rng=0)
        out = sample_from_field(sampler, np.zeros((4, 3), dtype=dtype))
        assert out.dtype == dtype
        assert set(np.unique(out)).issubset({0.0, 1.0})


class TestSettleKernelLatchesByTheOracleLaw:
    """The substrate's hidden latch, inline in the settle kernel, is the
    oracle's law on the substrate's own circuits: the unit gain and the
    logistic then :func:`sample` against a float64 reference, or, on the
    float32 tier's ideal units, :func:`sample_from_field` against float32
    uniforms.  No dynamic noise, so the field draws nothing and the
    sampler's stream holds exactly the latch's references."""

    @pytest.mark.parametrize(
        "dtype, variation",
        [("float64", 0.0), ("float64", 0.1), ("float32", 0.0), ("float32", 0.1)],
        ids=["float64-ideal", "float64-variation", "float32-fused", "float32-variation"],
    )
    def test_hidden_latch(self, dtype, variation):
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(
                12,
                7,
                input_bits=None,
                noise=NoiseSpec(variation, 0.0),
                compute=ComputeSpec(dtype=dtype),
            ),
            rng=4,
        )
        rng = np.random.default_rng(1)
        substrate.program(
            rng.normal(0, 1.0, (12, 7)), rng.normal(0, 0.5, 12), rng.normal(0, 0.5, 7)
        )
        visible = (rng.random((300, 12)) < 0.5).astype(float)
        field = substrate.hidden_field(visible)
        twin = StochasticNeuronSampler(7, rng=copy.deepcopy(substrate.hidden_sampler._rng))
        if substrate._fused_sampling:
            expected = sample_from_field(twin, field)
        else:
            expected = sample(twin, unit_output(substrate.hidden_sigmoid, field))
        latched = substrate.sample_hidden_given_visible(visible)
        np.testing.assert_array_equal(latched, expected)
        assert latched.dtype == np.dtype(dtype)
        assert 0.0 < latched.mean() < 1.0


class TestOracleLatch:
    """The oracle's validated latch (``tests/helpers/reference.py``): the
    range and width checks the library's trusted latch leaves out."""

    def test_out_of_range_probabilities_rejected(self):
        sampler = StochasticNeuronSampler(2, rng=0)
        with pytest.raises(ValidationError):
            latch(sampler, np.array([[0.5, 1.2]]))

    def test_latches_probability_above_its_float64_reference(self):
        p = np.random.default_rng(4).random((6, 3)).astype(np.float32)
        out = latch(StochasticNeuronSampler(3, rng=9), p)
        reference = np.random.default_rng(9).random(p.shape)
        np.testing.assert_array_equal(out, (p > reference).astype(np.float64))
        assert out.dtype == np.float64

    @pytest.mark.parametrize("p", [np.zeros((2, 5)), 0.5], ids=["width", "scalar"])
    def test_shape_mismatch_rejected(self, p):
        """A scalar once raised a bare IndexError from the width check."""
        sampler = StochasticNeuronSampler(4, rng=0)
        with pytest.raises(ValidationError, match="n_units=4"):
            latch(sampler, p)

    def test_accepts_the_closed_unit_interval(self):
        """The endpoints pass the range check and latch deterministically."""
        out = latch(StochasticNeuronSampler(2, rng=0), np.tile([0.0, 1.0], (50, 1)))
        np.testing.assert_array_equal(out, np.tile([0.0, 1.0], (50, 1)))

    def test_accepts_an_empty_batch(self):
        out = latch(StochasticNeuronSampler(3, rng=0), np.zeros((0, 3)))
        assert out.shape == (0, 3) and out.dtype == np.float64

    @pytest.mark.parametrize("p", [[-0.1, 0.5], [0.5, 1.1]])
    def test_rejects_outside_unit_interval(self, p):
        with pytest.raises(ValidationError, match="probabilities"):
            latch(StochasticNeuronSampler(2, rng=0), p)
