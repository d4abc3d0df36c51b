"""Tests for the charge-pump weight-update model (the BGF's f_ij)."""

import numpy as np
import pytest

from repro.analog import ChargePumpUpdater
from repro.analog.charge_pump import SATURATION_MARGIN
from repro.utils.validation import ValidationError


def _pump(**kwargs) -> ChargePumpUpdater:
    defaults = dict(shape=(4, 3), step_size=0.1, weight_range=(-1.0, 1.0), rng=0)
    defaults.update(kwargs)
    return ChargePumpUpdater(**defaults)


def _steps(pump, weights, positive=True) -> np.ndarray:
    """Per-unit move of one update with every gate open: the pump's
    effective step matrix wherever no rail clips it."""
    moved = np.array(weights, dtype=float)
    pump.apply(moved, np.ones(moved.shape), positive=positive)
    return np.abs(moved - weights)


class TestConfiguration:
    def test_invalid_shape(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((0, 3), 0.1)

    def test_invalid_step(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((2, 2), 0.0)

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            ChargePumpUpdater((2, 2), 0.1, weight_range=(1.0, -1.0))


class TestBasicUpdates:
    def test_positive_phase_increments_only_active_units(self):
        pump = _pump()
        weights = np.zeros((4, 3))
        correlation = np.zeros((4, 3))
        correlation[1, 2] = 1.0
        pump.apply(weights, correlation, positive=True)
        assert weights[1, 2] == pytest.approx(0.1)
        assert np.count_nonzero(weights) == 1

    def test_negative_phase_decrements(self):
        pump = _pump()
        weights = np.zeros((4, 3))
        correlation = np.ones((4, 3))
        pump.apply(weights, correlation, positive=False)
        np.testing.assert_allclose(weights, -0.1)

    def test_weights_modified_in_place(self):
        pump = _pump()
        weights = np.zeros((4, 3))
        out = pump.apply(weights, np.ones((4, 3)), positive=True)
        assert out is weights

    def test_inactive_units_untouched(self):
        pump = _pump()
        weights = np.full((4, 3), 0.3)
        pump.apply(weights, np.zeros((4, 3)), positive=True)
        np.testing.assert_allclose(weights, 0.3)

    def test_correlation_must_be_binary(self):
        pump = _pump()
        with pytest.raises(ValidationError):
            pump.apply(np.zeros((4, 3)), np.full((4, 3), 0.5), positive=True)

    def test_shape_mismatch_rejected(self):
        pump = _pump()
        with pytest.raises(ValidationError):
            pump.apply(np.zeros((3, 4)), np.zeros((3, 4)), positive=True)


class TestSaturationNonlinearity:
    def test_weights_never_exceed_range(self):
        pump = _pump(step_size=0.3)
        weights = np.zeros((4, 3))
        for _ in range(50):
            pump.apply(weights, np.ones((4, 3)), positive=True)
        assert weights.max() <= 1.0 + 1e-12

    def test_step_shrinks_near_positive_rail(self):
        pump = _pump()
        far = _steps(pump, np.zeros((4, 3)))
        near = _steps(pump, np.full((4, 3), 0.9))
        assert np.all(near < far)

    def test_step_constant_in_linear_region(self):
        """The designed pump transfers a fixed charge packet away from the rails."""
        pump = _pump()
        low = _steps(pump, np.full((4, 3), -0.2))
        mid = _steps(pump, np.zeros((4, 3)))
        np.testing.assert_allclose(low, mid)

    def test_decrement_saturates_at_negative_rail(self):
        pump = _pump(step_size=0.3)
        weights = np.zeros((4, 3))
        for _ in range(50):
            pump.apply(weights, np.ones((4, 3)), positive=False)
        assert weights.min() >= -1.0 - 1e-12

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("weight", [-0.95, -0.6, -0.3, 0.0, 0.3, 0.6, 0.95])
    def test_weight_step_follows_f_ij(self, weight, positive):
        """``f_ij``: full step while more than the saturation margin of the
        range remains toward the phase's rail, linear roll-off to zero at
        the rail itself."""
        pump = _pump(step_size=1e-3)
        headroom = (1.0 - weight) if positive else (weight + 1.0)
        expected = 1e-3 * np.clip(headroom / (2.0 * SATURATION_MARGIN), 0.0, 1.0)
        np.testing.assert_allclose(
            _steps(pump, np.full((4, 3), weight), positive=positive), expected, rtol=1e-9
        )

    @pytest.mark.parametrize("positive", [True, False])
    def test_weight_at_its_rail_does_not_move(self, positive):
        pump = _pump()
        rail = 1.0 if positive else -1.0
        np.testing.assert_array_equal(
            _steps(pump, np.full((4, 3), rail), positive=positive), 0.0
        )


class TestVariationAndNoise:
    def test_static_variation_gives_per_unit_steps(self):
        pump = _pump(variation_rms=0.3, rng=1)
        steps = _steps(pump, np.zeros((4, 3)))
        assert np.std(steps) > 0.0

    def test_static_variation_is_static(self):
        pump = _pump(variation_rms=0.3, rng=2)
        a = _steps(pump, np.zeros((4, 3)))
        b = _steps(pump, np.zeros((4, 3)))
        np.testing.assert_array_equal(a, b)

    def test_dynamic_noise_varies_updates(self):
        pump = _pump(noise_rms=0.3, rng=3)
        weights_a = np.zeros((4, 3))
        weights_b = np.zeros((4, 3))
        pump.apply(weights_a, np.ones((4, 3)), positive=True)
        pump.apply(weights_b, np.ones((4, 3)), positive=True)
        assert not np.allclose(weights_a, weights_b)

    def test_expected_update_close_to_nominal_under_noise(self):
        pump = _pump(step_size=0.004, noise_rms=0.2, rng=4)
        weights = np.zeros((4, 3))
        # 100 updates keep every weight below the roll-off region.
        n_updates = 100
        for _ in range(n_updates):
            pump.apply(weights, np.ones((4, 3)), positive=True)
        np.testing.assert_allclose(weights / n_updates, 0.004, rtol=0.1)


class TestBiasUpdates:
    def test_bias_increment_and_decrement(self):
        """A bias step rolls off over the whole range: half the nominal
        step at the midpoint, and the headroom toward the phase's rail
        sets the next one."""
        pump = _pump()
        biases = np.zeros(4)
        active = np.array([1.0, 0.0, 1.0, 0.0])
        pump.apply_bias(biases, active, positive=True)
        np.testing.assert_allclose(biases, [0.05, 0.0, 0.05, 0.0])
        pump.apply_bias(biases, active, positive=False)
        np.testing.assert_allclose(biases, [0.05 - 0.1 * 1.05 / 2, 0.0] * 2)

    def test_bias_respects_range(self):
        pump = _pump(step_size=0.5)
        biases = np.zeros(3)
        for _ in range(20):
            pump.apply_bias(biases, np.ones(3), positive=True)
        assert biases.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("bias", [-0.5, 0.0, 0.5])
    def test_bias_step_rolls_off_over_the_whole_range(self, bias, positive):
        pump = _pump()
        biases = np.full(4, bias)
        pump.apply_bias(biases, np.ones(4), positive=positive)
        headroom = (1.0 - bias) if positive else (bias + 1.0)
        np.testing.assert_allclose(np.abs(biases - bias), 0.1 * headroom / 2.0)

    def test_bias_shape_mismatch(self):
        pump = _pump()
        with pytest.raises(ValidationError):
            pump.apply_bias(np.zeros(3), np.zeros(4), positive=True)


class TestWorkBuffers:
    def test_one_updater_serves_arrays_of_any_shape_and_dtype(self):
        """The buffers kept between calls follow the array being updated: a
        pump alternating between targets updates each exactly as a fresh
        pump would."""
        rng = np.random.default_rng(5)
        targets = [
            rng.uniform(-0.9, 0.9, (4, 3)),
            rng.uniform(-0.9, 0.9, (4, 3)).astype(np.float32),
            rng.uniform(-0.9, 0.9, 4),
            rng.uniform(-0.9, 0.9, 4).astype(np.float32),
        ]
        shared = _pump(step_size=0.3)
        for positive in (True, False):
            for values in targets:
                expected = values.copy()
                active = np.ones(values.shape)
                if values.ndim == 2:
                    _pump(step_size=0.3).apply(expected, active, positive=positive)
                    shared.apply(values, active, positive=positive)
                else:
                    _pump(step_size=0.3).apply_bias(expected, active, positive=positive)
                    shared.apply_bias(values, active, positive=positive)
                assert values.dtype == expected.dtype
                np.testing.assert_array_equal(values, expected)


class TestTrustedEntryPoints:
    """The raw-latch-bit updates the BGF kernel calls land the same values,
    bit for bit, as the validated ``apply``/``apply_bias`` on the outer
    product."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sample_updates_equal_validated_updates(self, dtype):
        rng = np.random.default_rng(3)
        start = rng.uniform(-1.0, 1.0, (4, 3)).astype(dtype)
        bias_start = rng.uniform(-1.0, 1.0, 4).astype(dtype)
        samples = [(rng.random(4) < 0.5, rng.random(3) < 0.5) for _ in range(20)]
        results = []
        for trusted in (True, False):
            pump = _pump(variation_rms=0.1, noise_rms=0.1)
            bias_pump = _pump(shape=(4, 1), noise_rms=0.1)
            weights, biases = start.copy(), bias_start.copy()
            for step, (v, h) in enumerate(samples):
                v_bits, h_bits = v.astype(np.float64), h.astype(np.float64)
                positive = step % 2 == 0
                if trusted:
                    pump.apply_sample(weights, v_bits, h_bits, positive=positive)
                    bias_pump.apply_bias_sample(biases, v_bits, positive=positive)
                else:
                    pump.apply(weights, np.outer(v_bits, h_bits), positive=positive)
                    bias_pump.apply_bias(biases, v_bits, positive=positive)
            results.append((weights, biases))
        for trusted, validated in zip(*results):
            assert trusted.dtype == validated.dtype == dtype
            np.testing.assert_array_equal(trusted, validated)


class TestBiasPumps:
    """A pump with its bias column's and row's pumps also serves the
    augmented ``(m + 1, n + 1)`` buffer (the per-pump equivalence is pinned
    in ``tests/core/test_kernel_equivalence.py``)."""

    def _pumps(self):
        return _pump(shape=(4, 1), rng=1), _pump(shape=(3, 1), rng=2)

    def test_buffer_pulse_moves_weights_and_both_bias_vectors(self):
        pump = _pump(bias_pumps=self._pumps())
        buffer = np.zeros((5, 4))
        v_gate = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        h_gate = np.array([0.0, 1.0, 1.0, 1.0])
        pump.apply_sample(buffer, v_gate, h_gate, positive=True)
        expected = np.zeros((5, 4))
        expected[[0, 2], 1:3] = 0.1
        # Bias units roll off over the whole range: half a step at 0.
        expected[[0, 2], 3] = 0.05
        expected[4, 1:3] = 0.05
        np.testing.assert_allclose(buffer, expected)
        assert buffer[4, 3] == 0.0

    @pytest.mark.parametrize(
        "visible, hidden",
        [
            (dict(shape=(3, 1)), dict(shape=(3, 1))),
            (dict(shape=(4, 1), step_size=0.2), dict(shape=(3, 1))),
            (dict(shape=(4, 1)), dict(shape=(3, 1), noise_rms=0.1)),
            (dict(shape=(4, 1), weight_range=(-2.0, 2.0)), dict(shape=(3, 1))),
        ],
    )
    def test_bias_pumps_must_fit_the_array_and_share_its_law(self, visible, hidden):
        with pytest.raises(ValidationError, match="bias_pumps"):
            _pump(bias_pumps=(_pump(**visible), _pump(**hidden)))

    def test_buffer_needs_bias_pumps(self):
        with pytest.raises(ValidationError, match="augmented buffer"):
            _pump().apply_sample(np.zeros((5, 4)), np.ones(5), np.ones(4), positive=True)
