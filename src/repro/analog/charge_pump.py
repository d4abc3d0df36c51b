"""Charge-redistribution weight-update circuit of the BGF coupling unit (App. B.4).

In the Boltzmann gradient follower every coupling unit carries a training
circuit: a CMOS charge pump that moves a small, accurately-controlled packet
of charge onto (positive phase) or off (negative phase) the gate capacitor
holding the coupling weight, *only when* the corresponding product
``v_i * h_j`` is 1 for the current sample.  The behavioral model captures
the properties the paper calls out:

* the increment direction is set by the phase (positive / negative sample),
* the step size is set by the capacitor ratio (our ``step_size``, playing
  the role of the learning rate ``alpha`` for an effective minibatch of 1),
* the update is *non-linear in the stored weight* — charge redistribution
  moves less charge as the gate voltage approaches the rail — which is the
  ``f_ij(.)`` in the paper's Eq. 12,
* per-unit static variation and per-update dynamic noise.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.utils.numerics import as_float_array
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import (
    ValidationError,
    check_binary,
    check_bool,
    check_in_range,
    check_int,
    check_positive,
    check_range,
)


class _Scratch(NamedTuple):
    """Work buffers of one update target, and the law's constants as 0-d
    arrays of its dtype: the values ufuncs would cast Python floats to,
    without the per-call conversion."""

    headroom: np.ndarray
    steps: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    span: np.ndarray
    margin: np.ndarray
    step_size: np.ndarray
    zero: np.ndarray
    one: np.ndarray


class ChargePumpUpdater:
    """In-place weight adjuster modelling the per-coupling charge pump.

    Parameters
    ----------
    shape:
        Shape of the coupling array it serves, ``(n_visible, n_hidden)``.
    step_size:
        Nominal weight change per qualifying sample (the hardware
        equivalent of the learning rate at minibatch size 1).
    weight_range:
        ``(w_min, w_max)`` representable by the gate voltage.  Updates
        saturate smoothly toward these rails.
    saturation:
        If True (default), apply the charge-redistribution non-linearity
        ``f_ij``: the step is constant over most of the range (the circuit
        is designed so the transferred charge packet is nearly independent
        of the stored voltage) and rolls off linearly to zero within the
        last ``saturation_margin`` fraction of headroom before either rail.
        If False the step is constant until hard clipping (an idealized
        pump).
    saturation_margin:
        Fraction of the weight range over which the roll-off happens (only
        meaningful when ``saturation`` is True).
    variation_rms:
        RMS fractional mismatch of the per-unit step size (static, drawn
        once at construction).
    noise_rms:
        RMS fractional noise on every individual update (dynamic).
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        step_size: float = 1e-3,
        *,
        weight_range: Tuple[float, float] = (-1.0, 1.0),
        saturation: bool = True,
        saturation_margin: float = 0.25,
        variation_rms: float = 0.0,
        noise_rms: float = 0.0,
        rng: SeedLike = None,
    ):
        if not isinstance(shape, (tuple, list)) or len(shape) != 2:
            raise ValidationError(f"shape must be a pair (rows, cols), got {shape!r}")
        self.shape = (check_int(shape[0], "shape", 1), check_int(shape[1], "shape", 1))
        self.step_size = check_positive(step_size, name="step_size")
        self.weight_range = check_range(weight_range, name="weight_range")
        self.saturation = check_bool(saturation, "saturation")
        self.saturation_margin = check_in_range(
            saturation_margin, 0.0, 1.0, name="saturation_margin", inclusive=(False, True)
        )
        self.variation_rms = check_positive(variation_rms, name="variation_rms", strict=False)
        self.noise_rms = check_positive(noise_rms, name="noise_rms", strict=False)
        self._rng = as_rng(rng)
        if self.variation_rms > 0:
            self._unit_gain = 1.0 + self._rng.normal(0.0, self.variation_rms, size=self.shape)
            self._unit_gain = np.maximum(self._unit_gain, 0.05)
        else:
            self._unit_gain = np.ones(self.shape, dtype=np.float64)
        # step_size and the static per-unit gain never change after
        # construction, so their product is precomputed once; every update
        # path reads this (and must never mutate it).
        self._base_steps = self.step_size * self._unit_gain
        self._last_scratch: Optional[_Scratch] = None

    # ------------------------------------------------------------------ #
    def _scratch(self, values: np.ndarray) -> _Scratch:
        """Work buffers for updates of arrays like ``values``, kept between
        calls — a pump serves one array, so they are rebuilt only when its
        shape or dtype changes (which also makes an updater single-threaded,
        as its in-place update and noise stream already are)."""
        scratch = self._last_scratch
        if (
            scratch is None
            or scratch.headroom.shape != values.shape
            or scratch.headroom.dtype != values.dtype
        ):
            steps = np.empty(values.shape, dtype=np.float64)
            headroom = steps if values.dtype == np.float64 else np.empty_like(values)
            lo, hi = self.weight_range
            constants = (lo, hi, hi - lo, self.saturation_margin, self.step_size, 0.0, 1.0)
            scratch = _Scratch(
                headroom, steps, *(np.array(c, dtype=values.dtype) for c in constants)
            )
            self._last_scratch = scratch
        return scratch

    def _steps(self, values: np.ndarray, positive: bool, bias: bool, scratch: _Scratch):
        """Noise-free steps ``base * f(values)``, written into ``scratch.steps``.

        ``f`` in [0, 1] is the charge-redistribution factor: full-strength
        transfer while more than ``saturation_margin`` of the range remains
        toward the target rail, linear roll-off to zero at the rail itself
        (1 without ``saturation``).  Weights scale the per-unit mismatched
        float64 base steps; a bias (the clamp column) scales the nominal
        ``step_size`` in its own dtype and rolls off over the whole range.
        """
        headroom = scratch.headroom
        if self.saturation:
            if positive:
                np.subtract(scratch.hi, values, out=headroom)
            else:
                np.subtract(values, scratch.lo, out=headroom)
            np.divide(headroom, scratch.span, out=headroom)
            if not bias:
                np.divide(headroom, scratch.margin, out=headroom)
            np.maximum(headroom, scratch.zero, out=headroom)
            np.minimum(headroom, scratch.one, out=headroom)
        else:
            headroom.fill(1.0)
        base = scratch.step_size if bias else self._base_steps
        return np.multiply(base, headroom, out=scratch.steps)

    def _update(self, values: np.ndarray, *gates, positive: bool, bias: bool) -> np.ndarray:
        """The update law, in place and unvalidated — the one implementation
        behind every ``apply*`` entry point.

        ``values`` moves by ``f(values) * base * (1 + noise)`` toward the
        phase's rail wherever the product of the binary ``gates`` (each
        broadcast against ``values``) is 1, then clips to the rails.
        """
        scratch = self._scratch(values)
        steps = self._steps(values, positive, bias, scratch)
        if self.noise_rms > 0:
            noise = self._rng.normal(0.0, self.noise_rms, size=values.shape)
            noise += 1.0
            steps *= noise
        for gate in gates:
            steps *= gate
        if positive:
            values += steps
        else:
            values -= steps
        np.maximum(values, scratch.lo, out=values)
        return np.minimum(values, scratch.hi, out=values)

    def apply(
        self,
        weights: np.ndarray,
        correlation: np.ndarray,
        *,
        positive: bool,
    ) -> np.ndarray:
        """Apply one sample's update in place and return the weights.

        Parameters
        ----------
        weights:
            Coupling array, modified in place.
        correlation:
            The binary outer product ``v_i * h_j`` of the current sample
            (1 enables the charge transfer for that unit, 0 leaves it).
        positive:
            True for the positive (increment) phase, False for the negative
            (decrement) phase — the ``Phase`` control signal of Fig. 14.
        """
        # Preserve tier-dtype arrays as-is: coercing a float32 coupling array
        # to float64 would silently copy it and strand the in-place update on
        # the copy (the float32 substrate tier owns its weights directly).
        weights = as_float_array(weights)
        correlation = check_binary(correlation, name="correlation")
        if weights.shape != self.shape or correlation.shape != self.shape:
            raise ValidationError(
                "weights and correlation must both have shape "
                f"{self.shape}; got {weights.shape} and {correlation.shape}"
            )
        return self._update(weights, correlation, positive=positive, bias=False)

    def apply_sample(self, weights, v_bits, h_bits, *, positive: bool) -> np.ndarray:
        """Trusted :meth:`apply` from raw latch bits: the ``v_i`` column and
        ``h_j`` row gates land the correlation's values."""
        return self._update(
            weights, v_bits[:, None], h_bits[None, :], positive=positive, bias=False
        )

    def apply_bias_sample(self, biases, active, *, positive: bool) -> np.ndarray:
        """Trusted counterpart of :meth:`apply_bias` for binary ``active`` bits."""
        return self._update(biases, active, positive=positive, bias=True)

    def apply_bias(
        self,
        biases: np.ndarray,
        active: np.ndarray,
        *,
        positive: bool,
    ) -> np.ndarray:
        """Apply the analogous update to a bias vector (clamp-unit column of 1s).

        The bias row/column of Fig. 4 is a coupling column whose other node
        is permanently 1, so the same charge-pump law applies with the
        node's own binary state gating the transfer.
        """
        biases = as_float_array(biases)
        active = check_binary(active, name="active")
        if biases.shape != active.shape:
            raise ValidationError("biases and active must have the same shape")
        return self._update(biases, active, positive=positive, bias=True)
