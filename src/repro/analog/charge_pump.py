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
    check_int,
    check_positive,
    check_range,
)

# Fraction of the weight range over which a weight's step rolls off to zero
# before either rail: the charge-redistribution non-linearity ``f_ij``.
SATURATION_MARGIN = 0.25


class _Scratch(NamedTuple):
    """Work buffers of one update target, and its law's per-element (or 0-d)
    constants in the target's dtype: the values ufuncs would cast Python
    floats to, without the per-call conversion.

    ``base`` is every element's unit step and ``rolloff`` the headroom over
    which its step rolls off (the weight range times its margin);
    ``noise_parts`` names, per slice of the target, the generator and RMS
    its units draw their dynamic noise from (each pump's own stream; held
    as generators, not pumps, so a pump and its scratch form no reference
    cycle); ``rounded`` names the slices whose steps a float32 bias unit
    rounds in its own dtype."""

    headroom: np.ndarray
    steps: np.ndarray
    noise: Optional[np.ndarray]
    lo: np.ndarray
    hi: np.ndarray
    rolloff: np.ndarray
    base: np.ndarray
    zero: np.ndarray
    one: np.ndarray
    noise_parts: tuple
    rounded: tuple
    bias: bool


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
        saturate smoothly toward these rails through the charge-redistribution
        non-linearity ``f_ij``: the step is constant over most of the range
        (the circuit is designed so the transferred charge packet is nearly
        independent of the stored voltage) and rolls off linearly to zero
        within the last :data:`SATURATION_MARGIN` fraction of headroom before
        either rail.
    variation_rms:
        RMS fractional mismatch of the per-unit step size (static, drawn
        once at construction).
    noise_rms:
        RMS fractional noise on every individual update (dynamic).
    bias_pumps:
        The pumps of the array's bias column (visible biases, shape
        ``(n_visible, 1)``) and bias row (hidden biases, ``(n_hidden, 1)``):
        the coupling units whose other node is permanently 1 (Fig. 4).
        With them, :meth:`apply_sample` also pulses the augmented
        ``(n_visible + 1, n_hidden + 1)`` buffer — the array with its bias
        column and row, the corner unused — in one update, every bias unit
        drawing its dynamic noise from its own pump's stream.  They share
        this pump's step size, rails and noise level.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        step_size: float = 1e-3,
        *,
        weight_range: Tuple[float, float] = (-1.0, 1.0),
        variation_rms: float = 0.0,
        noise_rms: float = 0.0,
        rng: SeedLike = None,
        bias_pumps: Optional[Tuple["ChargePumpUpdater", "ChargePumpUpdater"]] = None,
    ):
        if not isinstance(shape, (tuple, list)) or len(shape) != 2:
            raise ValidationError(f"shape must be a pair (rows, cols), got {shape!r}")
        self.shape = (check_int(shape[0], "shape", 1), check_int(shape[1], "shape", 1))
        self.step_size = check_positive(step_size, name="step_size")
        self.weight_range = check_range(weight_range, name="weight_range")
        self.variation_rms = check_positive(variation_rms, name="variation_rms", strict=False)
        self.noise_rms = check_positive(noise_rms, name="noise_rms", strict=False)
        self._rng = as_rng(rng)
        if bias_pumps is not None:
            law = (self.step_size, self.weight_range, self.noise_rms)
            shapes = [pump.shape for pump in bias_pumps]
            if shapes != [(self.shape[0], 1), (self.shape[1], 1)] or any(
                (pump.step_size, pump.weight_range, pump.noise_rms) != law
                for pump in bias_pumps
            ):
                raise ValidationError(
                    "bias_pumps must be the (n_visible, 1) and (n_hidden, 1) pumps "
                    "sharing this pump's step_size, weight_range and noise_rms"
                )
        self.bias_pumps = bias_pumps
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
    def _layout(self, shape, dtype, bias: bool):
        """The law's per-element ``(base, rolloff, noise_parts, rounded)``
        for a target of ``shape`` and ``dtype`` (see :class:`_Scratch`).

        A weight array scales the float64 per-unit mismatched base steps and
        rolls off over :data:`SATURATION_MARGIN` of the range; a bias (the
        clamp column) scales the nominal ``step_size`` in its own dtype and
        rolls off over the whole range (margin 1.0).  The augmented buffer
        holds both, and a 0 base step in its corner.  Both margins are
        powers of two, so one division by ``span * margin`` rounds exactly
        as dividing by the span and then by the margin.
        """
        lo, hi = self.weight_range
        span = np.array(hi - lo, dtype=dtype)
        step = np.array(self.step_size, dtype=dtype)
        own = ((self._rng, self.noise_rms, ...),)
        if bias:
            return step, span, own, ()
        rolloff = span * np.array(SATURATION_MARGIN, dtype=dtype)
        if shape == self.shape:
            return self._base_steps, rolloff, own, ()
        m, n = self.shape
        if self.bias_pumps is None or shape != (m + 1, n + 1):
            raise ValidationError(
                f"values of shape {shape} match neither the {self.shape} array "
                "nor, with bias pumps, its augmented buffer"
            )
        units, column, row = np.s_[:m, :n], np.s_[:m, n], np.s_[m, :n]
        base = np.zeros(shape, dtype=np.float64)
        base[units] = self._base_steps
        base[column] = base[row] = step
        rolloffs = np.full(shape, span, dtype=dtype)
        rolloffs[units] = rolloff
        visible, hidden = self.bias_pumps
        # A float32 bias unit's step is the float32 product of step and
        # headroom; the float64 product of the same two float32 values is
        # exact, so rounding it to float32 lands the same step.
        rounded = () if np.dtype(dtype) == np.float64 else (column, row)
        noise_parts = (
            (self._rng, self.noise_rms, units),
            (visible._rng, visible.noise_rms, column),
            (hidden._rng, hidden.noise_rms, row),
        )
        return base, rolloffs, noise_parts, rounded

    def _scratch(self, values: np.ndarray, bias: bool) -> _Scratch:
        """Work buffers for updates of arrays like ``values``, kept between
        calls — a pump serves one array, so they are rebuilt only when its
        shape, dtype or kind changes (which also makes an updater
        single-threaded, as its in-place update and noise stream already
        are)."""
        scratch = self._last_scratch
        if (
            scratch is None
            or scratch.headroom.shape != values.shape
            or scratch.headroom.dtype != values.dtype
            or scratch.bias != bias
        ):
            steps = np.empty(values.shape, dtype=np.float64)
            headroom = steps if values.dtype == np.float64 else np.empty_like(values)
            lo, hi, zero, one = (
                np.array(c, dtype=values.dtype) for c in (*self.weight_range, 0.0, 1.0)
            )
            base, rolloff, noise_parts, rounded = self._layout(
                values.shape, values.dtype, bias
            )
            noise = np.empty(values.shape, dtype=np.float64) if self.noise_rms > 0 else None
            scratch = _Scratch(
                headroom, steps, noise, lo, hi, rolloff, base, zero, one,
                noise_parts, rounded, bias,
            )
            self._last_scratch = scratch
        return scratch

    def _update(self, values: np.ndarray, *gates, positive: bool, bias: bool) -> np.ndarray:
        """The update law, in place and unvalidated — the one implementation
        behind every ``apply*`` entry point.

        ``values`` moves by ``base * f(values) * (1 + noise)`` toward the
        phase's rail wherever the product of the binary ``gates`` (each
        broadcast against ``values``) is 1, then clips to the rails.  ``f``
        in [0, 1] is the charge-redistribution factor: full-strength
        transfer while more than the unit's margin of the range remains
        toward the target rail, linear roll-off to zero at the rail itself.
        """
        scratch = self._scratch(values, bias)
        headroom = scratch.headroom
        if positive:
            np.subtract(scratch.hi, values, out=headroom)
        else:
            np.subtract(values, scratch.lo, out=headroom)
        np.divide(headroom, scratch.rolloff, out=headroom)
        np.maximum(headroom, scratch.zero, out=headroom)
        np.minimum(headroom, scratch.one, out=headroom)
        steps = np.multiply(scratch.base, headroom, out=scratch.steps)
        for part in scratch.rounded:
            steps[part] = steps[part].astype(values.dtype)
        if self.noise_rms > 0:
            noise = scratch.noise
            for rng, rms, part in scratch.noise_parts:
                noise[part] = rng.normal(0.0, rms, size=noise[part].shape)
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
        ``h_j`` row gates land the correlation's values.

        With :attr:`bias_pumps`, ``weights`` may be the augmented buffer and
        the bits ``[v, 1]`` and ``[h, 1]``: one pulse then moves every
        coupling and both bias vectors, each unit exactly as its own pump's
        update would."""
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
