"""Behavioral model of the analog sigmoid unit (Appendix B.2).

The paper implements the logistic activation with a deliberately low-gain
differential-to-single-ended amplifier: its transfer curve closely follows
``S(x) = 1 / (1 + exp(-c1 (x - c2)))`` where the gain ``c1`` and offset
``c2`` are set by a bias-current control.  The behavioral model reproduces
that transfer function and optionally adds a gain mismatch per instantiated
unit (process variation), expressed as a Gaussian RMS fraction, matching
the paper's Section 4.5 noise-injection methodology.  Dynamic noise enters
the settle at the node fields and couplings
(:class:`~repro.analog.noise.NoiseModel`), not at the sigmoid output.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.numerics import as_float_array, sigmoid
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_finite, check_int, check_positive


class SigmoidUnit:
    """Analog sigmoid (logistic) activation unit.

    Parameters
    ----------
    gain:
        Hyper-parameter ``c1``: slope of the transfer curve at its center.
        The ideal software algorithm corresponds to ``gain=1``.
    offset:
        Hyper-parameter ``c2``: input offset of the transfer curve.
    n_units:
        Number of physical unit instances (one per hidden or visible node);
        used to draw a fixed per-unit gain/offset mismatch once.
    gain_variation_rms:
        RMS fractional variation of the gain across units (static process
        variation, drawn once at construction).
    """

    def __init__(
        self,
        gain: float = 1.0,
        offset: float = 0.0,
        *,
        n_units: Optional[int] = None,
        gain_variation_rms: float = 0.0,
        rng: SeedLike = None,
    ):
        self.gain = check_positive(gain, name="gain")
        self.offset = check_finite(offset, name="offset")
        self.gain_variation_rms = check_positive(
            gain_variation_rms, name="gain_variation_rms", strict=False
        )
        self._rng = as_rng(rng)
        self.n_units = None if n_units is None else check_int(n_units, "n_units", 1)
        if self.n_units is not None and self.gain_variation_rms > 0:
            self._unit_gains = self.gain * (
                1.0 + self._rng.normal(0.0, self.gain_variation_rms, size=self.n_units)
            )
            # A physical amplifier's gain cannot go negative; clip at 5% of nominal.
            self._unit_gains = np.maximum(self._unit_gains, 0.05 * self.gain)
        else:
            self._unit_gains = None

    @property
    def is_identity(self) -> bool:
        """True when this unit is exactly the software logistic ``sigmoid(x)``.

        Holds in the ideal corner only: nominal unit gain, zero offset, no
        per-unit gain mismatch.  The substrate's fused
        sigmoid→compare latch is valid precisely under this condition.
        """
        return self._unit_gains is None and self.gain == 1.0 and self.offset == 0.0

    def ideal(self, x: np.ndarray) -> np.ndarray:
        """Noise-free transfer function S(x) = sigmoid(gain * (x - offset))."""
        x = np.asarray(x, dtype=float)
        return sigmoid(self.gain * (x - self.offset))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the unit, applying the per-unit gain variation.

        ``x`` may be 1-D (one value per unit) or 2-D (batch, units); the
        per-unit gain mismatch is applied along the last axis.  Float32
        inputs stay float32 through the ideal transfer curve (the precision
        tier); the variation corner may compute in float64 — callers
        that need a fixed output dtype cast the (exactly representable)
        binary latch downstream.
        """
        if self.is_identity:
            # The ideal unit, the settle kernel's common case.
            return sigmoid(x)
        x = as_float_array(x)
        if self._unit_gains is not None:
            if x.shape[-1] != self.n_units:
                raise ValueError(
                    f"input last dimension {x.shape[-1]} does not match n_units={self.n_units}"
                )
            gains = self._unit_gains
        else:
            gains = self.gain
        return sigmoid(gains * (x - self.offset))
