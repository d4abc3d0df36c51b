"""Behavioral model of the analog sigmoid unit (Appendix B.2).

The paper implements the logistic activation with a deliberately low-gain
differential-to-single-ended amplifier whose transfer curve closely
follows ``S(x) = 1 / (1 + exp(-x))``.  The behavioral model is that
logistic, optionally with a gain mismatch per instantiated unit (process
variation), expressed as a Gaussian RMS fraction, matching the paper's
Section 4.5 noise-injection methodology.  Dynamic noise enters the settle
at the node fields and couplings (:class:`~repro.analog.noise.NoiseModel`),
not at the sigmoid output.
"""

from __future__ import annotations

import numpy as np

from repro.utils.numerics import as_float_array, sigmoid
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_int, check_positive


class SigmoidUnit:
    """Analog sigmoid (logistic) activation unit.

    Parameters
    ----------
    n_units:
        Number of physical unit instances (one per hidden or visible node),
        required: the per-unit gain mismatch is drawn once over them.
    gain_variation_rms:
        RMS fractional variation of the unit gain (nominally 1) across
        units (static process variation, drawn once at construction).
    """

    def __init__(
        self,
        *,
        n_units: int,
        gain_variation_rms: float = 0.0,
        rng: SeedLike = None,
    ):
        self.gain_variation_rms = check_positive(
            gain_variation_rms, name="gain_variation_rms", strict=False
        )
        self._rng = as_rng(rng)
        self.n_units = check_int(n_units, "n_units", 1)
        if self.gain_variation_rms > 0:
            self._unit_gains = 1.0 + self._rng.normal(
                0.0, self.gain_variation_rms, size=self.n_units
            )
            # A physical amplifier's gain cannot go negative; clip at 5% of nominal.
            self._unit_gains = np.maximum(self._unit_gains, 0.05)
        else:
            self._unit_gains = None

    @property
    def is_identity(self) -> bool:
        """True when this unit is exactly the software logistic ``sigmoid(x)``:
        no per-unit gain mismatch.  The substrate's fused sigmoid→compare
        latch is valid precisely under this condition."""
        return self._unit_gains is None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the unit, applying the per-unit gain variation.

        ``x`` may be 1-D (one value per unit) or 2-D (batch, units); the
        per-unit gain mismatch is applied along the last axis.  Float32
        inputs stay float32 through the logistic (the precision tier); the
        variation corner may compute in float64 — callers that need a fixed
        output dtype cast the (exactly representable) binary latch
        downstream.
        """
        if self.is_identity:
            # The ideal unit, the settle kernel's common case.
            return sigmoid(x)
        x = as_float_array(x)
        if x.shape[-1] != self.n_units:
            raise ValidationError(
                f"input last dimension {x.shape[-1]} does not match n_units={self.n_units}"
            )
        return sigmoid(self._unit_gains * x)
