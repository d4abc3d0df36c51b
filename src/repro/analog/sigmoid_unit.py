"""Behavioral model of the analog sigmoid unit (Appendix B.2).

The paper implements the logistic activation with a deliberately low-gain
differential-to-single-ended amplifier whose transfer curve closely
follows ``S(x) = 1 / (1 + exp(-x))``.  The behavioral model is that
logistic, optionally with a gain mismatch per instantiated unit (process
variation), expressed as a Gaussian RMS fraction, matching the paper's
Section 4.5 noise-injection methodology.  The settle kernel
(:mod:`repro.ising.bipartite`) applies the gains and the logistic inline;
this class draws and holds the mismatch.  Dynamic noise enters the settle
at the node fields and couplings (:class:`~repro.analog.noise.NoiseModel`),
not at the sigmoid output.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_int, check_positive


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
