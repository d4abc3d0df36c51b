"""Noise and process-variation injection model (Sec. 4.5 of the paper).

The paper's robustness study injects

* *static variation* on the resistance of every coupling unit — drawn once
  per chip from a Gaussian with an RMS of 3% to 30% of the nominal value —
  and
* *dynamic noise* at both the nodes and the coupling units — fresh Gaussian
  perturbations on every evaluation, with RMS again between 3% and 30%,

then sweeps the 25 combinations of the two RMS values.  A
:class:`~repro.config.specs.NoiseSpec` names one such combination (e.g.
``(0.1, 0.1)``); ``NoiseModel`` owns the drawn static variation and
produces the per-call dynamic noise, and is shared by the Gibbs-sampler and
Boltzmann-gradient-follower machines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config.specs import NoiseSpec
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError


#: The six configurations highlighted in Figures 8-10.
FIGURE8_NOISE_CONFIGS: Tuple[NoiseSpec, ...] = (
    NoiseSpec(0.0, 0.0),
    NoiseSpec(0.03, 0.03),
    NoiseSpec(0.05, 0.05),
    NoiseSpec(0.1, 0.1),
    NoiseSpec(0.2, 0.2),
    NoiseSpec(0.3, 0.3),
)


class NoiseModel:
    """Holds the static variation draw and produces dynamic noise.

    Parameters
    ----------
    spec:
        The (variation, noise) RMS operating point.
    coupling_shape:
        Shape of the coupling array the static variation applies to.
    rng:
        Seed or generator; the static variation is drawn immediately.
    """

    def __init__(
        self,
        spec: NoiseSpec,
        coupling_shape: Tuple[int, int],
        *,
        rng: SeedLike = None,
    ):
        if len(coupling_shape) != 2 or min(coupling_shape) <= 0:
            raise ValidationError(
                f"coupling_shape must be a positive 2-tuple, got {coupling_shape}"
            )
        self.spec = spec
        self.coupling_shape = (int(coupling_shape[0]), int(coupling_shape[1]))
        self._rng = as_rng(rng)
        self._coupling_gain = None
        if spec.variation_rms > 0:
            self._coupling_gain = 1.0 + self._rng.normal(
                0.0, spec.variation_rms, size=self.coupling_shape
            )

    @property
    def coupling_gain(self) -> Optional[np.ndarray]:
        """Static multiplicative variation applied to every coupling weight,
        or ``None`` in the ideal-variation corner (a gain of exactly 1,
        which :meth:`static_effective` skips)."""
        return self._coupling_gain

    @property
    def has_variation(self) -> bool:
        """True when a non-trivial static variation draw is in effect."""
        return self.spec.variation_rms > 0.0

    @property
    def has_dynamic_noise(self) -> bool:
        """True when fresh dynamic noise is injected on every evaluation."""
        return self.spec.noise_rms > 0.0

    def static_effective(self, weights: np.ndarray) -> np.ndarray:
        """Trusted kernel: variation-scaled weights without validation.

        In the ideal-variation corner the input array itself is returned
        (aliased, not copied) so the substrate's effective-weight cache is
        free; callers must treat the result as read-only.
        """
        if not self.has_variation:
            return weights
        return weights * self._coupling_gain

    def apply_dynamic(self, effective: np.ndarray) -> np.ndarray:
        """Trusted kernel: fresh dynamic coupling noise on a precomputed
        static-effective matrix (one :meth:`coupling_noise` draw)."""
        return effective * (1.0 + self.coupling_noise())

    def node_noise(self, shape, scale: float = 1.0) -> np.ndarray:
        """Fresh dynamic noise added to nodal quantities (currents/voltages).

        ``scale`` sets the magnitude the RMS fraction applies to (typically
        the standard deviation or typical magnitude of the clean signal).
        """
        if self.spec.noise_rms == 0.0:
            return np.zeros(shape, dtype=np.float64)
        return self._rng.normal(0.0, self.spec.noise_rms * scale, size=shape)

    def coupling_noise(self) -> np.ndarray:
        """Fresh dynamic noise applied multiplicatively at the coupling units."""
        if self.spec.noise_rms == 0.0:
            return np.zeros(self.coupling_shape, dtype=np.float64)
        return self._rng.normal(0.0, self.spec.noise_rms, size=self.coupling_shape)
