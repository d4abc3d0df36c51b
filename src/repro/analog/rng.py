"""The node's stochastic latch: thermal-noise reference plus comparator (App. B.3).

The paper makes each node probabilistic by comparing the sigmoid unit's
output voltage against an amplified thermal-noise source in a standard
dynamic comparator; the latched comparator output is the binary node
sample.  The amplifier and bias are arranged so the reference is uniform
over the comparator's input range, which makes ``P(out=1) = p`` exact; the
behavioral model draws that uniform reference and latches ``p > u``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.numerics import fused_sigmoid_bernoulli
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_int


def _draw_dtype(values) -> np.dtype:
    """Tier rule: float32 inputs draw float32 references; every other
    numeric dtype keeps the float64 draw (``Generator.random`` supports
    only the two tiered dtypes)."""
    if getattr(values, "dtype", None) == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


class StochasticNeuronSampler:
    """Sigmoid-output vs. random-reference sampling: the per-node Bernoulli draw.

    The operation the hardware performs at every node: latch 1 with
    probability equal to the sigmoid unit's output voltage, by comparing it
    against a uniform reference drawn from this sampler's own generator.

    Parameters
    ----------
    n_units:
        Number of nodes the sampler latches.
    rng:
        Generator of the thermal-noise references.
    """

    def __init__(self, n_units: int, *, rng: SeedLike = None):
        self.n_units = check_int(n_units, "n_units", 1)
        self._rng = as_rng(rng)

    def spawn_substream(self, rng: SeedLike) -> "StochasticNeuronSampler":
        """A sampler of the same width drawing its references from ``rng``.

        The sharded settle kernel gives every worker shard its own clone so
        concurrent shards never contend on (or nondeterministically
        interleave) one generator.
        """
        return StochasticNeuronSampler(self.n_units, rng=rng)

    def sample(self, probabilities: np.ndarray) -> np.ndarray:
        """Draw binary samples whose success probabilities are ``probabilities``.

        Trusted and dtype-preserving: the probabilities come straight from
        the sigmoid units, in [0, 1] by construction, so nothing is checked;
        float32 probabilities draw float32 uniform references and latch
        float32 samples, every other dtype draws and latches float64.
        """
        dtype = _draw_dtype(probabilities)
        reference = self._rng.random(np.shape(probabilities), dtype=dtype)
        return (probabilities > reference).astype(dtype)

    def sample_from_field(self, field: np.ndarray) -> np.ndarray:
        """Fused latch: Bernoulli(``sigmoid(field)``) without the sigmoid.

        The float32 precision tier's inner draw — one logit-space compare of
        the pre-activation field against the thermal-noise reference (see
        :func:`repro.utils.numerics.fused_sigmoid_bernoulli`), drawn in the
        field's dtype.  Only valid when the sigmoid units are the identity
        transfer curve; callers check it.
        """
        uniforms = self._rng.random(np.shape(field), dtype=_draw_dtype(field))
        return fused_sigmoid_bernoulli(field, uniforms)

