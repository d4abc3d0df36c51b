"""The node's stochastic latch: thermal-noise reference plus comparator (App. B.3).

The paper makes each node probabilistic by comparing the sigmoid unit's
output voltage against an amplified thermal-noise source in a standard
dynamic comparator; the latched comparator output is the binary node
sample.  The amplifier and bias are arranged so the reference is uniform
over the comparator's input range, which makes ``P(out=1) = p`` exact; the
behavioral model draws that uniform reference and latches ``p > u``.
"""

from __future__ import annotations

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_int


class StochasticNeuronSampler:
    """Sigmoid-output vs. random-reference sampling: the per-node Bernoulli draw.

    The operation the hardware performs at every node: latch 1 with
    probability equal to the sigmoid unit's output voltage, by comparing it
    against a uniform reference drawn from this sampler's own generator.
    The settle kernel (:mod:`repro.ising.bipartite`) runs the comparison
    inline on this sampler's stream; the sampler holds the node count and
    the stream.

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
