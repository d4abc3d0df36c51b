"""The paper's contribution: two Ising-machine-based RBM training architectures.

* :class:`~repro.core.gibbs_sampler.GibbsSamplerMachine` /
  :class:`~repro.core.gibbs_sampler.GibbsSamplerTrainer` — Sec. 3.2's
  "Gibbs sampler" (GS): the augmented Ising substrate performs the
  conditional sampling steps of CD-k while the host accumulates statistics
  and applies the weight updates each minibatch.

* :class:`~repro.core.gradient_follower.BoltzmannGradientFollower` /
  :class:`~repro.core.gradient_follower.BGFTrainer` — Sec. 3.3's
  "Boltzmann gradient follower" (BGF): charge-pump training circuits at
  every coupling unit apply the gradient in place, sample by sample, with
  persistent particles for the negative phase; the host only feeds data and
  reads the final weights through ADCs.

Both machines are built from a spec plus runtime arguments: the GS machine
from a :class:`~repro.config.SubstrateSpec`, the BGF machine from its
``TrainerSpec(kind="bgf")``, the array dimensions and a seed.

Both trainers expose the same ``train(rbm, data, epochs=...)`` interface as
the software :class:`~repro.rbm.rbm.CDTrainer`, so they can be swapped into
the DBN, recommender and anomaly pipelines without modification — which is
exactly how the paper's Table 4 compares cd-10 against BGF.
"""

from repro.core.gibbs_sampler import GibbsSamplerMachine, GibbsSamplerTrainer
from repro.core.gradient_follower import BGFTrainer, BoltzmannGradientFollower
from repro.core.host import HostStatistics

__all__ = [
    "GibbsSamplerMachine",
    "GibbsSamplerTrainer",
    "BoltzmannGradientFollower",
    "BGFTrainer",
    "HostStatistics",
]
