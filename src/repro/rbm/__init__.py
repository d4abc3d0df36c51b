"""Energy-based models: RBMs, training algorithms, and likelihood estimation.

This package contains the software (von Neumann) reference implementations
that the paper's accelerators are compared against:

* :class:`~repro.rbm.rbm.BernoulliRBM` — the model itself (energy, free
  energy, conditionals, sampling).
* :class:`~repro.rbm.rbm.CDTrainer` — Algorithm 1 of the paper (CD-k with
  minibatch stochastic gradient ascent).  The paper's PCD runs on the
  substrate: :class:`~repro.core.gibbs_sampler.GibbsSamplerTrainer` with
  ``persistent=True``.
* :class:`~repro.rbm.ml.MaximumLikelihoodTrainer` — exact gradient via
  enumeration, tractable only for tiny models; used in the Appendix-A bias
  study (Figure 11).
* :mod:`~repro.rbm.partition` — exact partition functions and model
  distributions by enumeration.
* :mod:`~repro.rbm.ais` — annealed importance sampling, the estimator the
  paper uses for average log probability (Figures 7 and 8).
* :class:`~repro.rbm.dbn.DeepBeliefNetwork` — greedy layer-wise stacking
  plus a classifier head (the DBN-DNN rows of Tables 1 and 4).
"""

from repro.rbm.rbm import BernoulliRBM, CDTrainer, TrainingHistory
from repro.rbm.ml import MaximumLikelihoodTrainer
from repro.rbm.partition import (
    exact_log_partition,
    exact_visible_distribution,
    exact_joint_distribution,
    exact_log_likelihood,
    exact_model_moments,
)
from repro.rbm.ais import AISEstimator, estimate_log_partition, average_log_probability
from repro.rbm.dbn import DeepBeliefNetwork
from repro.rbm.metrics import (
    reconstruction_error,
    free_energy_gap,
    pseudo_log_likelihood,
)

__all__ = [
    "BernoulliRBM",
    "CDTrainer",
    "TrainingHistory",
    "MaximumLikelihoodTrainer",
    "exact_log_partition",
    "exact_visible_distribution",
    "exact_joint_distribution",
    "exact_log_likelihood",
    "exact_model_moments",
    "AISEstimator",
    "estimate_log_partition",
    "average_log_probability",
    "DeepBeliefNetwork",
    "reconstruction_error",
    "free_energy_gap",
    "pseudo_log_likelihood",
]
