"""repro: Ising-machine-accelerated energy-based learning (MICRO '23 reproduction).

This library reproduces "Supporting Energy-Based Learning with an Ising
Machine Substrate: A Case Study on RBM" (Vengalam et al., MICRO 2023).  It
contains:

* ``repro.rbm``         -- RBMs, CD-k/exact-ML training, AIS, DBNs (the
                           software baselines).
* ``repro.ising``       -- the bipartite RBM-shaped Ising substrate.
* ``repro.analog``      -- behavioral models of the added circuits (sigmoid
                           units, comparators, RNGs, DTC/ADC, charge pumps,
                           noise/variation injection).
* ``repro.core``        -- the paper's two accelerator architectures: the
                           Gibbs sampler (GS) and the Boltzmann gradient
                           follower (BGF).
* ``repro.hardware``    -- analytical area/power/performance/energy models
                           (Figures 5-6, Tables 2-3).
* ``repro.datasets``    -- synthetic stand-ins for the paper's benchmarks.
* ``repro.eval``        -- classifier head, MAE/ROC/KL metrics, recommender
                           and anomaly-detection wrappers.
* ``repro.experiments`` -- one driver per table/figure of the evaluation.
* ``repro.config``      -- typed, frozen run-spec dataclasses (ComputeSpec,
                           TrainerSpec, RunSpec, ...) with validation
                           and a dict round trip.
* ``repro.api``         -- the builder facade + experiment registry over
                           those specs (``python -m repro run ...``).

Quickstart::

    from repro.api import build_trainer
    from repro.config import TrainerSpec
    from repro.datasets import load_mnist_like
    from repro.rbm import BernoulliRBM

    data = load_mnist_like(scale=0.1).binarized()
    rbm = BernoulliRBM(data.n_features, 64, rng=0)
    build_trainer(TrainerSpec.bgf(0.1), rng=0).train(rbm, data.train_x, epochs=5)

Experiments run from the command line through the same spec layer::

    python -m repro run figure7 --preset paper --set dtype=float32
"""

__version__ = "1.0.0"

__all__ = [
    "rbm",
    "ising",
    "analog",
    "core",
    "hardware",
    "datasets",
    "eval",
    "experiments",
    "config",
    "api",
    "utils",
]
