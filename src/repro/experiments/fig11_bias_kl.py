"""Figure 11 (Appendix A): estimator bias of ML, CD-k and BGF training.

Methodology (following Carreira-Perpinan & Hinton 2005, as the paper does):
a 12-visible / 4-hidden binary RBM is small enough that the ground-truth
training distribution and the learned model's distribution can both be
enumerated exactly.  For each of several randomly generated training
distributions, the model is trained with exact maximum likelihood (ML),
CD-1, CD-k (the paper uses k=1000) and the BGF rule from the same random
initialization, and the KL divergence between the empirical training
distribution and the learned model distribution is recorded.  The paper
plots the CDF of these divergences over many runs; the reproduced claims
are (a) all methods land in a similar narrow KL band and (b) BGF's CDF is
not to the right of (worse than) CD's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.config.specs import TrainerSpec
from repro.core.gradient_follower import BGFTrainer
from repro.eval.metrics import kl_divergence
from repro.experiments.base import ExperimentResult, format_table
from repro.rbm.ml import MaximumLikelihoodTrainer
from repro.rbm.partition import empirical_visible_distribution, exact_visible_distribution
from repro.rbm.rbm import BernoulliRBM, CDTrainer
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import check_int


def _random_training_distribution(
    n_visible: int, n_samples: int, rng
) -> np.ndarray:
    """Generate a structured random training set of binary vectors.

    A handful of random prototype patterns are sampled with bit-flip noise,
    mimicking the "60 different distributions of 100 training images" setup
    of the paper's Appendix A.
    """
    n_prototypes = int(rng.integers(3, 6))
    prototypes = (rng.random((n_prototypes, n_visible)) < 0.5).astype(float)
    assignments = rng.integers(0, n_prototypes, size=n_samples)
    data = prototypes[assignments]
    flips = rng.random(data.shape) < 0.08
    data = np.where(flips, 1.0 - data, data)
    return data


def run_figure11(
    *,
    n_visible: int = 12,
    n_hidden: int = 4,
    n_distributions: int = 6,
    runs_per_distribution: int = 2,
    n_samples: int = 100,
    ml_iterations: int = 200,
    cd_epochs: int = 40,
    cd_long_k: int = 50,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> ExperimentResult:
    """Measure the KL divergence of ML / CD-1 / CD-k / BGF trained models.

    The defaults are scaled down from the paper's 60 distributions x 400
    runs x 1000 iterations so the experiment completes in CI time while
    preserving the comparison; pass larger values to approach the paper's
    statistical power.
    """
    for knob, value, minimum in (
        ("n_visible", n_visible, 1),
        ("n_hidden", n_hidden, 1),
        ("n_distributions", n_distributions, 1),
        ("runs_per_distribution", runs_per_distribution, 1),
        ("n_samples", n_samples, 1),
        ("ml_iterations", ml_iterations, 1),
        ("cd_epochs", cd_epochs, 1),
        ("cd_long_k", cd_long_k, 1),
    ):
        check_int(value, knob, minimum)
    master = as_rng(seed)
    rows: List[Dict[str, object]] = []
    for dist_index in range(n_distributions):
        data = _random_training_distribution(n_visible, n_samples, master)
        target = empirical_visible_distribution(data, n_visible)
        for run_index in range(runs_per_distribution):
            # Stream 1 was the exact-ML trainer's, which draws nothing; the
            # others keep their indices so seeded rows stay unchanged.
            rngs = spawn_rngs(seed * 1000 + dist_index * 100 + run_index, 5)
            base = BernoulliRBM(n_visible, n_hidden, rng=rngs[0])

            trainers = {
                "ML": (MaximumLikelihoodTrainer(learning_rate), ml_iterations),
                "cd1": (
                    CDTrainer(
                        spec=TrainerSpec.cd(learning_rate, cd_k=1, batch_size=10),
                        rng=rngs[2],
                    ),
                    cd_epochs,
                ),
                f"cd{cd_long_k}": (
                    CDTrainer(
                        spec=TrainerSpec.cd(
                            learning_rate, cd_k=cd_long_k, batch_size=10
                        ),
                        rng=rngs[3],
                    ),
                    cd_epochs,
                ),
                "BGF": (
                    # The step (learning_rate / reference_batch_size) and
                    # anneal_steps mirror the paper's Appendix-A setup (a
                    # step of lr/10 and 5 anneal steps).
                    BGFTrainer(
                        spec=TrainerSpec.bgf(
                            learning_rate, reference_batch_size=10, anneal_steps=5
                        ),
                        rng=rngs[4],
                    ),
                    cd_epochs,
                ),
            }
            for method, (trainer, epochs) in trainers.items():
                rbm = base.copy()
                trainer.train(rbm, data, epochs=epochs)
                model_dist = exact_visible_distribution(rbm)
                divergence = kl_divergence(target, model_dist)
                rows.append(
                    {
                        "distribution": dist_index,
                        "run": run_index,
                        "method": method,
                        "kl_divergence": float(divergence),
                    }
                )
    return ExperimentResult(
        name="figure11",
        description=(
            "KL divergence between the empirical training distribution and models "
            "trained with ML, CD-1, CD-k and BGF (12x4 RBM, exact enumeration)"
        ),
        rows=rows,
        metadata={
            "n_visible": n_visible,
            "n_hidden": n_hidden,
            "n_distributions": n_distributions,
            "runs_per_distribution": runs_per_distribution,
            "seed": seed,
        },
    )


def kl_samples_by_method(result: ExperimentResult) -> Dict[str, np.ndarray]:
    """Group the recorded KL divergences by training method."""
    out: Dict[str, List[float]] = {}
    for row in result.rows:
        out.setdefault(row["method"], []).append(row["kl_divergence"])
    return {method: np.asarray(values) for method, values in out.items()}


def cdf_points(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a set of KL divergences (the Figure-11 curves)."""
    values = np.sort(np.asarray(values, dtype=float))
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities


def format_figure11(result: Optional[ExperimentResult] = None) -> str:
    """Compact rendering: mean/median/max KL divergence per method."""
    result = result if result is not None else run_figure11()
    rows = []
    for method, values in kl_samples_by_method(result).items():
        rows.append(
            {
                "method": method,
                "mean_kl": float(np.mean(values)),
                "median_kl": float(np.median(values)),
                "max_kl": float(np.max(values)),
            }
        )
    return format_table(rows, title=result.description, precision=4)
