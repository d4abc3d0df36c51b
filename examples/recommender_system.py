"""RBM collaborative filtering on the Ising substrate (the paper's RC benchmark).

Trains the MovieLens-like recommender RBM three ways — conventional CD-1,
CD-10, and the Boltzmann gradient follower — and reports the mean absolute
error of held-out rating predictions against a global-mean baseline,
mirroring the recommender row of Table 4.  A small noise sweep at the end
mirrors Figure 9: the BGF-trained model's MAE barely moves even with 30%
RMS variation and noise injected into the analog substrate.

Run with::

    python examples/recommender_system.py
"""

from __future__ import annotations

from repro.config import NoiseSpec, TrainerSpec
from repro.core import BGFTrainer
from repro.datasets import make_movielens_like
from repro.eval import RBMRecommender
from repro.rbm import CDTrainer


def main() -> None:
    ratings = make_movielens_like(n_users=150, n_items=60, seed=0)
    print(
        f"ratings matrix: {ratings.n_users} users x {ratings.n_items} items, "
        f"{ratings.n_train_ratings} train / {ratings.n_test_ratings} test ratings"
    )

    trainers = {
        "CD-1": CDTrainer(spec=TrainerSpec.cd(0.2, cd_k=1, batch_size=10), rng=1),
        "CD-10": CDTrainer(spec=TrainerSpec.cd(0.2, cd_k=10, batch_size=10), rng=1),
        "BGF": BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1),
    }
    print("\nmean absolute error of held-out rating predictions")
    baseline = None
    for name, trainer in trainers.items():
        recommender = RBMRecommender(n_hidden=40, trainer=trainer, epochs=40, rng=0).fit(ratings)
        mae = recommender.evaluate_mae(ratings)
        if baseline is None:
            baseline = recommender.baseline_mae(ratings)
            print(f"  global-mean baseline: MAE {baseline:.3f}")
        print(f"  {name:>6}: MAE {mae:.3f}")

    print("\nnoise robustness of the BGF-trained recommender (Figure 9)")
    for rms in (0.0, 0.05, 0.1, 0.3):
        noise = NoiseSpec(rms, rms)
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(0.2, reference_batch_size=10, noise=noise),
            rng=1,
        )
        recommender = RBMRecommender(n_hidden=40, trainer=trainer, epochs=40, rng=0).fit(ratings)
        print(f"  variation/noise RMS {rms:4.0%}: MAE {recommender.evaluate_mae(ratings):.3f}")


if __name__ == "__main__":
    main()
