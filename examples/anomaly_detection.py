"""Credit-card-fraud-style anomaly detection with an Ising-machine-trained RBM.

Reproduces the anomaly row of Table 4 and the structure of Figure 10: an
RBM is trained on normal transactions only (with CD-10 in software and with
the Boltzmann gradient follower on the simulated substrate), transactions
are scored by how badly the model reconstructs them, and quality is the
area under the ROC curve.  The noise sweep at the end shows the AUC staying
in a narrow band under analog variation/noise, as in Figure 10.

Run with::

    python examples/anomaly_detection.py
"""

from __future__ import annotations

from repro.config import NoiseSpec, TrainerSpec
from repro.core import BGFTrainer
from repro.datasets import make_fraud_like
from repro.eval import RBMAnomalyDetector
from repro.rbm import CDTrainer


def main() -> None:
    dataset = make_fraud_like(n_train=1500, n_test=800, seed=0)
    print(
        f"transactions: {dataset.train_x.shape[0]} normal for training, "
        f"{dataset.test_x.shape[0]} test ({dataset.fraud_fraction:.1%} fraud), "
        f"{dataset.n_features} features"
    )

    print("\narea under the ROC curve (higher is better)")
    for name, trainer in (
        ("CD-10", CDTrainer(spec=TrainerSpec.cd(0.05, cd_k=10, batch_size=20), rng=1)),
        ("BGF", BGFTrainer(spec=TrainerSpec.bgf(0.05, reference_batch_size=20), rng=1)),
    ):
        detector = RBMAnomalyDetector(n_hidden=10, trainer=trainer, epochs=20, rng=0).fit(dataset)
        print(f"  {name:>6}: AUC {detector.evaluate_auc(dataset):.3f}")

    print("\nnoise robustness of the BGF-trained detector (Figure 10)")
    for rms in (0.0, 0.05, 0.1, 0.2, 0.3):
        noise = NoiseSpec(rms, rms)
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(0.05, reference_batch_size=20, noise=noise),
            rng=1,
        )
        detector = RBMAnomalyDetector(n_hidden=10, trainer=trainer, epochs=20, rng=0).fit(dataset)
        fpr, tpr, _ = detector.evaluate_roc(dataset)
        auc = detector.evaluate_auc(dataset)
        # Report the true-positive rate at a 5% false-positive budget as well.
        import numpy as np

        tpr_at_5 = float(np.interp(0.05, fpr, tpr))
        print(f"  variation/noise RMS {rms:4.0%}: AUC {auc:.3f}   TPR@5%FPR {tpr_at_5:.2f}")


if __name__ == "__main__":
    main()
