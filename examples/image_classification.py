"""Image classification with RBM / DBN features trained on the Ising substrate.

Reproduces the structure of the paper's Table 4 on one benchmark: learn RBM
features with conventional CD-10 and with the Boltzmann gradient follower,
put a logistic-regression layer on top, and compare test accuracy.  Also
trains a small DBN (stacked RBMs) the same two ways.

Run with::

    python examples/image_classification.py [benchmark]

where ``benchmark`` is one of mnist, kmnist, fmnist, emnist (default mnist).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.config import TrainerSpec
from repro.core import BGFTrainer
from repro.datasets import load_benchmark_dataset, get_benchmark
from repro.eval import LogisticRegressionClassifier
from repro.rbm import BernoulliRBM, CDTrainer, DeepBeliefNetwork
from repro.utils.rng import spawn_rngs


def train_rbm_features(data, n_hidden: int, method: str, seed: int = 0):
    """Train an RBM with the requested method and return it."""
    rngs = spawn_rngs(seed, 2)
    rbm = BernoulliRBM(data.n_features, n_hidden, rng=rngs[0])
    rbm.init_visible_bias_from_data(data.train_x)
    if method == "cd10":
        trainer = CDTrainer(
            spec=TrainerSpec.cd(0.2, cd_k=10, batch_size=10), rng=rngs[1]
        )
    else:
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=rngs[1]
        )
    trainer.train(rbm, data.train_x, epochs=20)
    return rbm


def head_accuracy(rbm, data, seed: int = 0) -> float:
    """Accuracy of a logistic head on standardized RBM features."""
    features_train = rbm.transform(data.train_x)
    features_test = rbm.transform(data.test_x)
    mean, std = features_train.mean(axis=0), features_train.std(axis=0) + 1e-6
    clf = LogisticRegressionClassifier(rbm.n_hidden, data.n_classes, rng=seed)
    clf.fit((features_train - mean) / std, data.train_y, epochs=100, learning_rate=0.2, batch_size=32)
    return clf.score((features_test - mean) / std, data.test_y)


def dbn_accuracy(data, method: str, seed: int = 0) -> float:
    """Accuracy of a two-hidden-layer DBN trained with the requested method."""
    layers = (data.n_features, 48, 32, data.n_classes)
    dbn = DeepBeliefNetwork(layers, rng=seed)

    def layer_trainer(rbm, layer_data):
        if method == "cd10":
            trainer = CDTrainer(
                spec=TrainerSpec.cd(0.2, cd_k=10, batch_size=10), rng=seed + 1
            )
        else:
            trainer = BGFTrainer(
                spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=seed + 1
            )
        return trainer.train(rbm, layer_data, epochs=12)

    dbn.pretrain(data.train_x, layer_trainer=layer_trainer)
    dbn.fine_tune(data.train_x, data.train_y, epochs=120, learning_rate=0.2, batch_size=32)
    return dbn.score(data.test_x, data.test_y)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "mnist"
    cfg = get_benchmark(benchmark)
    data = load_benchmark_dataset(benchmark, scale="ci", seed=0).binarized()
    n_hidden = cfg.ci_rbm_shape[1]
    print(
        f"benchmark {benchmark}: {data.n_train} train / {data.n_test} test samples, "
        f"{data.n_features} pixels, {data.n_classes} classes"
    )

    print("\nsingle RBM features + logistic regression head")
    for method in ("cd10", "bgf"):
        rbm = train_rbm_features(data, n_hidden, method)
        acc = head_accuracy(rbm, data)
        print(f"  {method:>5}: test accuracy {acc:.3f}")

    print("\nDBN (stacked RBMs) + logistic regression head")
    for method in ("cd10", "bgf"):
        acc = dbn_accuracy(data, method)
        print(f"  {method:>5}: test accuracy {acc:.3f}")

    print(
        "\nThe paper's Table-4 claim is that the two columns match: training on "
        "the Ising substrate does not change the downstream accuracy."
    )


if __name__ == "__main__":
    main()
