"""Table 4: end-task quality of models trained with CD-10 vs BGF.

For every benchmark the paper reports the downstream quality metric twice —
once with RBM/DBN features trained by conventional CD-10, once with the
Boltzmann gradient follower — and the reproduced claim is that the two are
essentially the same:

* image benchmarks: classification accuracy of a logistic-regression layer
  on the learned features (RBM column) and of the DBN stack where Table 1
  defines one,
* recommender benchmark: mean absolute error,
* anomaly benchmark: area under the ROC curve.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config.specs import ComputeSpec, TrainerSpec
from repro.core.gibbs_sampler import GibbsSamplerTrainer
from repro.core.gradient_follower import BGFTrainer
from repro.datasets.registry import get_benchmark, load_benchmark_dataset
from repro.eval.anomaly import RBMAnomalyDetector
from repro.eval.logistic import LogisticRegressionClassifier
from repro.eval.recommender import RBMRecommender
from repro.experiments.base import ExperimentResult, check_benchmark_names, format_table
from repro.rbm.dbn import DeepBeliefNetwork
from repro.rbm.rbm import BernoulliRBM, CDTrainer
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_int

#: Image benchmarks in the Table-4 row order.
TABLE4_IMAGE_BENCHMARKS: Sequence[str] = (
    "mnist",
    "kmnist",
    "fmnist",
    "emnist",
    "cifar10",
    "smallnorb",
)


def _make_trainer(
    method: str, *, learning_rate: float, batch_size: int, rng, gs_chains: int = 8,
    dtype: str = "float64", workers: int = 1,
):
    """Build the per-layer trainer for ``method`` ('cd10', 'bgf' or 'gs').

    ``dtype`` selects the substrate precision tier for the hardware methods
    (BGF and GS); the software CD reference always trains in float64.
    ``workers`` threads the GS's sharded settle layer (the BGF's
    per-sample loop is serial).  All
    three build through the typed spec layer (:mod:`repro.config`).
    """
    if method == "cd10":
        return CDTrainer(
            spec=TrainerSpec.cd(learning_rate, cd_k=10, batch_size=batch_size),
            rng=rng,
        )
    if method == "bgf":
        return BGFTrainer(
            spec=TrainerSpec.bgf(
                learning_rate,
                reference_batch_size=batch_size,
                compute=ComputeSpec(dtype=dtype),
            ),
            rng=rng,
        )
    if method == "gs":
        # Gibbs-sampler architecture with the multi-chain PCD negative phase
        # (persistent chains advanced through the chain-parallel kernel).
        return GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                learning_rate,
                cd_k=1,
                batch_size=batch_size,
                chains=gs_chains,
                persistent=True,
                compute=ComputeSpec(dtype=dtype, workers=workers),
            ),
            rng=rng,
        )
    raise ValueError(f"unknown method {method!r}")


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple:
    """Z-score features using the training statistics (standard practice
    before a logistic head; keeps weakly-activated hidden units usable)."""
    mean = train.mean(axis=0)
    std = train.std(axis=0) + 1e-6
    return (train - mean) / std, (test - mean) / std


def _rbm_feature_accuracy(
    dataset, n_hidden: int, method: str, *, epochs: int, learning_rate: float,
    batch_size: int, seed: int, gs_chains: int = 8, dtype: str = "float64",
    train_samples: Optional[int] = None, workers: int = 1,
) -> float:
    """Accuracy of a logistic head on single-RBM features trained by ``method``."""
    rngs = spawn_rngs(seed, 3)
    data = dataset.binarized()
    train_x, train_y = data.train_x, data.train_y
    if train_samples is not None:
        train_x, train_y = train_x[:train_samples], train_y[:train_samples]
    rbm = BernoulliRBM(data.n_features, n_hidden, rng=rngs[0])
    rbm.init_visible_bias_from_data(train_x)
    trainer = _make_trainer(
        method, learning_rate=learning_rate, batch_size=batch_size, rng=rngs[1],
        gs_chains=gs_chains, dtype=dtype, workers=workers,
    )
    trainer.train(rbm, train_x, epochs=epochs)
    features_train, features_test = _standardize(
        rbm.transform(train_x), rbm.transform(data.test_x)
    )
    clf = LogisticRegressionClassifier(n_hidden, data.n_classes, rng=rngs[2])
    clf.fit(features_train, train_y, epochs=80, learning_rate=0.2, batch_size=32)
    return clf.score(features_test, data.test_y)


def _dbn_accuracy(
    dataset, layer_sizes: Sequence[int], method: str, *, epochs: int,
    learning_rate: float, batch_size: int, seed: int,
) -> float:
    """Accuracy of a DBN whose layers are trained by ``method``."""
    rngs = spawn_rngs(seed + 1, 2)
    data = dataset.binarized()
    dbn = DeepBeliefNetwork(layer_sizes, rng=rngs[0])

    def layer_trainer(rbm, layer_data):
        trainer = _make_trainer(
            method, learning_rate=learning_rate, batch_size=batch_size, rng=rngs[1]
        )
        return trainer.train(rbm, layer_data, epochs=epochs)

    dbn.pretrain(data.train_x, layer_trainer=layer_trainer)
    dbn.fine_tune(data.train_x, data.train_y, epochs=120, learning_rate=0.2, batch_size=32)
    return dbn.score(data.test_x, data.test_y)


def _ci_dbn_layers(n_features: int, n_classes: int) -> tuple:
    """Scaled-down DBN stack used at CI scale (two hidden layers)."""
    return (n_features, 48, 32, n_classes)


def run_table4(
    *,
    image_benchmarks: Sequence[str] = TABLE4_IMAGE_BENCHMARKS,
    include_dbn: bool = True,
    include_recommender: bool = True,
    include_anomaly: bool = True,
    scale: str = "ci",
    epochs: int = 20,
    learning_rate: float = 0.2,
    batch_size: int = 10,
    gs_chains: Optional[int] = None,
    dtype: str = "float64",
    train_samples: Optional[int] = None,
    workers: int = 1,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Table 4: quality metric per benchmark for cd-10 and BGF.

    ``gs_chains=p`` adds an ``rbm_gs`` column to the image rows: features
    trained by the Gibbs-sampler architecture with ``p`` persistent
    negative chains (the multi-chain engine); ``None`` keeps the paper's
    two-method table.  ``dtype="float32"`` runs the hardware methods' RBM
    training in the single-precision substrate tier (the paper-scale
    configuration; the logistic/DBN heads and software CD stay float64);
    ``train_samples`` caps the image-benchmark training rows for downsized
    smoke runs; ``workers`` is the multicore knob for the GS trainer
    (sharded settles; the default of 1 keeps the serial kernels).  The defaults leave the CI-scale output
    contract untouched — pinned by
    ``tests/experiments/test_golden_schemas.py``.
    """
    check_int(epochs, "epochs", 1)
    check_int(batch_size, "batch_size", 1)
    if gs_chains is not None:
        check_int(gs_chains, "gs_chains", 1)
    if train_samples is not None:
        check_int(train_samples, "train_samples", 1)
    image_benchmarks = check_benchmark_names(image_benchmarks, "image_benchmarks")
    rbm_methods = ("cd10", "bgf") + (("gs",) if gs_chains else ())
    rows: List[Dict[str, object]] = []
    for index, name in enumerate(image_benchmarks):
        cfg = get_benchmark(name)
        dataset = load_benchmark_dataset(name, scale=scale, seed=seed + index)
        n_hidden = cfg.rbm_shape[1] if scale == "paper" else cfg.ci_rbm_shape[1]
        row: Dict[str, object] = {"benchmark": name, "metric": "accuracy"}
        for method in rbm_methods:
            row[f"rbm_{method}"] = _rbm_feature_accuracy(
                dataset, n_hidden, method,
                epochs=epochs, learning_rate=learning_rate,
                batch_size=batch_size, seed=seed + index,
                gs_chains=gs_chains or 8, dtype=dtype,
                train_samples=train_samples, workers=workers,
            )
        if include_dbn and cfg.has_dbn:
            layers = (
                cfg.dbn_layers
                if scale == "paper"
                else _ci_dbn_layers(dataset.n_features, dataset.n_classes)
            )
            for method in ("cd10", "bgf"):
                row[f"dbn_{method}"] = _dbn_accuracy(
                    dataset, layers, method,
                    epochs=max(4, (2 * epochs) // 3), learning_rate=learning_rate,
                    batch_size=batch_size, seed=seed + index,
                )
        else:
            row["dbn_cd10"] = float("nan")
            row["dbn_bgf"] = float("nan")
        rows.append(row)

    if include_recommender:
        cfg = get_benchmark("recommender")
        ratings = load_benchmark_dataset("recommender", scale=scale, seed=seed + 100)
        n_hidden = cfg.rbm_shape[1] if scale == "paper" else cfg.ci_rbm_shape[1]
        row = {"benchmark": "recommender", "metric": "mae"}
        for method in ("cd10", "bgf"):
            rngs = spawn_rngs(seed + 100, 2)
            trainer = _make_trainer(
                method, learning_rate=0.2, batch_size=batch_size, rng=rngs[0]
            )
            recommender = RBMRecommender(
                n_hidden=n_hidden, trainer=trainer, epochs=max(40, 4 * epochs), rng=rngs[1]
            ).fit(ratings)
            row[f"rbm_{method}"] = recommender.evaluate_mae(ratings)
        row["dbn_cd10"] = float("nan")
        row["dbn_bgf"] = float("nan")
        rows.append(row)

    if include_anomaly:
        cfg = get_benchmark("anomaly")
        anomaly_data = load_benchmark_dataset("anomaly", scale=scale, seed=seed + 200)
        row = {"benchmark": "anomaly", "metric": "auc"}
        for method in ("cd10", "bgf"):
            rngs = spawn_rngs(seed + 200, 2)
            trainer = _make_trainer(
                method, learning_rate=0.05, batch_size=20, rng=rngs[0]
            )
            detector = RBMAnomalyDetector(
                n_hidden=cfg.rbm_shape[1], trainer=trainer,
                epochs=max(15, epochs), rng=rngs[1],
            ).fit(anomaly_data)
            row[f"rbm_{method}"] = detector.evaluate_auc(anomaly_data)
        row["dbn_cd10"] = float("nan")
        row["dbn_bgf"] = float("nan")
        rows.append(row)

    return ExperimentResult(
        name="table4",
        description=(
            "Test quality (accuracy / MAE / AUC) of RBM and DBN models trained "
            "with cd-10 vs the Boltzmann gradient follower"
        ),
        rows=rows,
        metadata={
            "scale": scale,
            "epochs": epochs,
            "learning_rate": learning_rate,
            "gs_chains": gs_chains,
            "dtype": str(dtype),
            "train_samples": train_samples,
            "workers": workers,
            "seed": seed,
        },
    )


def format_table4(result: Optional[ExperimentResult] = None) -> str:
    """Plain-text rendering of the Table-4 rows."""
    result = result if result is not None else run_table4()
    return format_table(result.rows, title=result.description, precision=3)
