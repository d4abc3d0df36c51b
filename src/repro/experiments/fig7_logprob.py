"""Figure 7: average log probability trajectories of CD-1, CD-10 and BGF.

The paper trains RBMs on MNIST/KMNIST/FMNIST/EMNIST with conventional CD-1
and CD-10 and with the BGF's modified algorithm, and plots the AIS-estimated
average log probability of the training data over the course of training.
The reproduced claims are the *trends*: every method's trajectory rises
substantially over training, and the BGF trajectory tracks the CD curves —
its deviation from CD-10 is comparable to the CD-1 vs CD-10 gap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config.specs import ComputeSpec, TrainerSpec
from repro.core.gibbs_sampler import GibbsSamplerTrainer
from repro.core.gradient_follower import BGFTrainer
from repro.datasets.registry import load_benchmark_dataset, get_benchmark
from repro.experiments.base import (
    ExperimentResult,
    check_benchmark_names,
    format_table,
    logprob_recorder,
)
from repro.rbm.ais import average_log_probability
from repro.rbm.rbm import BernoulliRBM, CDTrainer
from repro.utils.rng import spawn_rngs
from repro.utils.validation import ValidationError, check_int

#: Datasets shown in Figure 7 (the others are "thumbnails" of the same trend).
FIGURE7_DATASETS: Sequence[str] = ("mnist", "kmnist", "fmnist", "emnist")

#: The paper's three training methods, in plotting order.
FIGURE7_METHODS: Sequence[str] = ("cd1", "cd10", "BGF")


def run_figure7(
    *,
    datasets: Sequence[str] = FIGURE7_DATASETS,
    scale: str = "ci",
    epochs: int = 8,
    learning_rate: float = 0.1,
    batch_size: int = 10,
    ais_chains: int = 32,
    ais_betas: int = 120,
    gs_chains: Optional[int] = None,
    methods: Sequence[str] = FIGURE7_METHODS,
    dtype: str = "float64",
    train_samples: Optional[int] = None,
    workers: int = 1,
    seed: int = 0,
) -> ExperimentResult:
    """Train with CD-1, CD-10 and BGF and record log-probability trajectories.

    Each row of the result holds one ``(dataset, method, epoch)`` point with
    its estimated average log probability, which is exactly the data behind
    the paper's Figure-7 curves.  ``gs_chains=p`` additionally records a
    ``gs-pcd{p}`` trajectory: the Gibbs-sampler architecture trained with
    ``p`` persistent negative chains advanced through the substrate's
    chain-parallel kernel (the multi-chain engine's knobs surfaced at the
    experiment layer); ``None`` (default) keeps the paper's three methods.

    ``methods`` selects a subset of the paper's trio (``()`` with
    ``gs_chains`` set records only the GS trajectory); ``dtype`` picks the
    substrate/AIS precision tier for the hardware methods (``"float32"`` is
    the paper-scale configuration; software CD always trains in float64);
    ``train_samples`` caps the training rows (downsized smoke runs), and
    only those rows are generated;
    ``workers`` is the multicore knob, threaded into the GS trainer's
    sharded negative phase and the AIS estimator's threaded chain pool
    (the default of 1 keeps the serial, bit-identical kernels).  The
    defaults leave the CI-scale output contract untouched — pinned by
    ``tests/experiments/test_golden_schemas.py``.
    """
    # A trajectory needs two epochs; every count knob fails by name here,
    # before any data is built.
    check_int(epochs, "epochs", 2)
    check_int(batch_size, "batch_size", 1)
    check_int(ais_chains, "ais_chains", 1)
    check_int(ais_betas, "ais_betas", 2)
    if gs_chains is not None:
        check_int(gs_chains, "gs_chains", 1)
    unknown = set(methods) - set(FIGURE7_METHODS)
    if unknown:
        raise ValidationError(
            f"unknown Figure-7 methods {sorted(unknown)}; choose from {FIGURE7_METHODS}"
        )
    if train_samples is not None:
        check_int(train_samples, "train_samples", 1)
    datasets = check_benchmark_names(datasets, "datasets")
    rows: List[Dict[str, object]] = []
    for dataset_index, name in enumerate(datasets):
        cfg = get_benchmark(name)
        # Figure 7 reads training rows only, so build just the ones it uses.
        dataset = load_benchmark_dataset(
            name, scale=scale, seed=seed + dataset_index, train_rows=train_samples
        )
        data = dataset.binarized().train_x[:train_samples]
        n_visible, n_hidden = (
            cfg.rbm_shape if scale == "paper" else cfg.ci_rbm_shape
        )
        if data.shape[1] != n_visible:
            n_visible = data.shape[1]
        # Spawning 5 streams keeps the first four identical to the historical
        # 4-stream spawn, so adding the optional GS method never perturbs the
        # cd1/cd10/BGF trajectories for a given seed.  Streams are assigned
        # by position (cd1=1, cd10=2, BGF=3, gs=4) whether or not a method
        # is selected, so subsetting never shifts another method's draws.
        rngs = spawn_rngs(seed + dataset_index, 5)
        base_rbm = BernoulliRBM(n_visible, n_hidden, rng=rngs[0])
        base_rbm.init_visible_bias_from_data(data)
        initial_logprob = average_log_probability(
            base_rbm, data, n_chains=ais_chains, n_betas=ais_betas, rng=seed,
            dtype=dtype, workers=workers,
        )

        factories = {
            "cd1": lambda: CDTrainer(
                spec=TrainerSpec.cd(learning_rate, cd_k=1, batch_size=batch_size),
                rng=rngs[1],
            ),
            "cd10": lambda: CDTrainer(
                spec=TrainerSpec.cd(learning_rate, cd_k=10, batch_size=batch_size),
                rng=rngs[2],
            ),
            "BGF": lambda: BGFTrainer(
                spec=TrainerSpec.bgf(
                    learning_rate,
                    reference_batch_size=batch_size,
                    compute=ComputeSpec(dtype=dtype),
                ),
                rng=rngs[3],
            ),
        }
        trainers = {m: factories[m]() for m in FIGURE7_METHODS if m in methods}
        if gs_chains:
            trainers[f"gs-pcd{gs_chains}"] = GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    learning_rate,
                    cd_k=1,
                    batch_size=batch_size,
                    chains=gs_chains,
                    persistent=True,
                    compute=ComputeSpec(dtype=dtype, workers=workers),
                ),
                rng=rngs[4],
            )
        for method_name, trainer in trainers.items():
            # Epoch 0 is the shared untrained starting point; epochs 1..E are
            # recorded by the per-epoch callback during training.
            trajectory: List[float] = [float(initial_logprob)]
            trainer.callback = logprob_recorder(
                data, trajectory, n_chains=ais_chains, n_betas=ais_betas, seed=seed,
                dtype=dtype, workers=workers,
            )
            rbm = base_rbm.copy()
            trainer.train(rbm, data, epochs=epochs)
            for epoch, value in enumerate(trajectory):
                rows.append(
                    {
                        "dataset": name,
                        "method": method_name,
                        "epoch": epoch,
                        "avg_log_probability": float(value),
                    }
                )
    return ExperimentResult(
        name="figure7",
        description=(
            "Average log probability (AIS-estimated) of training data over epochs "
            "for CD-1, CD-10 and BGF"
        ),
        rows=rows,
        metadata={
            "datasets": tuple(datasets),
            "scale": scale,
            "epochs": epochs,
            "learning_rate": learning_rate,
            "gs_chains": gs_chains,
            "methods": tuple(methods),
            "dtype": str(dtype),
            "train_samples": train_samples,
            "workers": workers,
            "seed": seed,
        },
    )


def trajectories(result: ExperimentResult) -> Dict[str, Dict[str, List[float]]]:
    """Reorganize rows into ``{dataset: {method: [per-epoch log prob]}}``."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for row in result.rows:
        out.setdefault(row["dataset"], {}).setdefault(row["method"], []).append(
            row["avg_log_probability"]
        )
    return out


def format_figure7(result: Optional[ExperimentResult] = None) -> str:
    """Compact rendering: first/last log probability per (dataset, method)."""
    result = result if result is not None else run_figure7()
    summary_rows = []
    for dataset, methods in trajectories(result).items():
        for method, series in methods.items():
            summary_rows.append(
                {
                    "dataset": dataset,
                    "method": method,
                    "first_epoch": series[0],
                    "last_epoch": series[-1],
                    "improvement": series[-1] - series[0],
                }
            )
    return format_table(summary_rows, title=result.description, precision=2)
