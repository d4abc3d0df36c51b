"""Figure 10: anomaly-detection ROC curves under injected variation/noise.

The paper trains the 28x10 fraud-detection RBM with the BGF under the noise
sweep and shows the ROC curves essentially overlap, with the final AUC
confined to 0.957-0.963.  The reproduced claim is that the AUC stays high
and nearly constant across noise configurations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analog.noise import FIGURE8_NOISE_CONFIGS
from repro.config.specs import NoiseSpec, TrainerSpec
from repro.core.gibbs_sampler import GibbsSamplerTrainer
from repro.core.gradient_follower import BGFTrainer
from repro.datasets.registry import get_benchmark, load_benchmark_dataset
from repro.eval.anomaly import RBMAnomalyDetector
from repro.experiments.base import ExperimentResult, check_noise_configs, format_table
from repro.utils.rng import spawn_rngs
from repro.utils.validation import ValidationError, check_int


def run_figure10(
    *,
    noise_configs: Sequence[NoiseSpec] = FIGURE8_NOISE_CONFIGS,
    scale: str = "ci",
    epochs: int = 20,
    learning_rate: float = 0.05,
    roc_points: int = 21,
    engine: str = "bgf",
    encoding: str = "direct",
    n_bins: Optional[int] = None,
    sparse: bool = False,
    keep_model: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    """Train the anomaly detector under each noise configuration.

    Each row holds the configuration's AUC plus the ROC curve resampled at
    ``roc_points`` evenly-spaced false-positive rates (so rows are
    fixed-width regardless of test-set size).

    ``engine="bgf"`` (default) reproduces the paper's whole-loop Boltzmann
    gradient follower; ``engine="gs"`` swaps in the Gibbs-sampler trainer,
    which additionally supports the sparse one-hot feature encoding
    (``encoding="onehot"``, ``n_bins``, ``sparse=True``) — the sparse fraud
    variant exposed by the run registry.  ``n_bins`` (default 16) is the
    one-hot quantization; setting it under another encoding raises.

    ``noise_configs`` entries are :class:`~repro.config.NoiseSpec` values
    or their ``to_dict()`` mappings.

    ``keep_model=True`` stores the detector trained under the first
    (ideal) noise configuration in ``result.artifacts["model"]`` so the
    CLI's ``--save-model`` can persist it for serving.
    """
    noise_configs = check_noise_configs(noise_configs)
    check_int(epochs, "epochs", 1)
    check_int(roc_points, "roc_points", 2)
    if n_bins is not None:
        check_int(n_bins, "n_bins", 2)
        if encoding != "onehot":
            raise ValidationError(
                f"n_bins applies only to encoding='onehot', got encoding={encoding!r}"
            )
    if engine not in ("bgf", "gs"):
        raise ValidationError(f"engine must be 'bgf' or 'gs', got {engine!r}")
    if engine == "bgf" and sparse:
        raise ValidationError(
            "sparse anomaly runs require engine='gs' "
            "(the BGF streams dense samples)"
        )
    cfg = get_benchmark("anomaly")
    dataset = load_benchmark_dataset("anomaly", scale=scale, seed=seed)

    rows: List[Dict[str, object]] = []
    kept_model: Optional[RBMAnomalyDetector] = None
    fpr_grid = np.linspace(0.0, 1.0, roc_points)
    for config_index, noise in enumerate(noise_configs):
        rngs = spawn_rngs(seed + config_index, 2)
        if engine == "gs":
            trainer = GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    learning_rate,
                    batch_size=20,
                    noise=noise,
                ),
                rng=rngs[0],
            )
        else:
            trainer = BGFTrainer(
                spec=TrainerSpec.bgf(
                    learning_rate,
                    reference_batch_size=20,
                    noise=noise,
                ),
                rng=rngs[0],
            )
        detector = RBMAnomalyDetector(
            n_hidden=cfg.rbm_shape[1],
            trainer=trainer,
            epochs=epochs,
            encoding=encoding,
            n_bins=16 if n_bins is None else n_bins,
            sparse=sparse,
            rng=rngs[1],
        ).fit(dataset)
        auc = detector.evaluate_auc(dataset)
        if keep_model and kept_model is None:
            kept_model = detector
        fpr, tpr, _ = detector.evaluate_roc(dataset)
        tpr_grid = np.interp(fpr_grid, fpr, tpr)
        rows.append(
            {
                "noise_config": noise.label,
                "variation_rms": noise.variation_rms,
                "noise_rms": noise.noise_rms,
                "auc": float(auc),
                "roc_fpr": fpr_grid.tolist(),
                "roc_tpr": tpr_grid.tolist(),
            }
        )
    return ExperimentResult(
        name="figure10",
        description=(
            "Anomaly-detection ROC/AUC of BGF-trained models under injected "
            "variation/noise"
        ),
        rows=rows,
        metadata={
            "scale": scale,
            "epochs": epochs,
            "seed": seed,
            "engine": engine,
            "encoding": encoding,
            "sparse": sparse,
        },
        artifacts={} if kept_model is None else {"model": kept_model},
    )


def auc_by_config(result: ExperimentResult) -> Dict[str, float]:
    """AUC per noise configuration label."""
    return {row["noise_config"]: row["auc"] for row in result.rows}


def format_figure10(result: Optional[ExperimentResult] = None) -> str:
    """Plain-text rendering (AUC per configuration; curves omitted)."""
    result = result if result is not None else run_figure10()
    rows = [
        {
            "noise_config": row["noise_config"],
            "variation_rms": row["variation_rms"],
            "noise_rms": row["noise_rms"],
            "auc": row["auc"],
        }
        for row in result.rows
    ]
    return format_table(rows, title=result.description, precision=3)
