"""Figure 8: log-probability trajectories of BGF training under analog noise.

The paper injects static variation on the coupling resistances and dynamic
noise at nodes and couplings (Gaussian, RMS 3%-30%) and shows that, for
combinations up to roughly 10% each, the training-quality trajectory is
essentially unchanged; even at 20-30% the degradation is modest.  This
driver trains the BGF under the six highlighted (variation, noise)
configurations and records the AIS-estimated average log probability per
epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


from repro.analog.noise import FIGURE8_NOISE_CONFIGS
from repro.config.specs import NoiseSpec, TrainerSpec
from repro.core.gradient_follower import BGFTrainer
from repro.datasets.registry import get_benchmark, load_benchmark_dataset
from repro.experiments.base import (
    ExperimentResult,
    check_benchmark_name,
    check_noise_configs,
    format_table,
    logprob_recorder,
)
from repro.rbm.ais import average_log_probability
from repro.rbm.rbm import BernoulliRBM
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_int


def run_figure8(
    *,
    dataset_name: str = "mnist",
    noise_configs: Sequence[NoiseSpec] = FIGURE8_NOISE_CONFIGS,
    scale: str = "ci",
    epochs: int = 8,
    learning_rate: float = 0.1,
    batch_size: int = 10,
    ais_chains: int = 32,
    ais_betas: int = 120,
    seed: int = 0,
) -> ExperimentResult:
    """Train the BGF under each noise configuration; record log-prob trajectories.

    ``noise_configs`` entries are :class:`~repro.config.NoiseSpec` values
    or their ``to_dict()`` mappings.
    """
    noise_configs = check_noise_configs(noise_configs)
    check_benchmark_name(dataset_name, "dataset_name")
    check_int(epochs, "epochs", 1)
    check_int(batch_size, "batch_size", 1)
    check_int(ais_chains, "ais_chains", 1)
    check_int(ais_betas, "ais_betas", 2)
    cfg = get_benchmark(dataset_name)
    dataset = load_benchmark_dataset(dataset_name, scale=scale, seed=seed)
    data = dataset.binarized().train_x
    n_visible = data.shape[1]
    n_hidden = cfg.rbm_shape[1] if scale == "paper" else cfg.ci_rbm_shape[1]

    base_rbm = BernoulliRBM(n_visible, n_hidden, rng=spawn_rngs(seed, 1)[0])
    base_rbm.init_visible_bias_from_data(data)
    initial_logprob = average_log_probability(
        base_rbm, data, n_chains=ais_chains, n_betas=ais_betas, rng=seed
    )
    rows: List[Dict[str, object]] = []
    for config_index, noise in enumerate(noise_configs):
        rngs = spawn_rngs(seed + config_index, 2)
        rbm = base_rbm.copy()
        # Epoch 0 is the shared untrained starting point.
        trajectory: List[float] = [float(initial_logprob)]
        callback = logprob_recorder(
            data, trajectory, n_chains=ais_chains, n_betas=ais_betas, seed=seed
        )
        trainer = BGFTrainer(
            spec=TrainerSpec.bgf(
                learning_rate,
                reference_batch_size=batch_size,
                noise=noise,
            ),
            rng=rngs[1],
            callback=callback,
        )
        trainer.train(rbm, data, epochs=epochs)
        for epoch, value in enumerate(trajectory):
            rows.append(
                {
                    "noise_config": noise.label,
                    "variation_rms": noise.variation_rms,
                    "noise_rms": noise.noise_rms,
                    "epoch": epoch,
                    "avg_log_probability": float(value),
                }
            )
    return ExperimentResult(
        name="figure8",
        description=(
            f"Average log probability of BGF-trained models on {dataset_name} under "
            "injected variation/noise"
        ),
        rows=rows,
        metadata={
            "dataset": dataset_name,
            "scale": scale,
            "epochs": epochs,
            "seed": seed,
            "noise_configs": tuple(c.label for c in noise_configs),
        },
    )


def final_logprob_by_config(result: ExperimentResult) -> Dict[str, float]:
    """Final-epoch average log probability per noise configuration."""
    out: Dict[str, float] = {}
    for row in result.rows:
        out[row["noise_config"]] = row["avg_log_probability"]
    return out


def format_figure8(result: Optional[ExperimentResult] = None) -> str:
    """Compact rendering: final log probability per noise configuration."""
    result = result if result is not None else run_figure8()
    finals = final_logprob_by_config(result)
    rows = [
        {"noise_config": key, "final_avg_log_probability": value}
        for key, value in finals.items()
    ]
    return format_table(rows, title=result.description, precision=2)
