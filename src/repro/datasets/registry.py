"""Benchmark registry mirroring Table 1 of the paper.

Table 1 lists, for every benchmark, the RBM layer sizes and (where
applicable) the DBN-DNN stack used in the evaluation.  The registry below
encodes exactly those configurations and maps each benchmark name to the
synthetic dataset loader that stands in for the original data, so every
experiment driver and hardware-model run pulls its problem sizes from one
place.

Two "scales" are supported everywhere:

* ``"paper"``  — the sizes printed in Table 1 (e.g. a 784×200 MNIST RBM).
  These drive the hardware performance/energy models, which are purely
  analytical and therefore cheap at any size.
* ``"ci"``     — reduced sizes for functional experiments that actually
  train models (log-probability trajectories, accuracy, noise sweeps), so
  the full suite runs in minutes on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.datasets import synthetic_images
from repro.datasets.fraud import make_fraud_like
from repro.datasets.movielens import make_movielens_like
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class BenchmarkConfig:
    """Configuration of one evaluation benchmark.

    Attributes
    ----------
    name:
        Canonical benchmark key (lower-case, e.g. ``"mnist"``).
    kind:
        ``"image"``, ``"recommender"`` or ``"anomaly"``.
    rbm_shape:
        ``(n_visible, n_hidden)`` of the single-RBM configuration (Table 1,
        "RBM" column).
    dbn_layers:
        Layer sizes of the DBN-DNN configuration (Table 1, right column), or
        ``None`` when the paper does not evaluate a DBN for this benchmark.
    ci_rbm_shape:
        Scaled-down RBM shape used for functional (training) experiments.
    """

    name: str
    kind: str
    rbm_shape: Tuple[int, int]
    dbn_layers: Optional[Tuple[int, ...]] = None
    ci_rbm_shape: Tuple[int, int] = (64, 32)
    loader: Optional[Callable] = None
    in_figure5: bool = True

    @property
    def n_visible(self) -> int:
        return self.rbm_shape[0]

    @property
    def n_hidden(self) -> int:
        return self.rbm_shape[1]

    @property
    def has_dbn(self) -> bool:
        return self.dbn_layers is not None


TABLE1_CONFIGS: Dict[str, BenchmarkConfig] = {
    "mnist": BenchmarkConfig(
        name="mnist", kind="image", rbm_shape=(784, 200),
        dbn_layers=(784, 500, 500, 10), ci_rbm_shape=(49, 32),
        loader=synthetic_images.load_mnist_like,
    ),
    "kmnist": BenchmarkConfig(
        name="kmnist", kind="image", rbm_shape=(784, 500),
        dbn_layers=(784, 500, 1000, 10), ci_rbm_shape=(49, 32),
        loader=synthetic_images.load_kmnist_like,
    ),
    "fmnist": BenchmarkConfig(
        name="fmnist", kind="image", rbm_shape=(784, 784),
        dbn_layers=(784, 784, 1000, 10), ci_rbm_shape=(49, 32),
        loader=synthetic_images.load_fmnist_like,
    ),
    "emnist": BenchmarkConfig(
        name="emnist", kind="image", rbm_shape=(784, 1024),
        dbn_layers=(784, 784, 784, 26), ci_rbm_shape=(49, 48),
        loader=synthetic_images.load_emnist_like,
    ),
    "cifar10": BenchmarkConfig(
        name="cifar10", kind="image", rbm_shape=(108, 1024),
        dbn_layers=None, ci_rbm_shape=(108, 64),
        loader=synthetic_images.load_cifar10_like,
    ),
    "smallnorb": BenchmarkConfig(
        name="smallnorb", kind="image", rbm_shape=(36, 1024),
        dbn_layers=None, ci_rbm_shape=(36, 48),
        loader=synthetic_images.load_smallnorb_like,
    ),
    "recommender": BenchmarkConfig(
        name="recommender", kind="recommender", rbm_shape=(943, 100),
        dbn_layers=None, ci_rbm_shape=(200, 40),
        loader=make_movielens_like,
    ),
    "anomaly": BenchmarkConfig(
        name="anomaly", kind="anomaly", rbm_shape=(28, 10),
        dbn_layers=None, ci_rbm_shape=(28, 10),
        loader=make_fraud_like, in_figure5=False,
    ),
}

#: Benchmarks appearing on the x-axis of Figures 5 and 6 (RBM rows then DBN
#: rows then the recommender), in the paper's plotting order.
FIGURE5_RBM_BENCHMARKS: List[str] = [
    "mnist", "kmnist", "fmnist", "emnist", "smallnorb", "cifar10",
]
FIGURE5_DBN_BENCHMARKS: List[str] = ["mnist", "kmnist", "fmnist", "emnist"]


def get_benchmark(name: str) -> BenchmarkConfig:
    """Look up a benchmark configuration by (case-insensitive) name."""
    key = name.lower()
    if key not in TABLE1_CONFIGS:
        raise ValidationError(
            f"unknown benchmark {name!r}; known benchmarks: {sorted(TABLE1_CONFIGS)}"
        )
    return TABLE1_CONFIGS[key]


def load_benchmark_dataset(
    name: str, *, scale: str = "ci", seed: int = 0, train_rows: Optional[int] = None
):
    """Load the synthetic dataset backing benchmark ``name``.

    ``scale="ci"`` shrinks sample counts (and, for the recommender, the
    user count) so training-based experiments finish quickly; ``"paper"``
    uses Table-1-scale dimensions.  ``train_rows=k`` (image benchmarks
    only) builds just the first ``k`` training rows, bit-identical to
    ``[:k]`` of the full load, and an empty test split.
    """
    cfg = get_benchmark(name)
    if cfg.loader is None:  # pragma: no cover - all registry entries set one
        raise ValidationError(f"benchmark {name!r} has no dataset loader")
    if train_rows is not None and cfg.kind != "image":
        raise ValidationError(
            f"train_rows applies to image benchmarks only; {name!r} is a "
            f"{cfg.kind} benchmark"
        )
    if cfg.kind == "image":
        factor = 1.0 if scale == "paper" else 0.2
        dataset = cfg.loader(seed=seed, scale=factor, train_rows=train_rows)
        if scale != "paper" and dataset.image_shape and dataset.image_shape[0] >= 28:
            # CI scale also shrinks the 28x28 images to 7x7 so that the
            # training-based experiments stay fast (see ci_rbm_shape).
            dataset = dataset.pooled(4)
        return dataset
    if cfg.kind == "recommender":
        if scale == "paper":
            return cfg.loader(n_users=943, n_items=100, seed=seed)
        return cfg.loader(n_users=150, n_items=60, seed=seed)
    if cfg.kind == "anomaly":
        if scale == "paper":
            return cfg.loader(n_train=4000, n_test=2000, seed=seed)
        return cfg.loader(n_train=800, n_test=500, seed=seed)
    raise ValidationError(f"unhandled benchmark kind {cfg.kind!r}")  # pragma: no cover
