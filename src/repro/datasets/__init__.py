"""Synthetic dataset generators standing in for the paper's benchmarks.

The paper trains RBMs/DBNs on MNIST, KMNIST, FMNIST, EMNIST, CIFAR10,
SmallNORB, MovieLens-100k and a credit-card fraud dataset.  None of those
can be downloaded in this offline environment, so this package provides
deterministic, class-structured synthetic generators with the same shapes
(Table 1 of the paper) that exercise exactly the same training and
evaluation code paths.  See ``DESIGN.md`` for the substitution rationale.
"""

from repro.datasets.base import AnomalyDataset, Dataset, RatingsDataset
from repro.datasets.synthetic_images import (
    ImageDatasetSpec,
    make_image_dataset,
    load_mnist_like,
    load_kmnist_like,
    load_fmnist_like,
    load_emnist_like,
    load_cifar10_like,
    load_smallnorb_like,
)
from repro.datasets.movielens import encode_ratings_onehot, make_movielens_like
from repro.datasets.fraud import encode_features_onehot, make_fraud_like
from repro.datasets.registry import (
    BenchmarkConfig,
    TABLE1_CONFIGS,
    get_benchmark,
    load_benchmark_dataset,
)

__all__ = [
    "Dataset",
    "RatingsDataset",
    "AnomalyDataset",
    "ImageDatasetSpec",
    "make_image_dataset",
    "load_mnist_like",
    "load_kmnist_like",
    "load_fmnist_like",
    "load_emnist_like",
    "load_cifar10_like",
    "load_smallnorb_like",
    "make_movielens_like",
    "encode_ratings_onehot",
    "make_fraud_like",
    "encode_features_onehot",
    "BenchmarkConfig",
    "TABLE1_CONFIGS",
    "get_benchmark",
    "load_benchmark_dataset",
]
