"""Tests for the Table-1 benchmark registry."""

import pytest

from repro.datasets import (
    TABLE1_CONFIGS,
    get_benchmark,
    list_benchmarks,
    load_benchmark_dataset,
)
from repro.datasets.base import AnomalyDataset, Dataset, RatingsDataset
from repro.datasets.registry import FIGURE5_DBN_BENCHMARKS, FIGURE5_RBM_BENCHMARKS
from repro.utils.validation import ValidationError

#: (benchmark, RBM shape, DBN layers) exactly as printed in Table 1.
TABLE1_EXPECTED = [
    ("mnist", (784, 200), (784, 500, 500, 10)),
    ("kmnist", (784, 500), (784, 500, 1000, 10)),
    ("fmnist", (784, 784), (784, 784, 1000, 10)),
    ("emnist", (784, 1024), (784, 784, 784, 26)),
    ("cifar10", (108, 1024), None),
    ("smallnorb", (36, 1024), None),
    ("recommender", (943, 100), None),
    ("anomaly", (28, 10), None),
]


class TestTable1Configs:
    @pytest.mark.parametrize("name, rbm_shape, dbn_layers", TABLE1_EXPECTED)
    def test_rbm_shapes_match_paper(self, name, rbm_shape, dbn_layers):
        cfg = get_benchmark(name)
        assert cfg.rbm_shape == rbm_shape

    @pytest.mark.parametrize("name, rbm_shape, dbn_layers", TABLE1_EXPECTED)
    def test_dbn_layers_match_paper(self, name, rbm_shape, dbn_layers):
        cfg = get_benchmark(name)
        assert cfg.dbn_layers == dbn_layers
        assert cfg.has_dbn == (dbn_layers is not None)

    def test_all_eight_benchmarks_registered(self):
        assert len(TABLE1_CONFIGS) == 8

    def test_case_insensitive_lookup(self):
        assert get_benchmark("MNIST").name == "mnist"

    def test_unknown_benchmark(self):
        with pytest.raises(ValidationError):
            get_benchmark("imagenet")

    def test_list_benchmarks_by_kind(self):
        assert set(list_benchmarks("image")) == {
            "mnist", "kmnist", "fmnist", "emnist", "cifar10", "smallnorb",
        }
        assert list_benchmarks("recommender") == ["recommender"]
        assert list_benchmarks("anomaly") == ["anomaly"]

    def test_figure5_roster(self):
        assert len(FIGURE5_RBM_BENCHMARKS) == 6
        assert len(FIGURE5_DBN_BENCHMARKS) == 4
        for name in FIGURE5_RBM_BENCHMARKS + FIGURE5_DBN_BENCHMARKS:
            assert name in TABLE1_CONFIGS


class TestLoadBenchmarkDataset:
    def test_image_benchmark_ci_scale(self):
        ds = load_benchmark_dataset("mnist", scale="ci", seed=0)
        assert isinstance(ds, Dataset)
        cfg = get_benchmark("mnist")
        assert ds.n_features == cfg.ci_rbm_shape[0]

    def test_image_benchmark_ci_is_pooled(self):
        ds = load_benchmark_dataset("kmnist", scale="ci", seed=0)
        assert ds.n_features == 49

    def test_small_image_benchmark_not_pooled(self):
        ds = load_benchmark_dataset("smallnorb", scale="ci", seed=0)
        assert ds.n_features == 36

    def test_recommender_benchmark(self):
        ds = load_benchmark_dataset("recommender", scale="ci", seed=0)
        assert isinstance(ds, RatingsDataset)

    def test_recommender_paper_scale_shape(self):
        ds = load_benchmark_dataset("recommender", scale="paper", seed=0)
        assert ds.n_users == 943
        assert ds.n_items == 100

    def test_anomaly_benchmark(self):
        ds = load_benchmark_dataset("anomaly", scale="ci", seed=0)
        assert isinstance(ds, AnomalyDataset)
        assert ds.n_features == 28

    def test_ci_rbm_shape_visible_matches_ci_dataset(self):
        for name in ("mnist", "kmnist", "fmnist", "emnist", "cifar10", "smallnorb"):
            cfg = get_benchmark(name)
            ds = load_benchmark_dataset(name, scale="ci", seed=0)
            assert ds.n_features == cfg.ci_rbm_shape[0], name

    def test_seed_changes_data(self):
        a = load_benchmark_dataset("mnist", scale="ci", seed=0)
        b = load_benchmark_dataset("mnist", scale="ci", seed=1)
        assert not (a.train_x == b.train_x).all()

    @pytest.mark.parametrize("name", ["recommender", "anomaly"])
    def test_train_rows_rejected_for_non_image_benchmarks(self, name):
        with pytest.raises(ValidationError, match=f"train_rows.*{name!r}"):
            load_benchmark_dataset(name, scale="ci", seed=0, train_rows=10)

    def test_train_rows_ci_scale_pools_a_train_only_split(self):
        ds = load_benchmark_dataset("mnist", scale="ci", seed=0, train_rows=12)
        assert ds.train_x.shape == (12, 49)
        assert ds.test_x.shape == (0, 49)
        assert ds.image_shape == (7, 7)
