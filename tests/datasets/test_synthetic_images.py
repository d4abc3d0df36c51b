"""Tests for the synthetic image dataset generators."""

import hashlib
import math

import numpy as np
import pytest

from repro.datasets import (
    TABLE1_CONFIGS,
    ImageDatasetSpec,
    load_benchmark_dataset,
    load_cifar10_like,
    load_emnist_like,
    load_fmnist_like,
    load_kmnist_like,
    load_mnist_like,
    load_smallnorb_like,
    make_image_dataset,
)
from repro.datasets.synthetic_images import _make_prototypes
from repro.utils.rng import as_rng
from repro.utils.validation import ValidationError

LOADERS = [
    (load_mnist_like, 784, 10),
    (load_kmnist_like, 784, 10),
    (load_fmnist_like, 784, 10),
    (load_emnist_like, 784, 26),
    (load_cifar10_like, 108, 10),
    (load_smallnorb_like, 36, 5),
]


class TestLoaders:
    @pytest.mark.parametrize("loader, n_features, n_classes", LOADERS)
    def test_shapes_match_table1(self, loader, n_features, n_classes):
        dataset = loader(scale=0.02)
        assert dataset.n_features == n_features
        assert dataset.n_classes == n_classes

    @pytest.mark.parametrize("loader, n_features, n_classes", LOADERS)
    def test_values_in_unit_interval(self, loader, n_features, n_classes):
        dataset = loader(scale=0.02)
        assert dataset.train_x.min() >= 0.0
        assert dataset.train_x.max() <= 1.0

    @pytest.mark.parametrize("loader, n_features, n_classes", LOADERS)
    def test_labels_in_range(self, loader, n_features, n_classes):
        dataset = loader(scale=0.02)
        assert dataset.train_y.min() >= 0
        assert dataset.train_y.max() < n_classes

    def test_scale_controls_sample_count(self):
        small = load_mnist_like(scale=0.02)
        large = load_mnist_like(scale=0.1)
        assert large.n_train > small.n_train

    def test_deterministic_for_seed(self):
        a = load_mnist_like(scale=0.02, seed=3)
        b = load_mnist_like(scale=0.02, seed=3)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_different_seeds_differ(self):
        a = load_mnist_like(scale=0.02, seed=3)
        b = load_mnist_like(scale=0.02, seed=4)
        assert not np.allclose(a.train_x, b.train_x)

    def test_nist_like_images_are_sparse(self):
        # Bright strokes on a dark background: mean activity well below 0.5.
        dataset = load_mnist_like(scale=0.05)
        assert dataset.train_x.mean() < 0.45


class TestClassStructure:
    def test_within_class_closer_than_between_class(self):
        dataset = load_mnist_like(scale=0.05, seed=0)
        x, y = dataset.train_x, dataset.train_y
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(dataset.n_classes)])
        within = np.mean([np.linalg.norm(x[i] - centroids[y[i]]) for i in range(len(y))])
        rng = np.random.default_rng(0)
        other = np.mean(
            [
                np.linalg.norm(x[i] - centroids[(y[i] + 1 + rng.integers(dataset.n_classes - 1)) % dataset.n_classes])
                for i in range(len(y))
            ]
        )
        assert within < other

    def test_every_class_represented_in_train(self):
        dataset = load_emnist_like(scale=0.1, seed=1)
        assert set(np.unique(dataset.train_y)) == set(range(26))


class TestMakeImageDataset:
    def test_custom_spec(self):
        spec = ImageDatasetSpec(
            name="custom", image_shape=(8, 8), n_classes=3, n_train=30, n_test=12
        )
        dataset = make_image_dataset(spec, seed=0)
        assert dataset.n_features == 64
        assert dataset.n_train == 30
        assert dataset.n_test == 12

    def test_color_images(self):
        spec = ImageDatasetSpec(
            name="color", image_shape=(5, 5, 3), n_classes=2, n_train=20, n_test=8, jitter=0
        )
        dataset = make_image_dataset(spec, seed=0)
        assert dataset.n_features == 75

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="n_classes"):
            ImageDatasetSpec(
                name="bad", image_shape=(4, 4), n_classes=1, n_train=10, n_test=5
            )

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError, match="n_train"):
            ImageDatasetSpec(
                name="bad", image_shape=(4, 4), n_classes=2, n_train=0, n_test=5
            )

    def test_grayscale_quantization(self):
        spec = ImageDatasetSpec(
            name="q", image_shape=(4, 4), n_classes=2, n_train=20, n_test=5,
            grayscale_levels=4, pixel_noise=0.3,
        )
        dataset = make_image_dataset(spec, seed=0)
        levels = np.unique(np.round(dataset.train_x * 3))
        assert levels.size <= 4


def _valid_spec(**overrides) -> ImageDatasetSpec:
    fields = dict(name="v", image_shape=(8, 8), n_classes=3, n_train=12, n_test=4)
    fields.update(overrides)
    return ImageDatasetSpec(**fields)


class TestImageDatasetSpecValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("image_shape", (8,)),
            ("image_shape", (8, 8, 3, 1)),
            ("image_shape", (8, 2.5)),
            ("image_shape", (2, 8)),
            ("image_shape", (8, 8, 0)),
            ("image_shape", 8),
            ("n_classes", 2.5),
            ("n_classes", 1),
            ("n_train", 2.5),
            ("n_train", 0),
            ("n_test", True),
            ("prototype_smoothness", math.nan),
            ("stroke_count", -1),
            ("pixel_noise", -1.0),
            ("pixel_noise", math.nan),
            ("pixel_noise", math.inf),
            ("jitter", 1.5),
            ("jitter", True),
            ("jitter", -1),
            ("jitter", 8),
            ("grayscale_levels", 1),
            ("grayscale_levels", -2),
            ("grayscale_levels", 2.5),
            ("background_level", math.nan),
        ],
    )
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValidationError, match=field):
            _valid_spec(**{field: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"jitter": 7},
            {"jitter": 2, "image_shape": (3, 5)},
            {"image_shape": (3, 3, 1)},
            {"grayscale_levels": 0},
            {"grayscale_levels": 2},
            {"pixel_noise": 0.0},
            {"stroke_count": 0},
        ],
    )
    def test_boundary_values_accepted(self, overrides):
        dataset = make_image_dataset(_valid_spec(**overrides), seed=0)
        assert np.all(np.isfinite(dataset.train_x))


def _roll_reference(spec: ImageDatasetSpec, seed) -> tuple:
    """The generator as one image at a time: ``np.roll`` twice for the jitter,
    then clip and quantize per image."""
    rng = as_rng(seed)
    protos = _make_prototypes(spec, rng)
    splits = []
    for n in (spec.n_train, spec.n_test):
        xs, ys = np.zeros((n, spec.n_features)), np.zeros(n, dtype=int)
        for i in range(n):
            cls = int(rng.integers(0, spec.n_classes))
            img = protos[cls]
            if spec.jitter > 0:
                dr = int(rng.integers(-spec.jitter, spec.jitter + 1))
                dc = int(rng.integers(-spec.jitter, spec.jitter + 1))
                img = np.roll(np.roll(img, dr, axis=0), dc, axis=1)
            noisy = np.clip(img + rng.normal(0.0, spec.pixel_noise, size=img.shape), 0.0, 1.0)
            if spec.grayscale_levels:
                top = spec.grayscale_levels - 1
                noisy = np.round(noisy * top) / top
            xs[i], ys[i] = noisy.reshape(-1), cls
        splits += [xs, ys]
    return tuple(splits)


#: sha256 over the bytes of ``train_x``, ``train_y``, ``test_x`` and
#: ``test_y`` (labels as int64), in that order, of
#: ``load_benchmark_dataset(name, scale=scale, seed=0)``.  Any change to the
#: generator's draw order or arithmetic changes these.
GOLDEN_SHA256 = {
    ("mnist", "ci"): "64642ecd459a12bb7dce7361d54de0d9c8ca7d52ba64d4e0778e193ddd5d7821",
    ("kmnist", "ci"): "718634326d01e141095d2711a4b11505eb229d751f624c7e9e073893291101ec",
    ("fmnist", "ci"): "5fa4c821887df2acf1db840346134831982a7c38b94df9ad1fa1b7d914339ee6",
    ("emnist", "ci"): "fcacace471d7acd841611eaddb0952bf16050976cab9091e3256f0e56626df73",
    ("cifar10", "ci"): "c9389bf47ae3ad051c298929916f90090435e7a88424357fea98ac47292ac13c",
    ("smallnorb", "ci"): "fd9b01d28f2d25d86d965a43ec19a78c73aaecba12c4da4292ba707c97116dd9",
    ("mnist", "paper"): "7907d455ba4cfa62a18ed01166642a1bae04fafcf908a966f3a5d540594a5f07",
    ("kmnist", "paper"): "070ffc0da116b176792a2a40163718b11fb7c20f527c36101e587452f57a850c",
    ("fmnist", "paper"): "9bd35b40637ec36b3d3b639ec28404034530b4860aacc4ffd32a7a0aa63a56ae",
    ("emnist", "paper"): "bb9e50502126e8bbcac41af4487e133dbec0982d8c9b757ed57e34c9afe5b017",
    ("cifar10", "paper"): "f389c7929f769fa7815f4795b317ac5d4730f764c00f13986b89c486586ebf59",
    ("smallnorb", "paper"): "b21f1ff1a75cb38324bdfe967f7798f57a2d48fac63b0232c2fe6a66431a29cb",
}

IMAGE_SCALES = [
    (name, scale)
    for scale in ("ci", "paper")
    for name, cfg in TABLE1_CONFIGS.items()
    if cfg.kind == "image"
]


class TestGeneratorIsExact:
    @pytest.mark.parametrize("name, scale", IMAGE_SCALES)
    def test_golden_bytes(self, name, scale):
        dataset = load_benchmark_dataset(name, scale=scale, seed=0)
        digest = hashlib.sha256()
        for arr in (
            dataset.train_x, dataset.train_y.astype(np.int64),
            dataset.test_x, dataset.test_y.astype(np.int64),
        ):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == GOLDEN_SHA256[(name, scale)]

    @pytest.mark.parametrize("name, scale", IMAGE_SCALES)
    def test_train_rows_is_the_prefix_of_the_full_load(self, name, scale):
        full = load_benchmark_dataset(name, scale=scale, seed=0)
        for k in (1, 7, full.n_train):
            prefix = load_benchmark_dataset(name, scale=scale, seed=0, train_rows=k)
            assert np.array_equal(prefix.train_x, full.train_x[:k])
            assert np.array_equal(prefix.train_y, full.train_y[:k])
            assert prefix.test_x.shape == (0, full.n_features)
            assert prefix.n_test == 0 and prefix.test_y.shape == (0,)
            assert prefix.image_shape == full.image_shape
            assert prefix.n_classes == full.n_classes

    def test_train_rows_past_the_split_builds_the_whole_split(self):
        full = load_mnist_like(scale=0.02, seed=3)
        capped = load_mnist_like(scale=0.02, seed=3, train_rows=full.n_train + 5)
        assert np.array_equal(capped.train_x, full.train_x)
        assert capped.n_test == 0

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"])
    def test_bad_train_rows_rejected(self, value):
        with pytest.raises(ValidationError, match="train_rows"):
            load_mnist_like(scale=0.02, train_rows=value)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"jitter": 0},
            {"jitter": 3, "grayscale_levels": 0},
            {"jitter": 7, "grayscale_levels": 2, "pixel_noise": 0.4},
            {"image_shape": (6, 9, 3), "jitter": 2},
            {"image_shape": (5, 4), "jitter": 3, "pixel_noise": 0.0},
        ],
    )
    @pytest.mark.parametrize("seed", [0, 9001])
    def test_matches_the_image_by_image_roll_generator(self, overrides, seed):
        spec = _valid_spec(**overrides)
        dataset = make_image_dataset(spec, seed=seed)
        train_x, train_y, test_x, test_y = _roll_reference(spec, seed)
        assert np.array_equal(dataset.train_x, train_x)
        assert np.array_equal(dataset.train_y, train_y)
        assert np.array_equal(dataset.test_x, test_x)
        assert np.array_equal(dataset.test_y, test_y)
