"""Class-structured synthetic image datasets.

Each generator builds a family of per-class *prototypes* — smooth random
blob patterns plus stroke-like structure — and then draws samples as noisy,
jittered variants of the prototypes.  The result is a dataset where

* samples within a class are strongly correlated (so an RBM can model
  them and a linear classifier on RBM features can separate classes), and
* different classes occupy different regions of pixel space,

which is exactly the structure the paper's experiments rely on: CD-k and
the Boltzmann gradient follower must be able to raise the training-data
log probability over time, and downstream classification accuracy must be
a meaningful (non-degenerate) number.

The per-dataset wrappers mirror the paper's benchmark roster (Table 1) and
choose visible-unit counts to match: the NIST-style sets are 28×28 = 784
pixels, CIFAR10-like uses a 108-dimensional patch encoding and
SmallNORB-like a 36-dimensional encoding (the paper feeds those two
through a convolutional-RBM feature extractor; the encodings stand in for
its pooled features, so the dense RBM has the paper's shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import ValidationError, check_int, check_positive


@dataclass(frozen=True)
class ImageDatasetSpec:
    """Recipe for a synthetic image dataset.

    ``background_level`` scales the smooth random field underneath the
    strokes; keeping it well below the binarization threshold gives images
    the sparse "bright strokes on a dark background" statistics of the NIST
    datasets (mean pixel activity ~0.1-0.3), which is what RBM feature
    learning expects.
    """

    name: str
    image_shape: Tuple[int, ...]
    n_classes: int
    n_train: int
    n_test: int
    prototype_smoothness: float = 3.0
    stroke_count: int = 4
    pixel_noise: float = 0.12
    jitter: int = 1
    grayscale_levels: int = 256
    background_level: float = 0.25

    def __post_init__(self) -> None:
        shape = tuple(self.image_shape) if isinstance(self.image_shape, (tuple, list)) else ()
        if len(shape) not in (2, 3):
            raise ValidationError(
                f"image_shape must be (h, w) or (h, w, channels), got {self.image_shape!r}"
            )
        # The prototype blur needs rows and columns at least 3 pixels long.
        for size, minimum in zip(shape, (3, 3, 1)):
            check_int(size, "image_shape", minimum)
        check_int(self.n_classes, "n_classes", 2)
        check_int(self.n_train, "n_train", 1)
        check_int(self.n_test, "n_test", 1)
        check_positive(self.prototype_smoothness, name="prototype_smoothness", strict=False)
        check_int(self.stroke_count, "stroke_count", 0)
        check_positive(self.pixel_noise, name="pixel_noise", strict=False)
        # The jitter is one slice of a wrap-padded prototype, so a shift
        # must stay under the image size.
        if check_int(self.jitter, "jitter", 0) >= min(shape[:2]):
            raise ValidationError(
                f"jitter must be < min(h, w) = {min(shape[:2])}, got {self.jitter}"
            )
        if check_int(self.grayscale_levels, "grayscale_levels", 0) == 1:
            raise ValidationError("grayscale_levels must be 0 (no quantization) or >= 2, got 1")
        check_positive(self.background_level, name="background_level", strict=False)

    @property
    def n_features(self) -> int:
        return int(np.prod(self.image_shape))


def _smooth_random_field(shape: Tuple[int, int], smoothness: float, rng: np.random.Generator) -> np.ndarray:
    """Generate a smooth random field in [0, 1] by blurring white noise.

    A separable box blur applied a few times approximates a Gaussian blur
    without requiring scipy.ndimage, keeping this module dependency-light.
    """
    field = rng.random(shape)
    radius = max(1, int(round(smoothness)))
    # np.convolve in "same" mode returns max(len(row), len(kernel)) samples,
    # so the kernel must never be wider than the image.
    radius = min(radius, (min(shape) - 1) // 2) or 1
    kernel = np.ones(2 * radius + 1) / (2 * radius + 1)
    for _ in range(3):
        field = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, field)
        field = np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="same"), 0, field)
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        return np.zeros(shape)
    return (field - lo) / (hi - lo)


def _add_strokes(canvas: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Overlay bright stroke segments, giving prototypes digit/letter-like structure."""
    h, w = canvas.shape
    out = canvas.copy()
    for _ in range(count):
        r0, c0 = rng.integers(0, h), rng.integers(0, w)
        length = rng.integers(max(2, min(h, w) // 3), max(3, min(h, w)))
        angle = rng.uniform(0, np.pi)
        dr, dc = np.sin(angle), np.cos(angle)
        for step in range(length):
            r = int(round(r0 + dr * step))
            c = int(round(c0 + dc * step))
            if 0 <= r < h and 0 <= c < w:
                out[r, c] = 1.0
                if c + 1 < w:
                    out[r, c + 1] = max(out[r, c + 1], 0.7)
    return np.clip(out, 0.0, 1.0)


def _make_prototypes(spec: ImageDatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Build one prototype image per class."""
    h, w = spec.image_shape[:2]
    channels = spec.image_shape[2] if len(spec.image_shape) == 3 else 1
    protos = np.zeros((spec.n_classes,) + tuple(spec.image_shape))
    for cls in range(spec.n_classes):
        planes = []
        for _ in range(channels):
            base = spec.background_level * _smooth_random_field(
                (h, w), spec.prototype_smoothness, rng
            )
            base = _add_strokes(base, spec.stroke_count, rng)
            planes.append(base)
        protos[cls] = np.stack(planes, axis=-1).reshape(spec.image_shape)
    return protos


def make_image_dataset(
    spec: ImageDatasetSpec, seed: SeedLike = 0, *, train_rows: Optional[int] = None
) -> Dataset:
    """Generate a synthetic image dataset from ``spec``.

    The generator is deterministic for a given ``(spec, seed)`` pair.  Each
    image draws its class, then (with ``jitter``) a row and a column shift,
    then one normal per pixel; the training split is drawn before the test
    split.  ``train_rows=k`` therefore draws only the first ``k`` training
    images (all of them when ``k >= n_train``), bit-identical to ``[:k]``
    of the full draw, and returns an empty (0-row) test split.
    """
    if train_rows is not None:
        train_rows = check_int(train_rows, "train_rows", 1)
    rng = as_rng(seed)
    protos = _make_prototypes(spec, rng)
    jitter = spec.jitter
    # Wrap-padding by ``jitter`` turns the translation ``np.roll(np.roll(img,
    # dr, 0), dc, 1)`` into one slice starting at ``(jitter - dr, jitter - dc)``.
    pad = ((0, 0), (jitter, jitter), (jitter, jitter)) + ((0, 0),) * (len(spec.image_shape) - 2)
    padded = np.pad(protos, pad, mode="wrap")
    h, w = spec.image_shape[:2]

    def _sample_split(n: int) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.empty((n,) + tuple(spec.image_shape))
        ys = np.empty(n, dtype=int)
        for i in range(n):
            cls = int(rng.integers(0, spec.n_classes))
            img = protos[cls]
            if jitter:
                dr = int(rng.integers(-jitter, jitter + 1))
                dc = int(rng.integers(-jitter, jitter + 1))
                img = padded[cls, jitter - dr:jitter - dr + h, jitter - dc:jitter - dc + w]
            np.add(img, rng.normal(0.0, spec.pixel_noise, size=img.shape), out=xs[i])
            ys[i] = cls
        # Elementwise, so running them on the whole block gives the same
        # bytes as running them image by image.
        np.clip(xs, 0.0, 1.0, out=xs)
        if spec.grayscale_levels:
            top = spec.grayscale_levels - 1
            xs *= top
            np.round(xs, out=xs)
            xs /= top
        return xs.reshape(n, spec.n_features), ys

    train_x, train_y = _sample_split(
        spec.n_train if train_rows is None else min(train_rows, spec.n_train)
    )
    test_x, test_y = _sample_split(spec.n_test if train_rows is None else 0)
    return Dataset(
        name=spec.name,
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        image_shape=spec.image_shape,
        n_classes=spec.n_classes,
    )


def _scaled(n_train: int, n_test: int, scale: float) -> Tuple[int, int]:
    return max(10, int(n_train * scale)), max(10, int(n_test * scale))


def load_mnist_like(
    seed: SeedLike = 0, scale: float = 1.0, *, train_rows: Optional[int] = None
) -> Dataset:
    """28×28 handwritten-digit-like dataset (10 classes)."""
    n_train, n_test = _scaled(2000, 400, scale)
    spec = ImageDatasetSpec(
        name="mnist-like", image_shape=(28, 28), n_classes=10,
        n_train=n_train, n_test=n_test, stroke_count=5, prototype_smoothness=3.0,
    )
    return make_image_dataset(spec, seed, train_rows=train_rows)


def load_kmnist_like(
    seed: SeedLike = 1, scale: float = 1.0, *, train_rows: Optional[int] = None
) -> Dataset:
    """28×28 Japanese-character-like dataset (10 classes, denser strokes)."""
    n_train, n_test = _scaled(2000, 400, scale)
    spec = ImageDatasetSpec(
        name="kmnist-like", image_shape=(28, 28), n_classes=10,
        n_train=n_train, n_test=n_test, stroke_count=8, prototype_smoothness=2.0,
    )
    return make_image_dataset(spec, seed, train_rows=train_rows)


def load_fmnist_like(
    seed: SeedLike = 2, scale: float = 1.0, *, train_rows: Optional[int] = None
) -> Dataset:
    """28×28 fashion-item-like dataset (10 classes, blobbier shapes)."""
    n_train, n_test = _scaled(2000, 400, scale)
    spec = ImageDatasetSpec(
        name="fmnist-like", image_shape=(28, 28), n_classes=10,
        n_train=n_train, n_test=n_test, stroke_count=2, prototype_smoothness=4.0,
        pixel_noise=0.10, background_level=0.5,
    )
    return make_image_dataset(spec, seed, train_rows=train_rows)


def load_emnist_like(
    seed: SeedLike = 3, scale: float = 1.0, *, train_rows: Optional[int] = None
) -> Dataset:
    """28×28 handwritten-letter-like dataset (26 classes)."""
    n_train, n_test = _scaled(2600, 520, scale)
    spec = ImageDatasetSpec(
        name="emnist-like", image_shape=(28, 28), n_classes=26,
        n_train=n_train, n_test=n_test, stroke_count=6, prototype_smoothness=2.5,
    )
    return make_image_dataset(spec, seed, train_rows=train_rows)


def load_cifar10_like(
    seed: SeedLike = 4, scale: float = 1.0, *, train_rows: Optional[int] = None
) -> Dataset:
    """Small-color-image-like dataset (10 classes).

    The paper feeds CIFAR10 through a convolutional RBM whose pooled feature
    vector is 108-dimensional (Table 1 lists a 108-visible RBM).  We generate
    6×6×3 patch-encoded images, i.e. 108 features, so the downstream RBM has
    the paper's shape.
    """
    n_train, n_test = _scaled(1500, 300, scale)
    spec = ImageDatasetSpec(
        name="cifar10-like", image_shape=(6, 6, 3), n_classes=10,
        n_train=n_train, n_test=n_test, stroke_count=2, prototype_smoothness=2.0,
        pixel_noise=0.15, jitter=0, background_level=1.0,
    )
    return make_image_dataset(spec, seed, train_rows=train_rows)


def load_smallnorb_like(
    seed: SeedLike = 5, scale: float = 1.0, *, train_rows: Optional[int] = None
) -> Dataset:
    """Toy-object-like dataset (5 classes, 36-dimensional encoding per Table 1)."""
    n_train, n_test = _scaled(1000, 200, scale)
    spec = ImageDatasetSpec(
        name="smallnorb-like", image_shape=(6, 6), n_classes=5,
        n_train=n_train, n_test=n_test, stroke_count=2, prototype_smoothness=2.0,
        pixel_noise=0.12, jitter=0, background_level=1.0,
    )
    return make_image_dataset(spec, seed, train_rows=train_rows)
