"""Input-validation helpers with consistent, informative error messages."""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence, Tuple

import numpy as np


class ValidationError(ValueError):
    """Raised when an argument fails library-level validation."""


def check_array(
    x,
    *,
    name: str = "array",
    ndim: Optional[int] = None,
    shape: Optional[Sequence[Optional[int]]] = None,
    dtype=float,
) -> np.ndarray:
    """Coerce ``x`` to an ndarray and validate its dimensionality/shape.

    ``shape`` entries of ``None`` act as wildcards, e.g. ``shape=(None, 10)``
    requires a 2-D array whose second dimension is exactly 10.
    """
    try:
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{name} must be a numeric array, got {type(x).__name__} ({exc})"
        ) from None
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if shape is not None:
        if arr.ndim != len(shape):
            raise ValidationError(
                f"{name} must have ndim={len(shape)}, got ndim={arr.ndim}"
            )
        for axis, expected in enumerate(shape):
            if expected is not None and arr.shape[axis] != expected:
                raise ValidationError(
                    f"{name} axis {axis} must have size {expected}, got {arr.shape[axis]}"
                )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_data_matrix(x, *, name: str = "data", n_features: Optional[int] = None):
    """Validate a 2-D design matrix that may be dense or scipy-sparse.

    Dense inputs go through :func:`check_array` exactly as before (float64
    coercion, finiteness).  Sparse inputs are canonicalized to float CSR and
    only the stored entries are checked for finiteness — the implicit zeros
    are finite by construction.  Returns the validated matrix, so callers
    can dispatch on the returned type.
    """
    from repro.utils.numerics import as_sparse_rows, is_sparse

    if is_sparse(x):
        arr = as_sparse_rows(x)
        if arr.size and not np.all(np.isfinite(arr.data)):
            raise ValidationError(f"{name} contains non-finite values")
        if n_features is not None and arr.shape[1] != n_features:
            raise ValidationError(
                f"{name} axis 1 must have size {n_features}, got {arr.shape[1]}"
            )
        return arr
    shape = (None, n_features) if n_features is not None else None
    return check_array(x, name=name, ndim=2, shape=shape)


def check_binary(x, *, name: str = "array") -> np.ndarray:
    """Validate that ``x`` holds only 0/1 values (as floats)."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all((arr == 0.0) | (arr == 1.0)):
        bad = arr[(arr != 0.0) & (arr != 1.0)]
        raise ValidationError(
            f"{name} must be binary (0/1); found values such as {bad.flat[0]!r}"
        )
    return arr


def check_probability(x, *, name: str = "probability") -> np.ndarray:
    """Validate that ``x`` is finite and lies in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if arr.size:
        # NaN propagates through min/max, and fails every comparison.
        lo, hi = np.min(arr), np.max(arr)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError(f"{name} contains non-finite values")
        if lo < 0.0 or hi > 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]; range is [{lo}, {hi}]")
    return arr


def check_finite(value: float, *, name: str = "value") -> float:
    """Validate that ``value`` is a finite real number (not a bool or a
    string) and return it as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def check_bool(value, name: str = "value") -> bool:
    """``value`` if it is a real bool: ``bool("false")`` is True, so a
    coerced string or int would silently flip the flag."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return value


def check_int(value, name: str, minimum: int) -> int:
    """``value`` as an int ``>= minimum``; floats and bools are rejected,
    not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an int >= {minimum}, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_range(value, *, name: str = "range") -> Tuple[float, float]:
    """``value`` as an increasing pair of finite floats ``(lo, hi)``."""
    pair = tuple(value) if isinstance(value, (tuple, list, np.ndarray)) else ()
    if len(pair) != 2:
        raise ValidationError(f"{name} must be a pair (lo, hi), got {value!r}")
    lo, hi = (check_finite(bound, name=name) for bound in pair)
    if hi <= lo:
        raise ValidationError(f"{name} must be increasing, got ({lo}, {hi})")
    return (lo, hi)


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a finite scalar is positive (or non-negative when
    ``strict=False``) and return it as a float."""
    value = check_finite(value, name=name)
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    value: float,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: Tuple[bool, bool] = (True, True),
) -> float:
    """Validate that ``low (<|<=) value (<|<=) high``."""
    value = check_finite(value, name=name)
    lo_ok = value >= low if inclusive[0] else value > low
    hi_ok = value <= high if inclusive[1] else value < high
    if not (lo_ok and hi_ok):
        lo_br = "[" if inclusive[0] else "("
        hi_br = "]" if inclusive[1] else ")"
        raise ValidationError(
            f"{name} must be in {lo_br}{low}, {high}{hi_br}, got {value}"
        )
    return value
