"""Numerically-stable primitives used across the library.

The RBM energy/probability machinery works in log space almost everywhere
(free energies, AIS weights, exact distributions), so a stable
``logsumexp`` / ``log1pexp`` pair is the foundation.  The software
sampling paths (CD-k and the AIS sweep) share a single trusted
``bernoulli_sample`` latch.

Precision policy: the elementwise kernels (``sigmoid``, ``log1pexp`` and
their fused variants) are *dtype-preserving* for float32 and float64 inputs
— the precision-tiered substrate kernels rely on float32 staying float32
end to end.  Every other input dtype is promoted to float64, exactly as
before, so the float64 bit-identical pinning contract is untouched.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np


def as_float_array(x) -> np.ndarray:
    """Coerce to ndarray, preserving float32/float64 and promoting the rest.

    The single dtype-coercion rule of the precision policy: the two tiered
    dtypes pass through untouched (and uncopied), everything else — ints,
    bools, float16, lists — promotes to float64.  Shared by the numerics
    kernels, the sigmoid units, and the charge pumps so the tier boundary
    cannot drift between components.
    """
    x = np.asarray(x)
    if x.dtype == np.float64 or x.dtype == np.float32:
        return x
    return x.astype(float)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function ``1 / (1 + exp(-x))``.

    Branch-free kernel: with ``z = exp(-|x|)`` (which never overflows) the
    positive branch is ``1 / (1 + z)`` and the negative branch ``z / (1 + z)``,
    so one exponential and one division cover both.  Bit-identical to the
    two-pass masked formulation (kept as the test oracle in
    ``tests/helpers/reference.py``) because each element goes through the
    exact same floating-point operations.
    Dtype-preserving for float32 inputs (see module docstring).
    """
    x = as_float_array(x)
    if x.ndim == 0:
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, z) / (1.0 + z)
    return sigmoid_kernel(x)


#: ``(0, -1, 1)`` as 0-d arrays of each float dtype: the values ufuncs would
#: cast Python numbers to, without the per-call conversion.
_SIGMOID_CONSTANTS = {
    np.dtype(dtype): tuple(np.array(c, dtype=dtype) for c in (0.0, -1.0, 1.0))
    for dtype in (np.float32, np.float64)
}


def sigmoid_kernel(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Trusted :func:`sigmoid` of a float32 or float64 array of rank >= 1.

    The settle kernel's logistic, without the coercion: ``out`` receives the
    ``-|x|`` work buffer (``np.copysign(x, -1)``, exactly ``-abs(x)``), so a
    caller that owns ``x`` passes ``out=x`` and saves the allocation; the
    sign mask is read first.  The result is a new array in ``x``'s dtype.
    """
    zero, minus_one, one = _SIGMOID_CONSTANTS[x.dtype]
    positive = np.greater_equal(x, zero)
    z = np.copysign(x, minus_one, out=out)
    np.exp(z, out=z)
    num = np.where(positive, one, z)
    np.add(z, one, out=z)
    return np.divide(num, z, out=num)


def log1pexp(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` (softplus) computed without overflow.

    Branch-free kernel: ``log1p(exp(-|x|)) + max(x, 0)`` — the same
    floating-point operations per element as the masked two-pass form (the
    test oracle in ``tests/helpers/reference.py``), so the results are
    bit-identical.
    Dtype-preserving for float32 inputs (see module docstring).
    """
    x = as_float_array(x)
    if x.ndim == 0:
        return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    z += np.maximum(x, 0.0)
    return z


def log1pexp_diff(x: np.ndarray, hi: float, lo: float) -> np.ndarray:
    """Fused ``log1pexp(hi * x) - log1pexp(lo * x)`` for ``hi >= lo >= 0``.

    The AIS importance-weight update evaluates the softplus of the *same*
    hidden-input matrix at two adjacent inverse temperatures and subtracts;
    done naively that is two full softplus kernels (two abs/max passes, two
    scaled copies).  With ``hi, lo >= 0``, ``max(hi*x, 0) = hi*max(x, 0)``,
    so the difference collapses to

        ``(hi - lo) * max(x, 0) + log1p(exp(-hi*|x|)) - log1p(exp(-lo*|x|))``

    which shares one ``|x|`` pass between the two temperatures and skips the
    second max pass entirely.  Results agree with the two-softplus form to
    float64 rounding (the max factoring reassociates one multiply), pinned
    by ``tests/rbm/test_ais.py``; extremes are exact: for large positive
    ``x`` both ``log1p`` terms vanish and the result is ``(hi - lo) * x``,
    for large negative ``x`` it decays to 0.  Dtype-preserving for float32.
    """
    hi = float(hi)
    lo = float(lo)
    if lo < 0.0 or hi < lo:
        raise ValueError(f"log1pexp_diff requires hi >= lo >= 0, got ({hi}, {lo})")
    x = as_float_array(x)
    absx = np.abs(x)
    z = absx * (-hi)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    absx *= -lo
    np.exp(absx, out=absx)
    np.log1p(absx, out=absx)
    z -= absx
    z += (hi - lo) * np.maximum(x, 0.0)
    return z


def fused_sigmoid_bernoulli(field: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Bernoulli draw with ``P(out=1) = sigmoid(field)`` in one fused pass.

    Uses the identity ``u < 1/(1 + exp(-x))  <=>  u * (1 + exp(-x)) < 1``
    (both sides positive), evaluated in one working buffer (neither input is
    mutated): a single ``exp`` — no division, no ``abs``/``where`` branch
    selection, and the sigmoid probability array is never materialized.
    Saturation is safe by construction: for very negative fields ``exp(-x)``
    overflows to ``inf`` and the product compares as "no latch" — including
    the ``u = 0`` corner, where ``inf * 0 = nan`` also compares false; the
    true latch probability there is below the dtype's resolution, so both
    flags are suppressed.  Elsewhere ``u = 0`` latches, mirroring the
    comparator's ``p > 0``.

    This is the float32 precision tier's sampling kernel — mathematically
    equivalent to ``bernoulli_sample(sigmoid(field))`` but *not*
    bit-identical (the compare happens on the rescaled inequality), so it is
    pinned by the statistical tolerance suite rather than by seed.  The
    result dtype matches ``field``.
    """
    field = np.asarray(field)
    # over: exp(-x) -> inf on saturated-negative fields (compares correctly);
    # invalid: inf * (u == 0) -> nan, which also compares as "no latch".
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.negative(field)
        np.exp(t, out=t)
        t += 1.0
        t *= uniforms
    return np.less(t, 1.0).astype(field.dtype)


def logsumexp(x: np.ndarray) -> float:
    """Stable ``log(sum(exp(x)))`` over every element of ``x``."""
    x = np.asarray(x, dtype=float)
    xmax = np.max(x, keepdims=True)
    xmax = np.where(np.isfinite(xmax), xmax, 0.0)
    summed = np.sum(np.exp(x - xmax), keepdims=True)
    return float(np.squeeze(np.log(summed) + xmax))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=float)
    xmax = np.max(x, axis=axis, keepdims=True)
    ex = np.exp(x - xmax)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def bernoulli_sample(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Trusted Bernoulli latch: 0/1 float64 samples with success
    probability ``p``, an array of probabilities, against one ``rng.random``
    block of ``p``'s shape.

    This is the single sampling primitive of the software CD-k reference
    trainer and the AIS sweep, mirroring the paper's ``rand() <
    sigmoid(...)`` lines in Algorithm 1.  It coerces nothing: ``rng`` is a
    :class:`numpy.random.Generator` (see :func:`~repro.utils.rng.as_rng`).
    """
    return np.less(rng.random(p.shape), p).astype(np.float64)


# ---------------------------------------------------------------------------
# Sparse-visible dispatch.
#
# The data-side kernels (positive phase, gradient accumulation) accept
# ``scipy.sparse`` CSR visibles; everything downstream of the field
# computation stays dense, so these helpers are the single boundary where
# sparse and dense inputs diverge.  Results agree with the dense path at
# float tolerance only: sparse matmuls accumulate per-row in index order,
# which reassociates the sums relative to the dense BLAS kernels.
# ---------------------------------------------------------------------------


def is_sparse(x) -> bool:
    """True for any scipy sparse matrix/array (CSR, CSC, COO, ...).

    Nothing can be a scipy sparse matrix unless ``scipy.sparse`` is loaded,
    so this reads it from ``sys.modules`` rather than importing it: dense
    runs never pay scipy's import time.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


def as_sparse_rows(x, dtype=float):
    """Canonicalize a sparse input for row-major data-side kernels.

    Returns CSR with float data; CSR inputs of the right dtype pass through
    uncopied.  Raises if ``x`` is not a 2-D scipy sparse matrix.
    """
    if not is_sparse(x):
        raise ValueError(f"expected a scipy sparse matrix, got {type(x).__name__}")
    if x.ndim != 2:
        raise ValueError(f"sparse visibles must be 2-D, got ndim={x.ndim}")
    out = x.tocsr()
    if out.dtype != np.dtype(dtype):
        out = out.astype(dtype)
    return out


def safe_sparse_dot(a, b) -> np.ndarray:
    """``a @ b`` that tolerates either operand being scipy-sparse.

    Always returns a dense ndarray (scipy's spmatrix ``@`` can return
    ``np.matrix``, which silently changes elementwise semantics downstream).
    Dense x dense falls through to the plain operator, bit-identical to
    ``a @ b``.
    """
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        # Dense first: the per-settle hot path, where the sparse-type checks
        # cost more than a small matmul.
        return a @ b
    if is_sparse(a) or is_sparse(b):
        out = a @ b
        if is_sparse(out):  # sparse @ sparse
            out = out.toarray()
        return np.asarray(out)
    return a @ b


def sparse_mean(x) -> np.ndarray:
    """Column means of a (possibly sparse) matrix, as a dense 1-D array.

    ``spmatrix.mean`` returns ``np.matrix``; this wrapper flattens to the
    plain ndarray the gradient code expects.
    """
    if not is_sparse(x):
        return np.mean(np.asarray(x, dtype=float), axis=0)
    return np.asarray(x.mean(axis=0), dtype=float).ravel()


def sparse_mean_squared_error(x, dense, axis: Optional[int] = None):
    """``mean((x - dense)**2)`` where ``x`` may be sparse and ``dense`` is not.

    Expands the square — ``mean(d**2) - 2*mean(x*d) + mean(x**2)`` — so the
    sparse operand is never densified; the cross term touches only the nnz
    entries.  ``axis=None`` gives the scalar mean over all elements (the
    epoch reconstruction-error diagnostic), ``axis=1`` the per-row mean (the
    anomaly reconstruction score).  Dense ``x`` falls through to the direct
    formula.
    """
    dense = np.asarray(dense, dtype=float)
    if not is_sparse(x):
        diff = np.asarray(x, dtype=float) - dense
        return np.mean(diff**2, axis=axis)
    if x.shape != dense.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {dense.shape}")
    if axis is None:
        total = float(np.sum(dense**2))
        total -= 2.0 * float(x.multiply(dense).sum())
        total += float(x.multiply(x).sum())
        return total / dense.size
    if axis != 1:
        raise ValueError(f"axis must be None or 1, got {axis}")
    row = np.sum(dense**2, axis=1)
    row -= 2.0 * np.asarray(x.multiply(dense).sum(axis=1), dtype=float).ravel()
    row += np.asarray(x.multiply(x).sum(axis=1), dtype=float).ravel()
    return row / dense.shape[1]
