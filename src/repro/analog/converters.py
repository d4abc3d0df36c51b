"""Data-converter behavioral models: DTC inputs and ADC readout (Sec. 4.1).

The paper feeds training data into the visible nodes through 8-bit
digital-to-time converters (DTCs) and reads the trained coupling voltages
out through 8-bit ADCs (used once, at the very end of training).  Both are
modelled as ideal uniform quantizers over a configurable full-scale range.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_int, check_range


def quantize_uniform(
    values: np.ndarray, n_bits: int, value_range: Tuple[float, float]
) -> np.ndarray:
    """Uniformly quantize ``values`` to ``n_bits`` over ``value_range``.

    Values outside the range are clipped (converter saturation).
    """
    if n_bits < 1:
        raise ValidationError(f"n_bits must be >= 1, got {n_bits}")
    lo, hi = float(value_range[0]), float(value_range[1])
    if hi <= lo:
        raise ValidationError(f"value_range must be increasing, got ({lo}, {hi})")
    levels = (1 << n_bits) - 1
    # One working buffer, mutated in place: np.clip allocates a fresh array,
    # and every subsequent operation matches the naive
    # ``lo + round((v - lo) / (hi - lo) * levels) / levels * (hi - lo)``
    # expression op-for-op, so the results are bit-identical to it.
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        clipped = np.clip(values, lo, hi)
        codes = np.round((clipped - lo) / (hi - lo) * levels)
        return lo + codes / levels * (hi - lo)
    out = np.clip(values, lo, hi)
    # Shifting by lo == 0.0 and scaling by a span of 1.0 are exact no-ops in
    # IEEE arithmetic, so they are skipped for the common [0, 1] converter.
    shift = lo != 0.0
    span = hi - lo
    rescale = span != 1.0
    if shift:
        out -= lo
    if rescale:
        out /= span
    out *= levels
    np.round(out, out=out)
    out /= levels
    if rescale:
        out *= span
    if shift:
        out += lo
    return out


def quantize_symmetric(
    values: np.ndarray, *, axis: Optional[int] = None, n_bits: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetrically quantize ``values`` to signed ``n_bits`` codes + scales.

    The signed-weight analogue of :func:`quantize_uniform`: each slice is
    mapped onto the symmetric code range ``[-(2^(n_bits-1)-1),
    +(2^(n_bits-1)-1)]`` (``[-127, 127]`` for 8 bits — the all-negative code
    is unused, so zero sits exactly on code 0) with ``scale =
    max|slice| / 127``.  ``axis=None`` uses one per-tensor scale;
    ``axis=0`` on a 2-D matrix uses one scale per column — the per-DTC
    full-scale trim of a coupling-array column.  An all-zero slice gets a
    placeholder scale of 1.0, so zeros reconstruct exactly.

    Returns ``(codes, scales)``: ``codes`` is ``int8`` (``int16`` above 8
    bits) with ``values.shape``; ``scales`` is ``float32``, scalar for
    ``axis=None`` or ``(n_columns,)`` for ``axis=0`` — in both layouts it
    broadcasts directly against ``codes`` for dequantization.
    """
    if n_bits < 2 or n_bits > 16:
        raise ValidationError(f"n_bits must be in [2, 16], got {n_bits}")
    values = np.asarray(values, dtype=np.float64)
    if axis not in (None, 0):
        raise ValidationError(f"axis must be None or 0, got {axis!r}")
    if axis == 0 and values.ndim != 2:
        raise ValidationError(
            f"per-column quantization (axis=0) expects a 2-D matrix, got ndim={values.ndim}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError("cannot quantize non-finite values")
    q_max = (1 << (n_bits - 1)) - 1
    amax = np.max(np.abs(values), axis=axis) if values.size else np.zeros((), dtype=np.float64)
    scales = np.where(amax > 0.0, amax / q_max, 1.0)
    # Compute the scales in float64 but *divide by the stored float32 value*:
    # dequantization multiplies by the float32 scale, so rounding against the
    # same representable number keeps |value - code*scale| <= scale/2 exactly.
    scales = np.asarray(scales, dtype=np.float32)
    code_dtype = np.int8 if n_bits <= 8 else np.int16
    codes = np.clip(
        np.round(values / scales.astype(np.float64)), -q_max, q_max
    ).astype(code_dtype)
    return codes, scales


def dequantize_symmetric(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Reconstruct float32 values from :func:`quantize_symmetric` output.

    ``codes * scales`` in single precision — exact for the stored
    ``(codes, scales)`` pair, so a quantized tensor round-trips losslessly
    through its integer representation.
    """
    return np.asarray(codes, dtype=np.float32) * np.asarray(scales, dtype=np.float32)


class DigitalToTimeConverter:
    """8-bit (by default) input converter driving the visible-node clamps.

    Parameters
    ----------
    n_bits:
        Converter resolution.
    value_range:
        Analog full-scale range; training images are in [0, 1].
    """

    def __init__(self, n_bits: int = 8, *, value_range: Tuple[float, float] = (0.0, 1.0)):
        self.n_bits = check_int(n_bits, "n_bits", 1)
        self.value_range = check_range(value_range, name="value_range")

    @property
    def lsb(self) -> float:
        lo, hi = self.value_range
        return (hi - lo) / ((1 << self.n_bits) - 1)

    def convert(self, values: np.ndarray) -> np.ndarray:
        """Quantize digital input values to the analog levels the clamp drives."""
        return quantize_uniform(values, self.n_bits, self.value_range)


class AnalogToDigitalConverter:
    """8-bit (by default) readout converter for the trained coupling voltages.

    Used once per training run, one column of the coupling array at a time
    (Sec. 3.3 operation step 6), so its speed is irrelevant; only its
    quantization affects the read-out weights.  Quantization is
    elementwise, so digitizing the whole matrix at once equals the
    column-by-column readout.
    """

    def __init__(self, n_bits: int = 8, *, value_range: Tuple[float, float] = (-1.0, 1.0)):
        self.n_bits = check_int(n_bits, "n_bits", 1)
        self.value_range = check_range(value_range, name="value_range")

    @property
    def lsb(self) -> float:
        lo, hi = self.value_range
        return (hi - lo) / ((1 << self.n_bits) - 1)

    def read(self, values: np.ndarray) -> np.ndarray:
        """Digitize analog values."""
        return quantize_uniform(values, self.n_bits, self.value_range)
