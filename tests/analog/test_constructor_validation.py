"""Constructor validation of the analog circuit models.

Bit counts, shapes and unit counts follow the spec layer's integer rule
(an int above a minimum; floats and bools are rejected, not truncated),
and every range is an increasing pair of finite floats.
"""

import numpy as np
import pytest

from repro.analog import (
    AnalogToDigitalConverter,
    ChargePumpUpdater,
    DigitalToTimeConverter,
    SigmoidUnit,
)
from repro.utils.validation import ValidationError

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: ChargePumpUpdater((2.5, 2)), "shape"),
        (lambda: ChargePumpUpdater((True, 2)), "shape"),
        (lambda: ChargePumpUpdater((2, 0)), "shape"),
        (lambda: ChargePumpUpdater((2, 2, 2)), "shape"),
        (lambda: ChargePumpUpdater(4), "shape"),
        (lambda: ChargePumpUpdater((2, 2), weight_range=(0.0, NAN)), "weight_range"),
        (lambda: ChargePumpUpdater((2, 2), weight_range=(1.0, -1.0)), "weight_range"),
        (lambda: DigitalToTimeConverter(7.9), "n_bits"),
        (lambda: DigitalToTimeConverter(True), "n_bits"),
        (lambda: DigitalToTimeConverter(0), "n_bits"),
        (lambda: DigitalToTimeConverter(8, value_range=(0.0, NAN)), "value_range"),
        (lambda: DigitalToTimeConverter(8, value_range=(0.0,)), "value_range"),
        (lambda: AnalogToDigitalConverter(8.0), "n_bits"),
        (lambda: AnalogToDigitalConverter(8, value_range=(-INF, 1.0)), "value_range"),
        (lambda: AnalogToDigitalConverter(8, value_range=(1.0, 1.0)), "value_range"),
        (lambda: SigmoidUnit(n_units=4, gain_variation_rms=NAN), "gain_variation_rms"),
        (lambda: SigmoidUnit(n_units=2.5), "n_units"),
    ],
)
def test_bad_constructor_value_rejected_by_name(build, name):
    with pytest.raises(ValidationError, match=name):
        build()


def test_valid_values_are_canonicalized():
    pump = ChargePumpUpdater((np.int64(3), 2), weight_range=[-1, 1])
    assert pump.shape == (3, 2) and all(type(dim) is int for dim in pump.shape)
    assert pump.weight_range == (-1.0, 1.0)
    dtc = DigitalToTimeConverter(np.int64(4), value_range=np.array([0, 1]))
    assert type(dtc.n_bits) is int and dtc.value_range == (0.0, 1.0)
    assert AnalogToDigitalConverter(6).value_range == (-1.0, 1.0)
