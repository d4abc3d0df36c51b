"""Behavioral models of the analog circuits added to the Ising substrate.

Appendix B of the paper describes the extra circuits needed per node and
per coupling unit: a current-summation path, a sigmoid unit (a low-gain
differential amplifier), a thermal-noise random-number generator feeding a
dynamic comparator, DTC/ADC data converters, and — for the Boltzmann
gradient follower — a charge-redistribution charge pump that nudges each
coupling weight up or down.  The classes here model those circuits at the
behavioral level (transfer functions, quantization, saturation, noise and
process variation), which is the same abstraction level the paper's own
Matlab models operate at.  The Sec. 4.5 noise operating point these models
take is :class:`~repro.config.specs.NoiseSpec`.
"""

from repro.analog.sigmoid_unit import SigmoidUnit
from repro.analog.rng import ThermalNoiseRNG, DynamicComparator, StochasticNeuronSampler
from repro.analog.converters import (
    AnalogToDigitalConverter,
    DigitalToTimeConverter,
    dequantize_symmetric,
    quantize_symmetric,
    quantize_uniform,
)
from repro.analog.charge_pump import ChargePumpUpdater
from repro.analog.noise import NoiseModel

__all__ = [
    "SigmoidUnit",
    "ThermalNoiseRNG",
    "DynamicComparator",
    "StochasticNeuronSampler",
    "DigitalToTimeConverter",
    "AnalogToDigitalConverter",
    "quantize_uniform",
    "quantize_symmetric",
    "dequantize_symmetric",
    "ChargePumpUpdater",
    "NoiseModel",
]
