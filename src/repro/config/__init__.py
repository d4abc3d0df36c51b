"""Typed configuration layer: frozen, validated run-spec dataclasses.

Every scaling knob the perf PRs introduced (precision tier, worker count,
chain counts, noise operating point) lives in exactly one spec class here;
:mod:`repro.api` builds substrates/trainers/estimators from them and runs
experiments described by :class:`RunSpec`.  See ``docs/api.md``.
"""

from repro.config.specs import (
    ComputeSpec,
    EstimatorSpec,
    NoiseSpec,
    RunSpec,
    SamplerSpec,
    Spec,
    SubstrateSpec,
    TrainerSpec,
)
from repro.utils.validation import ValidationError

__all__ = [
    "Spec",
    "ComputeSpec",
    "SamplerSpec",
    "NoiseSpec",
    "SubstrateSpec",
    "TrainerSpec",
    "EstimatorSpec",
    "RunSpec",
    "ValidationError",
]
