"""Builder facade: specs in, configured machines/trainers/estimators out.

One function per artifact class: :func:`build_substrate`,
:func:`build_trainer`, :func:`build_estimator`, and :func:`run_experiment`
(the registry-driven experiment entry point).  Runtime objects — RNG
seeds/generators, callbacks, pre-built machines — stay function arguments;
everything declarative lives in the spec (see :mod:`repro.config`).
"""

from __future__ import annotations

from typing import Optional

from repro.config.specs import (
    COMPUTE_KNOBS,
    ComputeSpec,
    EstimatorSpec,
    RunSpec,
    SubstrateSpec,
    TrainerSpec,
    check_spec,
)
from repro.core.gibbs_sampler import GibbsSamplerMachine, GibbsSamplerTrainer
from repro.core.gradient_follower import BGFTrainer
from repro.experiments.base import ExperimentResult
from repro.ising.bipartite import BipartiteIsingSubstrate
from repro.rbm.ais import AISEstimator
from repro.rbm.rbm import CDTrainer
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError

__all__ = [
    "build_substrate",
    "build_trainer",
    "build_estimator",
    "run_experiment",
]


def build_substrate(
    spec: SubstrateSpec, *, rng: SeedLike = None
) -> BipartiteIsingSubstrate:
    """Construct a :class:`BipartiteIsingSubstrate` from its spec."""
    return BipartiteIsingSubstrate(spec=spec, rng=rng)


def build_trainer(
    spec: TrainerSpec,
    *,
    rng: SeedLike = None,
    callback=None,
    machine: Optional[GibbsSamplerMachine] = None,
):
    """Construct the trainer ``spec.kind`` describes (cd / gs / bgf).

    ``machine`` (a pre-built :class:`GibbsSamplerMachine`, GS only) is a
    runtime escape hatch; passing it to another kind raises.
    """
    check_spec(spec, TrainerSpec, "build_trainer")
    if machine is not None and spec.kind != "gs":
        raise ValidationError(
            f"machine= applies to the 'gs' trainer, not kind={spec.kind!r}"
        )
    if spec.kind == "cd":
        return CDTrainer(spec=spec, rng=rng, callback=callback)
    if spec.kind == "gs":
        return GibbsSamplerTrainer(spec=spec, rng=rng, callback=callback, machine=machine)
    return BGFTrainer(spec=spec, rng=rng, callback=callback)


def build_estimator(
    spec: EstimatorSpec,
    *,
    rng: SeedLike = None,
    base_visible_bias=None,
) -> AISEstimator:
    """Construct an :class:`AISEstimator` from its spec.

    ``base_visible_bias`` is data-derived (the log-odds trick), so it stays
    a runtime argument rather than a spec field.
    """
    return AISEstimator(spec=spec, rng=rng, base_visible_bias=base_visible_bias)


def run_experiment(spec: RunSpec) -> ExperimentResult:
    """Run the registered experiment a :class:`RunSpec` describes.

    Its params are validated against the experiment runner's signature,
    and the spec is recorded under ``metadata["run_spec"]`` of the returned
    :class:`~repro.experiments.base.ExperimentResult` — every result
    carries the exact configuration that produced it.  When the spec left
    ``compute`` unset on a compute-threading experiment, the recorded spec
    carries the default :class:`~repro.config.ComputeSpec`, so every such
    record has a concrete ``compute`` block.
    """
    from repro.api.registry import get_experiment

    if not isinstance(spec, RunSpec):
        raise ValidationError(
            f"run_experiment needs a RunSpec, got {type(spec).__name__}"
        )
    experiment = get_experiment(spec.experiment)
    recorded = spec
    if spec.compute is None and any(
        knob in experiment.accepts for knob in COMPUTE_KNOBS
    ):
        recorded = spec.replace(compute=ComputeSpec())
    kwargs = experiment.materialize_kwargs(spec)
    result = experiment.runner(**kwargs)
    result.metadata["run_spec"] = recorded.to_dict()
    return result
