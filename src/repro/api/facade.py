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
    EstimatorSpec,
    RunSpec,
    SubstrateSpec,
    TrainerSpec,
    check_spec,
)
from repro.core.gibbs_sampler import GibbsSamplerMachine, GibbsSamplerTrainer
from repro.core.gradient_follower import BGFConfig, BGFTrainer
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
    config: Optional[BGFConfig] = None,
):
    """Construct the trainer ``spec.kind`` describes (cd / gs / bgf).

    ``machine`` (a pre-built :class:`GibbsSamplerMachine`, GS only) and
    ``config`` (an expert :class:`BGFConfig` overriding the spec-derived
    operating parameters, BGF only) are runtime escape hatches; passing one
    to the wrong kind raises.
    """
    check_spec(spec, TrainerSpec, "build_trainer")
    if machine is not None and spec.kind != "gs":
        raise ValidationError(
            f"machine= applies to the 'gs' trainer, not kind={spec.kind!r}"
        )
    if config is not None and spec.kind != "bgf":
        raise ValidationError(
            f"config= applies to the 'bgf' trainer, not kind={spec.kind!r}"
        )
    if spec.kind == "cd":
        return CDTrainer(spec=spec, rng=rng, callback=callback)
    if spec.kind == "gs":
        return GibbsSamplerTrainer(spec=spec, rng=rng, callback=callback, machine=machine)
    return BGFTrainer(spec=spec, rng=rng, callback=callback, config=config)


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

    The spec is resolved first (environment defaults, ``"auto"`` worker
    expansion — for any experiment that threads compute knobs, a garbage
    ``REPRO_WORKERS`` fails here, loudly), its params are validated
    against the experiment runner's signature, and the resolved spec is
    recorded under ``metadata["run_spec"]`` of the returned
    :class:`~repro.experiments.base.ExperimentResult` — every result
    carries the exact configuration that produced it.  When the spec left
    ``compute`` unset on a compute-threading experiment, the recorded
    spec fills in the resolved environment defaults (the
    ``REPRO_WORKERS`` value that actually drove the kernels), so a
    recorded run reproduces on another host.

    Note the runner itself receives the *unresolved* worker knob: deferred
    (``None``/``"auto"``) worker counts keep their documented
    degrade-gracefully semantics inside the kernels, while the metadata
    records what they resolved to on this host.
    """
    from repro.api.registry import COMPUTE_KNOBS, get_experiment

    if not isinstance(spec, RunSpec):
        raise ValidationError(
            f"run_experiment needs a RunSpec, got {type(spec).__name__}"
        )
    experiment = get_experiment(spec.experiment)
    resolved = spec.resolve()
    if resolved.compute is None and any(
        knob in experiment.accepts for knob in COMPUTE_KNOBS
    ):
        from repro.config.specs import ComputeSpec

        resolved = resolved.replace(compute=ComputeSpec().resolve())
    kwargs = experiment.materialize_kwargs(spec)
    result = experiment.runner(**kwargs)
    result.metadata["run_spec"] = resolved.to_dict()
    return result
