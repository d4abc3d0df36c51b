"""Builder facade: :func:`build_trainer` picks the trainer a spec's kind
names, and :func:`run_experiment` is the registry-driven experiment entry
point.  Substrates and estimators are built by their constructors
(``BipartiteIsingSubstrate(spec=...)``, ``AISEstimator(spec=...)``).
Runtime objects — RNG seeds/generators and callbacks — stay function
arguments; everything declarative lives in the spec (see
:mod:`repro.config`).
"""

from __future__ import annotations

from repro.config.specs import (
    COMPUTE_KNOBS,
    ComputeSpec,
    RunSpec,
    TrainerSpec,
    check_spec,
)
from repro.core.gibbs_sampler import GibbsSamplerTrainer
from repro.core.gradient_follower import BGFTrainer
from repro.experiments.base import ExperimentResult
from repro.rbm.rbm import CDTrainer
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError

__all__ = [
    "build_trainer",
    "run_experiment",
]


def build_trainer(
    spec: TrainerSpec,
    *,
    rng: SeedLike = None,
    callback=None,
):
    """Construct the trainer ``spec.kind`` describes (cd / gs / bgf)."""
    check_spec(spec, TrainerSpec, "build_trainer")
    if spec.kind == "cd":
        return CDTrainer(spec=spec, rng=rng, callback=callback)
    if spec.kind == "gs":
        return GibbsSamplerTrainer(spec=spec, rng=rng, callback=callback)
    return BGFTrainer(spec=spec, rng=rng, callback=callback)


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
