"""Registry of the paper's experiments, keyed by declarative RunSpec presets.

Every experiment driver (one per table/figure) registers here with its
runner, its formatter, and its presets — ``"ci"`` (minutes on a laptop)
plus, where the paper-scale wiring exists, ``"paper"``.  The presets that
used to live as ``PAPER_FIGURE7_CONFIG``-style dicts are converted into
:class:`~repro.config.RunSpec` values at registration time
(:func:`runspec_from_legacy_config`), so the dicts stay the single source
of the tuned knob values while the registry exposes them declaratively.

The registry is what ``python -m repro run`` drives;
:func:`repro.api.run_experiment` validates a spec's params against the
runner's signature here before executing it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.config.specs import COMPUTE_KNOBS, ComputeSpec, RunSpec
from repro.experiments.base import ExperimentResult
from repro.utils.validation import ValidationError

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "experiment_names",
    "runspec_from_legacy_config",
]


def _accepted_parameters(runner: Callable[..., ExperimentResult]) -> frozenset:
    """Keyword names ``runner`` accepts (its declarative knob surface)."""
    parameters = inspect.signature(runner).parameters
    return frozenset(
        name
        for name, parameter in parameters.items()
        if parameter.kind
        in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    )


def _sequence_parameters(runner: Callable[..., ExperimentResult]) -> frozenset:
    """Parameter names annotated as sequences (``Sequence[...]``/tuples).

    The experiment modules use ``from __future__ import annotations``, so
    the annotations arrive as strings; a textual check is enough to know
    which knobs expect a sequence — which lets ``materialize_kwargs`` wrap
    a scalar override (``--set datasets=mnist``) into a one-element tuple
    instead of letting the runner iterate the string character by
    character.
    """
    parameters = inspect.signature(runner).parameters
    return frozenset(
        name
        for name, parameter in parameters.items()
        if isinstance(parameter.annotation, str)
        and ("Sequence" in parameter.annotation or "Tuple" in parameter.annotation)
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: runner + formatter + declarative presets."""

    name: str
    runner: Callable[..., ExperimentResult]
    formatter: Callable[[ExperimentResult], str]
    description: str
    presets: Mapping[str, RunSpec]
    accepts: frozenset = field(default_factory=frozenset)
    sequence_params: frozenset = field(default_factory=frozenset)

    def preset(self, name: str) -> RunSpec:
        """The preset called ``name``, or a ValidationError naming the rest."""
        try:
            return self.presets[name]
        except KeyError:
            raise ValidationError(
                f"experiment {self.name!r} has no preset {name!r}; "
                f"available presets: {sorted(self.presets)}"
            ) from None

    def materialize_kwargs(self, spec: RunSpec) -> Dict[str, Any]:
        """Validated keyword arguments for :attr:`runner` from ``spec``.

        Unknown params, a non-zero seed on a seedless experiment, or a
        non-default compute knob the runner does not thread all raise
        :class:`ValidationError` here — at the API boundary, before any
        training starts.
        """
        if spec.experiment != self.name:
            raise ValidationError(
                f"RunSpec is for experiment {spec.experiment!r}, "
                f"not {self.name!r}"
            )
        kwargs = dict(spec.params)
        unknown = set(kwargs) - self.accepts
        if unknown:
            raise ValidationError(
                f"experiment {self.name!r} does not accept {sorted(unknown)}; "
                f"known knobs: {sorted(self.accepts)}"
            )
        for name in self.sequence_params & set(kwargs):
            # A scalar for a sequence knob (``--set datasets=mnist``) means
            # a one-element sequence, not an iterable of characters.
            if isinstance(kwargs[name], (str, int, float)):
                kwargs[name] = (kwargs[name],)
        if "seed" in self.accepts:
            kwargs["seed"] = spec.seed
        elif spec.seed != 0:
            raise ValidationError(
                f"experiment {self.name!r} does not accept a seed "
                f"(got seed={spec.seed})"
            )
        if spec.compute is not None:
            defaults = ComputeSpec()
            for knob in COMPUTE_KNOBS:
                value = getattr(spec.compute, knob)
                if knob in self.accepts:
                    kwargs[knob] = value
                elif value != getattr(defaults, knob):
                    raise ValidationError(
                        f"experiment {self.name!r} does not thread the "
                        f"{knob!r} compute knob (got {knob}={value!r})"
                    )
        return kwargs


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(
    name: str,
    runner: Callable[..., ExperimentResult],
    formatter: Callable[[ExperimentResult], str],
    *,
    description: str = "",
    presets: Optional[Mapping[str, RunSpec]] = None,
) -> ExperimentSpec:
    """Register (or replace) an experiment; a ``"ci"`` preset is implied."""
    full_presets: Dict[str, RunSpec] = {"ci": RunSpec(experiment=name)}
    if presets:
        for preset_name, preset in presets.items():
            if preset.experiment != name:
                raise ValidationError(
                    f"preset {preset_name!r} is a RunSpec for "
                    f"{preset.experiment!r}, not {name!r}"
                )
            full_presets[preset_name] = preset
    experiment = ExperimentSpec(
        name=name,
        runner=runner,
        formatter=formatter,
        description=description,
        presets=full_presets,
        accepts=_accepted_parameters(runner),
        sequence_params=_sequence_parameters(runner),
    )
    _REGISTRY[name] = experiment
    return experiment


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name (ValidationError if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {name!r}; known experiments: "
            f"{sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> List[ExperimentSpec]:
    """Registered experiments, in registration (paper-artifact) order."""
    return list(_REGISTRY.values())


def experiment_names() -> List[str]:
    """Registered experiment names, in registration order."""
    return list(_REGISTRY)


def runspec_from_legacy_config(
    experiment: str, config: Mapping[str, Any], *, preset: str = "paper"
) -> RunSpec:
    """Convert a ``PAPER_*_CONFIG``-style kwargs dict into a :class:`RunSpec`.

    Compute knobs (``dtype``/``workers``) move into the typed
    :class:`ComputeSpec`, ``seed`` into the seed field, and everything else
    becomes params — so the tuned dicts stay the single source of the knob
    values while the registry exposes them declaratively.
    """
    params = {k: v for k, v in config.items() if k not in COMPUTE_KNOBS}
    seed = params.pop("seed", 0)
    compute_kwargs = {k: config[k] for k in COMPUTE_KNOBS if k in config}
    return RunSpec(
        experiment=experiment,
        preset=preset,
        seed=seed,
        compute=ComputeSpec(**compute_kwargs) if compute_kwargs else None,
        params=params,
    )


def _register_paper_experiments() -> None:
    """Register the ten paper artifacts (import-time, registration order =
    the paper's artifact order, which the runners and CLI preserve)."""
    from repro.experiments.fig5_execution_time import format_figure5, run_figure5
    from repro.experiments.fig6_energy import format_figure6, run_figure6
    from repro.experiments.fig7_logprob import (
        PAPER_FIGURE7_CONFIG,
        format_figure7,
        run_figure7,
    )
    from repro.experiments.fig8_noise import format_figure8, run_figure8
    from repro.experiments.fig9_mae_noise import format_figure9, run_figure9
    from repro.experiments.fig10_roc_noise import format_figure10, run_figure10
    from repro.experiments.fig11_bias_kl import format_figure11, run_figure11
    from repro.experiments.table2_area_power import format_table2, run_table2
    from repro.experiments.table3_accelerators import format_table3, run_table3
    from repro.experiments.table4_accuracy import (
        PAPER_TABLE4_CONFIG,
        format_table4,
        run_table4,
    )

    register_experiment(
        "figure5", run_figure5, format_figure5,
        description="Execution time of TPU/GS/GPU normalized to BGF",
    )
    register_experiment(
        "figure6", run_figure6, format_figure6,
        description="Energy consumption of TPU/GS/GPU normalized to BGF",
    )
    register_experiment(
        "table2", run_table2, format_table2,
        description="Area/power of the GS and BGF sub-units",
    )
    register_experiment(
        "table3", run_table3, format_table3,
        description="Accelerator comparison (TOPS/mm^2, TOPS/W)",
    )
    register_experiment(
        "figure7", run_figure7, format_figure7,
        description="Log-probability trajectories of CD-1/CD-10/BGF",
        presets={
            "paper": runspec_from_legacy_config("figure7", PAPER_FIGURE7_CONFIG)
        },
    )
    register_experiment(
        "table4", run_table4, format_table4,
        description="End-task quality of CD-10 vs BGF trained models",
        presets={
            "paper": runspec_from_legacy_config("table4", PAPER_TABLE4_CONFIG)
        },
    )
    register_experiment(
        "figure8", run_figure8, format_figure8,
        description="BGF log-probability trajectories under analog noise",
        presets={
            "paper": runspec_from_legacy_config(
                "figure8", {"scale": "paper"}
            )
        },
    )
    register_experiment(
        "figure9", run_figure9, format_figure9,
        description="Recommender MAE under analog noise",
        presets={
            "paper": runspec_from_legacy_config(
                "figure9", {"scale": "paper"}
            ),
            # Sparse one-hot MovieLens through the GS trainer's CSR
            # data-term kernels — the sparse real-data variant.
            "sparse": runspec_from_legacy_config(
                "figure9",
                {"engine": "gs", "encoding": "onehot", "sparse": True, "epochs": 10},
                preset="sparse",
            ),
        },
    )
    register_experiment(
        "figure10", run_figure10, format_figure10,
        description="Anomaly-detection ROC/AUC under analog noise",
        presets={
            "paper": runspec_from_legacy_config(
                "figure10", {"scale": "paper"}
            ),
            # Sparse one-hot fraud features through the GS trainer's CSR
            # data-term kernels — the sparse real-data variant.
            "sparse": runspec_from_legacy_config(
                "figure10",
                {
                    "engine": "gs",
                    "encoding": "onehot",
                    "n_bins": 16,
                    "sparse": True,
                    "epochs": 10,
                },
                preset="sparse",
            ),
        },
    )
    register_experiment(
        "figure11", run_figure11, format_figure11,
        description="Estimator bias (KL) of ML/CD/BGF on an exact RBM",
    )


_register_paper_experiments()
