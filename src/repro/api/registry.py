"""Registry of the paper's experiments, keyed by declarative RunSpec presets.

Every experiment driver (one per table/figure) registers here with its
runner, its formatter, and its presets — ``"ci"`` (minutes on a laptop)
plus, where the paper-scale wiring exists, ``"paper"`` (and ``"sparse"``
for the CSR variants of figures 9 and 10).  Each preset is a literal
:class:`~repro.config.RunSpec` written out below, the one place its tuned
knob values live.

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


def _register_paper_experiments() -> None:
    """Register the ten paper artifacts (import-time, registration order =
    the paper's artifact order, which the runners and CLI preserve)."""
    from repro.experiments.fig5_execution_time import format_figure5, run_figure5
    from repro.experiments.fig6_energy import format_figure6, run_figure6
    from repro.experiments.fig7_logprob import format_figure7, run_figure7
    from repro.experiments.fig8_noise import format_figure8, run_figure8
    from repro.experiments.fig9_mae_noise import format_figure9, run_figure9
    from repro.experiments.fig10_roc_noise import format_figure10, run_figure10
    from repro.experiments.fig11_bias_kl import format_figure11, run_figure11
    from repro.experiments.table2_area_power import format_table2, run_table2
    from repro.experiments.table3_accelerators import format_table3, run_table3
    from repro.experiments.table4_accuracy import format_table4, run_table4

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
    # The paper presets run the hardware methods serially (workers=1):
    # sharding pays only with single-threaded BLAS, because every shard
    # thread calls a multi-threaded GEMM that already uses the cores.
    # Override workers=k (with OPENBLAS_NUM_THREADS=1) to shard; see
    # docs/performance.md, "Workers and BLAS threads".
    paper_compute = ComputeSpec(dtype="float32", workers=1)
    register_experiment(
        "figure7", run_figure7, format_figure7,
        description="Log-probability trajectories of CD-1/CD-10/BGF",
        presets={
            # MNIST scale: mnist is Table 1's 784x200 RBM, kmnist the
            # 784x500 shape.  Software CD-1 stays the host baseline, CD-10
            # is dropped (10x the host wall-clock for a second baseline
            # curve is not the claim at this scale), and BGF plus the
            # 64-chain PCD Gibbs sampler run in the float32 tier.
            "paper": RunSpec(
                experiment="figure7",
                preset="paper",
                compute=paper_compute,
                params={
                    "datasets": ("mnist", "kmnist"),
                    "scale": "paper",
                    "epochs": 5,
                    "methods": ("cd1", "BGF"),
                    "gs_chains": 64,
                    "ais_chains": 64,
                    "ais_betas": 500,
                },
            )
        },
    )
    register_experiment(
        "table4", run_table4, format_table4,
        description="End-task quality of CD-10 vs BGF trained models",
        presets={
            # Table 1's image shapes (784x200 mnist, 784x500 kmnist), the
            # 8-chain PCD Gibbs-sampler column and the float32 tier for
            # the hardware trainers.  The claim is the MNIST-scale image
            # rows, so the DBN, recommender and anomaly rows are dropped.
            "paper": RunSpec(
                experiment="table4",
                preset="paper",
                compute=paper_compute,
                params={
                    "image_benchmarks": ("mnist", "kmnist"),
                    "include_dbn": False,
                    "include_recommender": False,
                    "include_anomaly": False,
                    "scale": "paper",
                    "epochs": 10,
                    "gs_chains": 8,
                },
            )
        },
    )
    register_experiment(
        "figure8", run_figure8, format_figure8,
        description="BGF log-probability trajectories under analog noise",
        presets={
            "paper": RunSpec(
                experiment="figure8", preset="paper", params={"scale": "paper"}
            )
        },
    )
    register_experiment(
        "figure9", run_figure9, format_figure9,
        description="Recommender MAE under analog noise",
        presets={
            "paper": RunSpec(
                experiment="figure9", preset="paper", params={"scale": "paper"}
            ),
            # Sparse one-hot MovieLens through the GS trainer's CSR
            # data-term kernels — the sparse real-data variant.
            "sparse": RunSpec(
                experiment="figure9",
                preset="sparse",
                params={"engine": "gs", "encoding": "onehot", "sparse": True, "epochs": 10},
            ),
        },
    )
    register_experiment(
        "figure10", run_figure10, format_figure10,
        description="Anomaly-detection ROC/AUC under analog noise",
        presets={
            "paper": RunSpec(
                experiment="figure10", preset="paper", params={"scale": "paper"}
            ),
            # Sparse one-hot fraud features through the GS trainer's CSR
            # data-term kernels — the sparse real-data variant.
            "sparse": RunSpec(
                experiment="figure10",
                preset="sparse",
                params={
                    "engine": "gs",
                    "encoding": "onehot",
                    "n_bins": 16,
                    "sparse": True,
                    "epochs": 10,
                },
            ),
        },
    )
    register_experiment(
        "figure11", run_figure11, format_figure11,
        description="Estimator bias (KL) of ML/CD/BGF on an exact RBM",
    )


_register_paper_experiments()
