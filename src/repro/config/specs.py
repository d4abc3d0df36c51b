"""Typed, frozen run-spec dataclasses: the single configuration surface.

Three scaling changes in a row (multi-chain/persistent, the float32
precision tier, a since-retired multicore knob) each re-threaded the same
keyword arguments through substrate → trainers → estimator → experiment
runners → preset dicts.  This module turns those knobs into *specs*: frozen,
validated dataclasses with

* ``ValidationError`` at construction — a typo'd dtype or a ``chains=0``
  fails at the API boundary, not as a numpy traceback deep in a settle;
* ``to_dict()`` / ``from_dict()`` — a lossless, JSON-compatible round trip
  (tuples serialize as lists and normalize back), which is what lets every
  :class:`~repro.experiments.base.ExperimentResult` record the spec it
  ran under.

The spec classes are pure configuration: runtime objects (RNGs, callbacks,
pre-built machines) stay constructor arguments of the things the facade
(:mod:`repro.api`) builds from these specs.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.utils.validation import (
    ValidationError,
    check_bool,
    check_finite,
    check_int,
    check_positive,
)

__all__ = [
    "Spec",
    "ComputeSpec",
    "SamplerSpec",
    "NoiseSpec",
    "SubstrateSpec",
    "TrainerSpec",
    "EstimatorSpec",
    "RunSpec",
    "COMPUTE_KNOBS",
]

#: Trainer kinds the spec layer knows how to build (see ``repro.api``).
TRAINER_KINDS: Tuple[str, ...] = ("cd", "gs", "bgf")


def _to_jsonable(value: Any) -> Any:
    """Recursively convert a spec field value into JSON-compatible data."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _normalize_params(value: Any, key: str) -> Any:
    """Canonical in-memory form for ``RunSpec.params`` values.

    Serialization emits lists (JSON has no tuples); construction normalizes
    them back to tuples so ``RunSpec.from_dict(spec.to_dict()) == spec``
    holds exactly.  Floats must be finite (``json.loads`` parses ``NaN``).
    A spec (e.g. a ``noise_configs`` entry) is stored as its
    :meth:`~Spec.to_dict` mapping, whose values normalize the same way.
    """
    if isinstance(value, Spec):
        value = value.to_dict()
    if isinstance(value, Mapping):
        return {str(k): _normalize_params(v, key) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_normalize_params(item, key) for item in value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return check_finite(value, name=key)
    return value


class Spec:
    """Shared behavior of every frozen spec dataclass.

    Subclasses are ``@dataclass(frozen=True)``; this base contributes the
    serialization round trip and ``replace`` sugar.
    """

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict of this spec (nested specs become dicts)."""
        return {
            f.name: _to_jsonable(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Spec":
        """Rebuild a spec from :meth:`to_dict` output (lossless round trip).

        Unknown keys raise :class:`ValidationError` — a stale or typo'd
        serialized spec fails loudly instead of silently dropping knobs.
        """
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"{cls.__name__}.from_dict needs a mapping, got {type(data).__name__}"
            )
        field_map = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(field_map)
        if unknown:
            raise ValidationError(
                f"unknown {cls.__name__} keys {sorted(unknown)}; "
                f"known keys are {sorted(field_map)}"
            )
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            nested = _NESTED_SPEC_FIELDS.get((cls.__name__, name))
            if nested is not None and value is not None and not isinstance(value, Spec):
                value = nested.from_dict(value)
            kwargs[name] = value
        return cls(**kwargs)  # type: ignore[call-arg]

    def replace(self, **changes: Any) -> "Spec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]


def check_spec(spec: Any, cls: type, owner: str, *, kind: Optional[str] = None) -> None:
    """Raise a :class:`ValidationError` unless ``spec`` is a ``cls`` (of
    trainer ``kind``, when given) — the constructors' ``spec=`` gate."""
    if not isinstance(spec, cls):
        raise ValidationError(
            f"{owner} needs a {cls.__name__}, got {type(spec).__name__}"
        )
    if kind is not None and spec.kind != kind:
        raise ValidationError(
            f"{owner} needs a {cls.__name__} with kind={kind!r}, got kind={spec.kind!r}"
        )


def _same_value(value: Any, candidate: Any) -> bool:
    """Type-strict equality: a stored ``1`` or ``"true"`` is not ``True``."""
    return type(value) is type(candidate) and value == candidate


def _one_of(*valid: Any) -> Callable[[Any], bool]:
    """A predicate true for the type-strict members of ``valid``."""
    return lambda value: any(_same_value(value, v) for v in valid)


def _positive_int(value: Any) -> bool:
    """An int ``>= 1``; a bool is a typo, not a count."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 1
    )


@dataclass(frozen=True)
class ComputeSpec(Spec):
    """Execution-tier knobs shared by the substrate, trainers and estimator.

    The field is concrete: a spec means the same thing on every host.

    Attributes
    ----------
    dtype:
        Precision tier: ``"float64"`` (bit-identical contract) or
        ``"float32"`` (statistically pinned single-precision kernels).
    """

    dtype: str = "float64"

    #: Retired knobs, each with the values a saved spec may still carry,
    #: the values a ``--set`` override may still give, and why the knob
    #: went.  Both kinds of once-valid value drew the same numbers as
    #: today's single implementation, so the key is dropped: on load by
    #: :meth:`from_dict`, on override by :meth:`RunSpec.with_overrides`.
    #: Any other value is rejected with the reason.
    _LEGACY_KEYS: ClassVar[
        Dict[str, Tuple[Callable[[Any], bool], Callable[[Any], bool], str]]
    ] = {
        "executor": (
            _one_of(None, "threads", "processes"),
            _one_of(),
            "no sharding tier is left, process or thread",
        ),
        "fast_path": (
            _one_of(True),
            _one_of(),
            "every kernel has one implementation, the former fast path",
        ),
        "workers": (
            lambda value: _positive_int(value) or _one_of(None, "auto")(value),
            _positive_int,
            "a chain block settles as one batched matmul, and BLAS threads "
            "are the only parallelism",
        ),
    }

    #: Retired values of the live fields: the once-valid values, what a
    #: saved spec loads them as, and why they went.  Constructors and
    #: overrides reject them with the reason; only :meth:`from_dict` maps
    #: them, so older artifacts keep loading.
    _RETIRED_VALUES: ClassVar[Dict[str, Tuple[Tuple[Any, ...], Any, str]]] = {
        "dtype": (
            ("qint8",),
            "float32",
            "the qint8 compute tier was removed; it computed in float32, and "
            "the 8-bit DTC (input_bits) and the BGF's 8-bit ADC readout model "
            "finite precision",
        ),
    }

    def __post_init__(self) -> None:
        for name, (retired, _, reason) in self._RETIRED_VALUES.items():
            value = getattr(self, name)
            if any(_same_value(value, old) for old in retired):
                raise ValidationError(f"{name}={value!r} is no longer valid: {reason}")
        # np.dtype parses comma strings such as "," with ast (SyntaxError)
        # and warns on deprecated aliases such as "a"; both are rejected.
        message = f"dtype must be float32 or float64, got {self.dtype!r}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                canonical = np.dtype(self.dtype)
        except (TypeError, ValueError, SyntaxError, DeprecationWarning) as exc:
            raise ValidationError(message) from exc
        if canonical not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValidationError(message)
        object.__setattr__(self, "dtype", str(canonical))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComputeSpec":
        """:meth:`Spec.from_dict`, loading older saved run specs: a
        :attr:`_LEGACY_KEYS` entry holding one of its once-valid values is
        dropped and a :attr:`_RETIRED_VALUES` value is mapped to its
        replacement; any other value still raises a
        :class:`ValidationError`."""
        if isinstance(data, Mapping):
            data = dict(data)
            for key, (loads, _, reason) in cls._LEGACY_KEYS.items():
                if key not in data:
                    continue
                value = data.pop(key)
                if not loads(value):
                    raise ValidationError(
                        f"legacy ComputeSpec key {key!r} never held {value!r}; "
                        f"the knob was removed: {reason}"
                    )
            for key, (retired, replacement, _) in cls._RETIRED_VALUES.items():
                if key in data and any(_same_value(data[key], old) for old in retired):
                    data[key] = replacement
        return super().from_dict(data)  # type: ignore[return-value]


#: The settable :class:`ComputeSpec` knobs: ``RunSpec`` routes them to its
#: ``compute`` field, the registry threads them to the runners.
COMPUTE_KNOBS: Tuple[str, ...] = tuple(f.name for f in dataclasses.fields(ComputeSpec))


@dataclass(frozen=True)
class SamplerSpec(Spec):
    """Negative-phase sampling knobs (chains, persistence).

    Attributes
    ----------
    chains:
        Number of parallel negative-phase chains ``p`` (Gibbs-sampler
        trainer) or persistent particles (BGF).
    persistent:
        PCD-style persistence (GS trainer; the BGF's particles are
        persistent by algorithm).
    """

    chains: int = 1
    persistent: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "chains", check_int(self.chains, "chains", 1))
        check_bool(self.persistent, "persistent")


@dataclass(frozen=True)
class NoiseSpec(Spec):
    """One (variation RMS, noise RMS) analog operating point (Sec. 4.5)."""

    variation_rms: float = 0.0
    noise_rms: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "variation_rms",
            check_positive(self.variation_rms, name="variation_rms", strict=False),
        )
        object.__setattr__(
            self,
            "noise_rms",
            check_positive(self.noise_rms, name="noise_rms", strict=False),
        )

    @property
    def label(self) -> str:
        """The paper's "variation_noise" label, e.g. ``"0.1_0.1"``."""
        return f"{self.variation_rms:g}_{self.noise_rms:g}"

    @property
    def is_ideal(self) -> bool:
        return self.variation_rms == 0.0 and self.noise_rms == 0.0


@dataclass(frozen=True)
class SubstrateSpec(Spec):
    """Full configuration of a :class:`~repro.ising.bipartite.BipartiteIsingSubstrate`."""

    n_visible: int
    n_hidden: int
    input_bits: Optional[int] = 8
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    compute: ComputeSpec = field(default_factory=ComputeSpec)

    def __post_init__(self) -> None:
        dims = (self.n_visible, self.n_hidden)
        if not all(
            isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0
            for d in dims
        ):
            raise ValidationError(f"substrate dimensions must be positive ints, got {dims}")
        object.__setattr__(self, "n_visible", int(self.n_visible))
        object.__setattr__(self, "n_hidden", int(self.n_hidden))
        if self.input_bits is not None:
            object.__setattr__(
                self, "input_bits", check_int(self.input_bits, "input_bits", 1)
            )
        if not isinstance(self.noise, NoiseSpec):
            raise ValidationError("noise must be a NoiseSpec")
        if not isinstance(self.compute, ComputeSpec):
            raise ValidationError("compute must be a ComputeSpec")


@dataclass(frozen=True)
class TrainerSpec(Spec):
    """Declarative trainer configuration for the three training engines.

    ``kind`` selects the engine: ``"cd"`` (software CD-k reference),
    ``"gs"`` (Gibbs-sampler architecture) or ``"bgf"`` (Boltzmann gradient
    follower).  Field semantics per kind:

    * ``cd_k`` — CD/GS Gibbs steps; for the BGF it is the per-negative-phase
      ``anneal_steps`` (the knob playing CD-k's role, per Sec. 3.3).
    * ``sampler.chains`` — GS negative chains / BGF persistent particles.
    * ``reference_batch_size`` — the BGF's charge-pump step is
      ``learning_rate / reference_batch_size``.
    * ``compute.dtype`` — hardware engines only; the software CD reference
      is float64 by definition.
    """

    kind: str = "gs"
    learning_rate: float = 0.1
    cd_k: int = 1
    batch_size: int = 10
    reference_batch_size: int = 50
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    compute: ComputeSpec = field(default_factory=ComputeSpec)

    def __post_init__(self) -> None:
        if self.kind not in TRAINER_KINDS:
            raise ValidationError(
                f"unknown trainer kind {self.kind!r}; choose from {TRAINER_KINDS}"
            )
        checked = {
            "learning_rate": check_positive(self.learning_rate, name="learning_rate"),
            "cd_k": check_int(self.cd_k, "cd_k", 1),
            "batch_size": check_int(self.batch_size, "batch_size", 1),
            "reference_batch_size": check_int(
                self.reference_batch_size, "reference_batch_size", 1
            ),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not isinstance(self.sampler, SamplerSpec):
            raise ValidationError("sampler must be a SamplerSpec")
        if not isinstance(self.noise, NoiseSpec):
            raise ValidationError("noise must be a NoiseSpec")
        if not isinstance(self.compute, ComputeSpec):
            raise ValidationError("compute must be a ComputeSpec")
        # Kind-specific constraints surface here, not deep in a train loop.
        if self.kind == "cd":
            if self.compute.dtype != "float64":
                raise ValidationError(
                    "the software CD reference trains in float64; precision tiers "
                    "apply to the hardware trainers ('gs', 'bgf')"
                )
            if self.sampler != SamplerSpec():
                raise ValidationError(
                    "sampler configuration (chains/persistent) "
                    "applies to the hardware trainers ('gs', 'bgf'); the "
                    "software CD reference seeds its negative chains from the "
                    "minibatch — did you mean kind='gs'?"
                )
            if not self.noise.is_ideal:
                raise ValidationError(
                    "the software CD reference has no analog noise model; "
                    "noise applies to the hardware trainers ('gs', 'bgf')"
                )
        if self.kind != "bgf":
            if self.reference_batch_size != 50:
                raise ValidationError(
                    f"reference_batch_size is a BGF step-size knob; the "
                    f"{self.kind!r} trainer uses batch_size"
                )

    # ------------------------------------------------------------------ #
    # Kind-specific constructors: flat knob names with the engines' own
    # defaults (a default TrainerSpec.bgf() builds the same machine a
    # default BGFTrainer always has: 8 particles, 2 anneal steps).
    # ------------------------------------------------------------------ #
    @classmethod
    def cd(
        cls,
        learning_rate: float = 0.1,
        *,
        cd_k: int = 1,
        batch_size: int = 10,
    ) -> "TrainerSpec":
        """Software CD-k reference trainer spec (float64)."""
        return cls(
            kind="cd", learning_rate=learning_rate, cd_k=cd_k, batch_size=batch_size
        )

    @classmethod
    def gs(
        cls,
        learning_rate: float = 0.1,
        *,
        cd_k: int = 1,
        batch_size: int = 10,
        chains: int = 1,
        persistent: bool = False,
        noise: Optional[NoiseSpec] = None,
        compute: Optional[ComputeSpec] = None,
    ) -> "TrainerSpec":
        """Gibbs-sampler architecture trainer spec (Sec. 3.2)."""
        return cls(
            kind="gs",
            learning_rate=learning_rate,
            cd_k=cd_k,
            batch_size=batch_size,
            sampler=SamplerSpec(chains=chains, persistent=persistent),
            noise=noise if noise is not None else NoiseSpec(),
            compute=compute if compute is not None else ComputeSpec(),
        )

    @classmethod
    def bgf(
        cls,
        learning_rate: float = 0.1,
        *,
        reference_batch_size: int = 50,
        anneal_steps: int = 2,
        particles: int = 8,
        noise: Optional[NoiseSpec] = None,
        compute: Optional[ComputeSpec] = None,
    ) -> "TrainerSpec":
        """Boltzmann-gradient-follower trainer spec (Sec. 3.3).

        ``anneal_steps`` maps to the spec's ``cd_k`` field and ``particles``
        to ``sampler.chains``.
        """
        return cls(
            kind="bgf",
            learning_rate=learning_rate,
            cd_k=anneal_steps,
            reference_batch_size=reference_batch_size,
            sampler=SamplerSpec(chains=particles),
            noise=noise if noise is not None else NoiseSpec(),
            compute=compute if compute is not None else ComputeSpec(),
        )


@dataclass(frozen=True)
class EstimatorSpec(Spec):
    """AIS log-partition estimator configuration (chains, betas, tier)."""

    chains: int = 64
    betas: int = 200
    compute: ComputeSpec = field(default_factory=ComputeSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chains", check_int(self.chains, "n_chains", 1))
        object.__setattr__(self, "betas", check_int(self.betas, "n_betas", 2))
        if not isinstance(self.compute, ComputeSpec):
            raise ValidationError("compute must be a ComputeSpec")


@dataclass(frozen=True)
class RunSpec(Spec):
    """Top-level experiment run description (what ``repro.api`` executes).

    Attributes
    ----------
    experiment:
        Registered experiment name (``"figure7"``, ``"table2"``, ...).
    preset:
        Informational label of the preset this spec came from (``"ci"``,
        ``"paper"``, or ``"custom"`` after overrides).
    seed:
        Master seed, forwarded to experiments that accept one.
    compute:
        Optional execution-tier overrides (dtype) for
        experiments that thread them; ``None`` keeps the experiment's
        defaults.
    params:
        Experiment-specific keyword arguments (epochs, datasets, ...).
        Values are normalized to plain-data canonical form (lists become
        tuples) so the dict round trip is exact; names are validated
        against the experiment's signature by the registry at run time.
        The reserved knobs ``seed``/``dtype``
        must live in their typed fields, not here, and a retired compute
        knob (:attr:`ComputeSpec._LEGACY_KEYS`) is rejected outright.
    """

    experiment: str
    preset: str = "ci"
    seed: int = 0
    compute: Optional[ComputeSpec] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise ValidationError(
                f"experiment must be a non-empty string, got {self.experiment!r}"
            )
        if not self.preset or not isinstance(self.preset, str):
            raise ValidationError(
                f"preset must be a non-empty string, got {self.preset!r}"
            )
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))
        if self.compute is not None and not isinstance(self.compute, ComputeSpec):
            raise ValidationError("compute must be a ComputeSpec or None")
        if not isinstance(self.params, Mapping):
            raise ValidationError(
                f"params must be a mapping, got {type(self.params).__name__}"
            )
        params: Dict[str, Any] = {}
        for key, value in self.params.items():
            if not isinstance(key, str):
                raise ValidationError(f"params keys must be strings, got {key!r}")
            if key in ComputeSpec._LEGACY_KEYS:
                raise ValidationError(
                    f"{key!r} is no longer a knob: "
                    f"{ComputeSpec._LEGACY_KEYS[key][2]}"
                )
            if key == "seed" or key in COMPUTE_KNOBS:
                raise ValidationError(
                    f"params may not carry {key!r}; set it through the typed "
                    "RunSpec fields (seed / compute) so it is recorded once"
                )
            params[key] = _normalize_params(value, key)
        object.__setattr__(self, "params", params)

    def with_overrides(self, **settings: Any) -> "RunSpec":
        """Apply ``--set``-style overrides, routing each key to its field.

        The compute knob ``dtype`` lands in :attr:`compute` (created on
        demand), ``seed`` in :attr:`seed`, and everything else in
        :attr:`params`.  A retired compute knob's once-valid override
        value (:attr:`ComputeSpec._LEGACY_KEYS`) changes nothing and is
        dropped; any other value for it fails.  The preset label flips to
        ``"custom"`` so recorded metadata distinguishes overridden runs.
        """
        legacy = ComputeSpec._LEGACY_KEYS
        settings = {
            key: value
            for key, value in settings.items()
            if not (key in legacy and legacy[key][1](value))
        }
        if not settings:
            return self
        compute = self.compute
        seed = self.seed
        params = dict(self.params)
        for key, value in settings.items():
            if key in COMPUTE_KNOBS:
                compute = (compute or ComputeSpec()).replace(**{key: value})
            elif key == "seed":
                seed = value
            else:
                params[key] = value
        return RunSpec(
            experiment=self.experiment,
            preset="custom",
            seed=seed,
            compute=compute,
            params=params,
        )


#: Nested-spec field registry used by ``Spec.from_dict`` to rebuild
#: sub-specs from their serialized dict form.
_NESTED_SPEC_FIELDS: Dict[Tuple[str, str], type] = {
    ("SubstrateSpec", "noise"): NoiseSpec,
    ("SubstrateSpec", "compute"): ComputeSpec,
    ("TrainerSpec", "sampler"): SamplerSpec,
    ("TrainerSpec", "noise"): NoiseSpec,
    ("TrainerSpec", "compute"): ComputeSpec,
    ("EstimatorSpec", "compute"): ComputeSpec,
    ("RunSpec", "compute"): ComputeSpec,
}
