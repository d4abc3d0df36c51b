"""Spec-layer tests: construction validation, dict round trips."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.config import (
    ComputeSpec,
    EstimatorSpec,
    NoiseSpec,
    RunSpec,
    SamplerSpec,
    SubstrateSpec,
    TrainerSpec,
    ValidationError,
)


class TestComputeSpec:
    def test_defaults(self):
        spec = ComputeSpec()
        assert spec.dtype == "float64"

    def test_dtype_normalized_to_canonical_string(self):
        assert ComputeSpec(dtype=np.float32).dtype == "float32"
        assert ComputeSpec(dtype=np.dtype("float64")).dtype == "float64"

    # Warnings are errors here: NumPy's DeprecationWarning for the "a"
    # alias must surface as the ValidationError, quoting the value given.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", ["int8", "float16", "complex128", object, ",", "a"])
    def test_bad_dtype_rejected(self, dtype):
        message = f"dtype must be float32 or float64, got {dtype!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ComputeSpec(dtype=dtype)

    def test_retired_dtype_rejected_naming_the_reason(self):
        reason = "qint8 compute tier was removed"
        with pytest.raises(ValidationError, match=reason):
            ComputeSpec(dtype="qint8")
        with pytest.raises(ValidationError, match=reason):
            RunSpec(experiment="figure7").with_overrides(dtype="qint8")

    def test_workers_is_no_longer_a_field(self):
        with pytest.raises(TypeError, match="workers"):
            ComputeSpec(workers=1)

    @pytest.mark.parametrize("workers", [1, 2, np.int64(3)])
    def test_positive_workers_override_is_dropped(self, workers):
        """A once-valid worker count ran the one settle path; the override
        changes nothing and is not recorded."""
        base = RunSpec(experiment="figure7", compute=ComputeSpec(dtype="float32"))
        assert base.with_overrides(workers=workers) is base
        spec = base.with_overrides(workers=workers, epochs=3)
        assert spec.compute == ComputeSpec(dtype="float32")
        assert spec.params == {"epochs": 3}

    @pytest.mark.parametrize("workers", [0, -1, 2.5, "two", True, [2], None, "auto"])
    def test_other_workers_overrides_rejected_naming_the_knob(self, workers):
        with pytest.raises(ValidationError, match="'workers' is no longer a knob"):
            RunSpec(experiment="figure7").with_overrides(workers=workers)


SPEC_FIELDS = {
    ComputeSpec: ("dtype",),
    SamplerSpec: ("chains", "persistent"),
    NoiseSpec: ("variation_rms", "noise_rms"),
    SubstrateSpec: ("n_visible", "n_hidden", "input_bits", "noise", "compute"),
    TrainerSpec: (
        "kind", "learning_rate", "cd_k", "batch_size",
        "reference_batch_size", "sampler", "noise", "compute",
    ),
    EstimatorSpec: ("chains", "betas", "compute"),
    RunSpec: ("experiment", "preset", "seed", "compute", "params"),
}


@pytest.mark.parametrize(
    "cls, fields", SPEC_FIELDS.items(), ids=[cls.__name__ for cls in SPEC_FIELDS]
)
def test_settable_fields(cls, fields):
    """Every settable knob of every spec, pinned: a knob added or removed
    shows up here."""
    assert tuple(f.name for f in dataclasses.fields(cls)) == fields


class TestSamplerAndNoiseSpecs:
    @pytest.mark.parametrize("chains", [0, -3, 1.5, True])
    def test_bad_chains_rejected(self, chains):
        with pytest.raises(ValidationError):
            SamplerSpec(chains=chains)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: SamplerSpec(persistent="false"), "persistent"),
            (lambda: SamplerSpec(persistent=1), "persistent"),
            (lambda: TrainerSpec.gs(persistent="true"), "persistent"),
        ],
    )
    def test_flags_reject_non_bools(self, build, field):
        """``bool("false")`` is True: a coerced flag would silently flip."""
        with pytest.raises(ValidationError, match=f"{field} must be a bool"):
            build()

    def test_noise_spec_label_and_ideal_corner(self):
        assert NoiseSpec(0.1, 0.3).label == "0.1_0.3"
        assert NoiseSpec().label == "0_0"
        assert NoiseSpec().is_ideal
        assert not NoiseSpec(0.1, 0.0).is_ideal
        assert "label" not in NoiseSpec(0.1, 0.3).to_dict()

    def test_negative_rms_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(variation_rms=-0.1)

    @pytest.mark.parametrize(
        "field, value", [("variation_rms", float("nan")), ("noise_rms", "0.1")]
    )
    def test_rms_fields_reject_nan_and_strings(self, field, value):
        with pytest.raises(ValidationError, match=field):
            NoiseSpec(**{field: value})


class TestSubstrateSpec:
    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="dimensions must be positive"):
            SubstrateSpec(n_visible=0, n_hidden=4)

    @pytest.mark.parametrize("dims", [(6.5, 4), (6, None), (True, 4)])
    def test_non_int_dimensions_rejected(self, dims):
        """``SubstrateSpec.from_dict`` once raised a bare TypeError on a
        ``None`` dimension and truncated ``6.5`` to 6."""
        with pytest.raises(ValidationError, match="dimensions"):
            SubstrateSpec.from_dict({"n_visible": dims[0], "n_hidden": dims[1]})

    def test_bad_input_bits_rejected(self):
        with pytest.raises(ValidationError, match="input_bits"):
            SubstrateSpec(n_visible=4, n_hidden=2, input_bits=0)

    def test_none_input_bits_allowed(self):
        assert SubstrateSpec(n_visible=4, n_hidden=2, input_bits=None).input_bits is None



class TestTrainerSpec:
    @pytest.mark.parametrize(
        "name, value",
        [("streaming", True), ("stream_chunk_size", 64), ("sparse_visible", True)],
    )
    def test_retired_streaming_knobs_are_not_accepted(self, name, value):
        """The in-``train`` streaming knobs are gone; streaming goes through
        ``partial_fit``, so neither constructor takes them any more."""
        with pytest.raises(TypeError, match=name):
            TrainerSpec.gs(0.1, **{name: value})
        with pytest.raises(TypeError, match=name):
            TrainerSpec(kind="gs", learning_rate=0.1, **{name: value})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown trainer kind"):
            TrainerSpec(kind="sgd")

    def test_cd_is_float64_only(self):
        with pytest.raises(ValidationError, match="float64"):
            TrainerSpec(kind="cd", compute=ComputeSpec(dtype="float32"))

    def test_cd_rejects_hardware_sampler_and_noise_knobs(self):
        with pytest.raises(ValidationError, match="kind='gs'"):
            TrainerSpec(kind="cd", sampler=SamplerSpec(chains=64, persistent=True))
        with pytest.raises(ValidationError, match="noise"):
            TrainerSpec(kind="cd", noise=NoiseSpec(0.1, 0.1))

    def test_reference_batch_size_is_bgf_only(self):
        with pytest.raises(ValidationError, match="reference_batch_size"):
            TrainerSpec(kind="gs", reference_batch_size=10)

    def test_bgf_classmethod_mirrors_engine_defaults(self):
        spec = TrainerSpec.bgf()
        assert spec.cd_k == 2  # anneal_steps
        assert spec.sampler.chains == 8  # n_particles

    def test_gs_classmethod_routes_sampler_knobs(self):
        spec = TrainerSpec.gs(0.2, chains=16, persistent=True)
        assert spec.sampler == SamplerSpec(chains=16, persistent=True)


    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("gs", "learning_rate", float("nan")),
            ("cd", "learning_rate", "0.1"),
            ("bgf", "learning_rate", float("inf")),
        ],
    )
    def test_float_fields_reject_non_finite_and_strings(self, kind, field, value):
        """A NaN learning rate once trained to all-NaN weights, and a string
        one died mid-training with a numpy UFuncTypeError."""
        with pytest.raises(ValidationError, match=field):
            getattr(TrainerSpec, kind)(**{field: value})

    def test_float_fields_store_the_coerced_float(self):
        spec = TrainerSpec.cd(1)
        assert type(spec.learning_rate) is float and spec.learning_rate == 1.0

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("cd", "batch_size", 2.5),
            ("cd", "cd_k", 2.5),
            ("bgf", "reference_batch_size", 2.5),
            ("gs", "batch_size", True),
        ],
    )
    def test_integer_fields_reject_fractions_and_bools(self, kind, field, value):
        """``batch_size=2.5`` was once recorded as 2."""
        with pytest.raises(ValidationError, match=field):
            getattr(TrainerSpec, kind)(**{field: value})

    def test_integer_fields_accept_numpy_ints(self):
        spec = TrainerSpec.cd(batch_size=np.int64(8), cd_k=np.int32(2))
        assert type(spec.batch_size) is int and spec.batch_size == 8
        assert type(spec.cd_k) is int and spec.cd_k == 2


class TestEstimatorSpec:
    def test_bounds(self):
        with pytest.raises(ValidationError, match="n_chains"):
            EstimatorSpec(chains=0)
        with pytest.raises(ValidationError, match="n_betas"):
            EstimatorSpec(betas=1)

    @pytest.mark.parametrize("field, name", [("chains", "n_chains"), ("betas", "n_betas")])
    def test_fractional_counts_rejected(self, field, name):
        with pytest.raises(ValidationError, match=name):
            EstimatorSpec(**{field: 10.5})


class TestRunSpec:
    def test_reserved_knobs_must_not_hide_in_params(self):
        for key in ("seed", "dtype", "workers", "fast_path", "executor"):
            with pytest.raises(ValidationError, match=key):
                RunSpec(experiment="figure7", params={key: 1})

    def test_params_lists_normalize_to_tuples(self):
        spec = RunSpec(experiment="figure7", params={"datasets": ["mnist", "kmnist"]})
        assert spec.params["datasets"] == ("mnist", "kmnist")

    def test_with_overrides_routes_compute_and_seed(self):
        spec = RunSpec(experiment="figure7").with_overrides(
            dtype="float32", seed=7, epochs=3
        )
        assert spec.preset == "custom"
        assert spec.seed == 7
        assert spec.compute == ComputeSpec(dtype="float32")
        assert spec.params == {"epochs": 3}

    @pytest.mark.parametrize("value", ["threads", "processes"])
    def test_with_overrides_rejects_removed_executor_knob(self, value):
        """The retired knob must fail at the boundary, not fall through into
        params where a runner would silently ignore it."""
        with pytest.raises(ValidationError, match="executor"):
            RunSpec(experiment="figure7").with_overrides(executor=value)

    @pytest.mark.parametrize("value", [True, False, "no"])
    def test_with_overrides_rejects_removed_fast_path_knob(self, value):
        """``--set fast_path=no`` once parsed to a truthy string and ran the
        default path silently; the retired knob now fails at the boundary."""
        with pytest.raises(ValidationError, match="fast_path"):
            RunSpec(experiment="table4").with_overrides(fast_path=value)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            RunSpec(experiment="figure7", seed="paper")

    def test_negative_seed_rejected(self):
        """NumPy's seeding rejects negative seeds mid-run; the spec rejects
        them up front."""
        with pytest.raises(ValidationError, match="seed"):
            RunSpec(experiment="figure7", seed=-1)

    def test_negative_seed_rejected_through_from_dict(self):
        with pytest.raises(ValidationError, match="seed"):
            RunSpec.from_dict({"experiment": "figure7", "seed": -1})

    def test_negative_seed_rejected_through_with_overrides(self):
        with pytest.raises(ValidationError, match="seed"):
            RunSpec(experiment="figure7").with_overrides(seed=-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RunSpec(experiment="figure7", params={"lr": float("nan")}),
            lambda: RunSpec(experiment="figure7", params={"lr": (0.1, float("inf"))}),
            lambda: RunSpec.from_dict(
                json.loads('{"experiment": "figure7", "params": {"lr": NaN}}')
            ),
        ],
        ids=["constructor", "tuple-element", "json-from-dict"],
    )
    def test_non_finite_params_rejected_naming_the_key(self, build):
        with pytest.raises(ValidationError, match="lr"):
            build()


@pytest.mark.parametrize(
    "spec",
    [
        ComputeSpec(dtype="float32"),
        SamplerSpec(chains=8, persistent=True),
        NoiseSpec(0.1, 0.2),
        SubstrateSpec(
            n_visible=49,
            n_hidden=32,
            input_bits=None,
            noise=NoiseSpec(0.05, 0.05),
            compute=ComputeSpec(dtype="float32"),
        ),
        TrainerSpec.gs(
            0.2, chains=4, persistent=True, compute=ComputeSpec(dtype="float32")
        ),
        TrainerSpec.bgf(
            0.1, reference_batch_size=20, anneal_steps=3, noise=NoiseSpec(0.1, 0.1)
        ),
        EstimatorSpec(chains=32, betas=100, compute=ComputeSpec(dtype="float32")),
        RunSpec(
            experiment="figure7",
            preset="paper",
            seed=3,
            compute=ComputeSpec(dtype="float32"),
            params={"datasets": ("mnist", "kmnist"), "epochs": 5},
        ),
    ],
    ids=lambda s: type(s).__name__,
)
class TestRoundTrip:
    def test_from_dict_of_to_dict_is_identity(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_compatible(self, spec):
        json.dumps(spec.to_dict())  # must not raise


class TestFromDictValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown ComputeSpec keys"):
            ComputeSpec.from_dict({"dtype": "float64", "threads": 4})

    @pytest.mark.parametrize(
        "cls, data, key",
        [
            (TrainerSpec, {"kind": "bgf", "step_size": 0.002}, "step_size"),
            (SamplerSpec, {"chains": 8, "burn_in": 0}, "burn_in"),
            (SubstrateSpec, {"n_visible": 4, "n_hidden": 2, "sigmoid_gain": 1.0},
             "sigmoid_gain"),
            (SubstrateSpec,
             {"n_visible": 4, "n_hidden": 2, "comparator_offset_rms": 0.0},
             "comparator_offset_rms"),
        ],
        ids=["step_size", "burn_in", "sigmoid_gain", "comparator_offset_rms"],
    )
    def test_removed_knobs_rejected_naming_the_key(self, cls, data, key):
        """The BGF step override, particle burn-in, sigmoid gain and
        comparator offsets are gone; a dict still carrying one fails, even
        at the value the code now always uses."""
        with pytest.raises(ValidationError, match=f"unknown {cls.__name__} keys.*{key}"):
            cls.from_dict(data)

    @pytest.mark.parametrize("value", [None, "threads", "processes"])
    def test_legacy_executor_key_dropped(self, value):
        """Specs saved while the process tier existed still load."""
        data = {"dtype": "float32", "workers": 2, "fast_path": True, "executor": value}
        assert ComputeSpec.from_dict(data) == ComputeSpec(dtype="float32")
        run = {"experiment": "figure7", "compute": data}
        assert RunSpec.from_dict(run).compute == ComputeSpec(dtype="float32")

    @pytest.mark.parametrize("value", ["forks", "PROCESSES", "", 2])
    def test_legacy_executor_key_with_invalid_value_rejected(self, value):
        with pytest.raises(ValidationError, match="executor"):
            ComputeSpec.from_dict({"dtype": "float64", "executor": value})

    def test_legacy_fast_path_true_dropped(self):
        """Specs saved while the fast_path knob existed still load; the key
        is gone from the reloaded spec."""
        run = {
            "experiment": "table4",
            "seed": 3,
            "compute": {"dtype": "float64", "workers": 1, "fast_path": True},
        }
        loaded = RunSpec.from_dict(json.loads(json.dumps(run)))
        assert loaded.compute == ComputeSpec()
        assert loaded.to_dict()["compute"] == {"dtype": "float64"}

    @pytest.mark.parametrize("value", [False, "no", "true", 1, None])
    def test_legacy_fast_path_other_values_rejected(self, value):
        """Only the value the single implementation reproduces loads."""
        with pytest.raises(ValidationError, match="fast_path"):
            ComputeSpec.from_dict({"fast_path": value})

    @pytest.mark.parametrize(
        "stored, loaded",
        [
            ({"dtype": "qint8", "workers": 2}, ComputeSpec(dtype="float32")),
            ({"dtype": "float32", "workers": None}, ComputeSpec(dtype="float32")),
            ({"dtype": "float64", "workers": "auto"}, ComputeSpec()),
            ({"dtype": "qint8", "workers": "auto"}, ComputeSpec(dtype="float32")),
        ],
    )
    def test_retired_values_load_mapped(self, stored, loaded):
        """Specs saved with a retired tier or any once-valid worker count
        load as the concrete spec they computed under."""
        assert ComputeSpec.from_dict(stored) == loaded
        run = RunSpec.from_dict({"experiment": "figure7", "compute": stored})
        assert run.compute == loaded

    @pytest.mark.parametrize(
        "stored",
        [{"dtype": "QINT8"}, {"workers": "AUTO"}, {"workers": 0}, {"workers": True}],
    )
    def test_near_miss_retired_values_rejected(self, stored):
        with pytest.raises(ValidationError):
            ComputeSpec.from_dict(stored)

    @pytest.mark.parametrize("workers", [1, 2, 4, 64, np.int64(3), None, "auto"])
    def test_once_valid_stored_workers_dropped(self, workers):
        """Every once-valid worker count ran the one settle path, so a
        saved spec loads dtype-only and saves back without the key."""
        stored = {"dtype": "float32", "workers": workers}
        assert ComputeSpec.from_dict(stored) == ComputeSpec(dtype="float32")
        run = RunSpec.from_dict({"experiment": "table4", "compute": stored})
        assert run.to_dict()["compute"] == {"dtype": "float32"}

    @pytest.mark.parametrize("workers", [0, -1, False, True, "4", "two", 2.5, [2], "AUTO"])
    def test_other_stored_workers_rejected_naming_the_knob(self, workers):
        """A value no saved spec ever held is corruption, not history."""
        stored = {"dtype": "float64", "workers": workers}
        with pytest.raises(ValidationError, match="key 'workers' never held"):
            ComputeSpec.from_dict(stored)
        with pytest.raises(ValidationError, match="key 'workers' never held"):
            RunSpec.from_dict({"experiment": "table4", "compute": stored})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValidationError, match="mapping"):
            RunSpec.from_dict("figure7")

    def test_nested_specs_rebuilt(self):
        data = TrainerSpec.bgf(0.1).to_dict()
        rebuilt = TrainerSpec.from_dict(data)
        assert isinstance(rebuilt.sampler, SamplerSpec)
        assert isinstance(rebuilt.compute, ComputeSpec)
