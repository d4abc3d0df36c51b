"""Property-based tests (hypothesis) at the spec boundary.

Two trust boundaries feed every run: serialized ``RunSpec`` dicts (saved
artifacts, ``metadata["run_spec"]``) and ``--set key=value`` overrides.
Round trips through them must be exact, and bad input must end in a
:class:`ValidationError` (``SetArgumentError`` is one), never another
exception.
"""

import json
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.cli import SetArgumentError, parse_set_argument, parse_set_value
from repro.config import ComputeSpec, RunSpec, ValidationError

#: Knobs RunSpec routes to its typed fields instead of params.
ROUTED = ("seed", "dtype", "workers", "fast_path")

names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)
param_names = names.filter(lambda key: key not in ROUTED + ("executor",))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**9), 10**9), finite_floats, st.text(max_size=8)
)
param_values = st.one_of(scalars, st.lists(scalars, max_size=4))
seeds = st.integers(0, 2**32 - 1)
computes = st.builds(
    ComputeSpec,
    dtype=st.sampled_from(["float64", "float32", "qint8"]),
    workers=st.one_of(st.none(), st.integers(1, 8), st.just("auto")),
)
run_specs = st.builds(
    RunSpec,
    experiment=names,
    preset=names,
    seed=seeds,
    compute=st.one_of(st.none(), computes),
    params=st.dictionaries(param_names, param_values, max_size=4),
)
#: ``--set`` values: arbitrary text plus the literals that once slipped
#: through (non-finite, negative, fractional).
raw_values = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-1", "2.5", "0", "auto", "a,b,"]),
    st.integers(-5, 5).map(str),
    finite_floats.map(repr),
)


class TestRunSpecRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(run_specs)
    def test_dict_and_json_round_trips_are_identity(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @settings(max_examples=150, deadline=None)
    @given(
        run_specs,
        st.dictionaries(param_names, param_values, max_size=3),
        st.one_of(st.none(), seeds),
        st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_with_overrides_routes_each_key_and_round_trips(
        self, spec, params, seed, workers
    ):
        settings_ = dict(params)
        if seed is not None:
            settings_["seed"] = seed
        if workers is not None:
            settings_["workers"] = workers
        overridden = spec.with_overrides(**settings_)
        assert RunSpec.from_dict(overridden.to_dict()) == overridden
        assert overridden.seed == (spec.seed if seed is None else seed)
        if workers is not None:
            assert overridden.compute.workers == workers
        expected = RunSpec(experiment="x", params=params).params
        for key in params:
            assert overridden.params[key] == expected[key]


class TestSetParsing:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=24))
    def test_parse_set_argument_fails_only_with_set_argument_error(self, text):
        try:
            key, _ = parse_set_argument(text)
        except SetArgumentError:
            return
        assert key and key == key.strip()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ROUTED + ("executor", "epochs", "datasets")), raw_values)
    @example(key="dtype", raw="0{")  # np.dtype raised a bare ValueError
    def test_overrides_fail_only_with_validation_errors(self, key, raw):
        try:
            parsed_key, value = parse_set_argument(f"{key}={raw}")
            RunSpec(experiment="figure7").with_overrides(**{parsed_key: value})
        except ValidationError:
            pass

    @given(st.integers(-(10**6), 10**6))
    def test_seed_override_valid_iff_non_negative(self, seed):
        key, value = parse_set_argument(f"seed={seed}")
        try:
            spec = RunSpec(experiment="figure7").with_overrides(**{key: value})
        except ValidationError:
            assert seed < 0
        else:
            assert seed >= 0 and spec.seed == seed

    @given(st.one_of(st.integers(), finite_floats))
    def test_numeric_literals_parse_back_exactly(self, number):
        value = parse_set_value(repr(number))
        assert value == number and type(value) is type(number)
