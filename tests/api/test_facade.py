"""Facade builders and the six spec-configured entry points: specs in,
configured objects out, with the spec type, trainer kind and runtime
escape hatches checked at the boundary."""

import inspect

import numpy as np
import pytest

from repro.api import build_estimator, build_substrate, build_trainer
from repro.config import ComputeSpec, TrainerSpec, ValidationError
from repro.core import (
    BGFTrainer,
    BoltzmannGradientFollower,
    GibbsSamplerMachine,
    GibbsSamplerTrainer,
)
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM, CDTrainer

#: Each entry point's constructor: ``spec`` plus its runtime arguments.
#: Every declarative knob lives in the spec, so there is one way to
#: configure each object.
ENTRY_POINT_SIGNATURES = {
    BipartiteIsingSubstrate: ["spec", "rng"],
    GibbsSamplerMachine: ["spec", "rng"],
    GibbsSamplerTrainer: ["spec", "rng", "callback", "machine"],
    CDTrainer: ["spec", "rng", "callback"],
    BGFTrainer: ["spec", "rng", "callback"],
    AISEstimator: ["spec", "rng", "base_visible_bias"],
}


@pytest.mark.parametrize(
    "entry_point", list(ENTRY_POINT_SIGNATURES), ids=lambda cls: cls.__name__
)
def test_constructor_takes_spec_plus_runtime_arguments(entry_point):
    parameters = inspect.signature(entry_point).parameters
    assert list(parameters) == ENTRY_POINT_SIGNATURES[entry_point]
    assert parameters["spec"].default is inspect.Parameter.empty
    for name in ENTRY_POINT_SIGNATURES[entry_point][1:]:
        assert parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(ValidationError, match="Spec"):
        entry_point(spec=ComputeSpec())


def test_bgf_machine_takes_spec_plus_dimensions_and_rng():
    """The BGF machine's spec (a ``TrainerSpec``) has no array shape, so
    the dimensions join the runtime arguments."""
    parameters = inspect.signature(BoltzmannGradientFollower).parameters
    assert list(parameters) == ["spec", "n_visible", "n_hidden", "rng"]
    assert parameters["rng"].kind is inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(ValidationError, match="TrainerSpec"):
        BoltzmannGradientFollower(ComputeSpec(), 4, 2)
    with pytest.raises(ValidationError, match="kind='bgf'"):
        BoltzmannGradientFollower(TrainerSpec.gs(), 4, 2)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    prototypes = (rng.random((4, 20)) < 0.3).astype(float)
    samples = prototypes[rng.integers(0, 4, 60)]
    return samples


class TestBuildSubstrate:
    def test_type_checked(self):
        with pytest.raises(ValidationError, match="SubstrateSpec"):
            build_substrate(TrainerSpec.cd())


class TestBuildTrainer:
    def test_runtime_arguments_combine_with_spec_freely(self):
        trainer = GibbsSamplerTrainer(spec=TrainerSpec.gs(0.1), rng=3, callback=print)
        assert trainer.callback is print

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="kind='gs'"):
            GibbsSamplerTrainer(spec=TrainerSpec.cd())
        with pytest.raises(ValidationError, match="kind='bgf'"):
            BGFTrainer(spec=TrainerSpec.gs())
        with pytest.raises(ValidationError, match="kind='cd'"):
            CDTrainer(spec=TrainerSpec.bgf())

    def test_runtime_escape_hatches_are_kind_checked(self):
        with pytest.raises(ValidationError, match="machine"):
            build_trainer(TrainerSpec.cd(), machine=object())

    def test_float32_spec_threads_to_machine(self, data):
        trainer = build_trainer(
            TrainerSpec.gs(0.1, compute=ComputeSpec(dtype="float32")), rng=0
        )
        trainer.train(BernoulliRBM(20, 8, rng=0), data, epochs=1)
        assert trainer.machine.dtype == np.float32


class TestBuildEstimator:
    def test_type_checked(self):
        with pytest.raises(ValidationError, match="EstimatorSpec"):
            build_estimator(ComputeSpec())
