"""Facade builders and the six spec-configured entry points: specs in,
configured objects out, with the spec type, trainer kind and runtime
escape hatches checked at the boundary."""

import inspect

import numpy as np
import pytest

from repro.api import build_estimator, build_substrate, build_trainer
from repro.config import ComputeSpec, TrainerSpec, ValidationError
from repro.core import BGFTrainer, GibbsSamplerMachine, GibbsSamplerTrainer
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
    BGFTrainer: ["spec", "rng", "callback", "config"],
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
        with pytest.raises(ValidationError, match="config"):
            build_trainer(TrainerSpec.gs(), config=object())

    def test_explicit_bgf_config_reconciles_the_recorded_spec(self):
        """config= is authoritative; the trainer's spec must describe the
        run that actually happens, not the values config shadowed."""
        from repro.core.gradient_follower import BGFConfig

        config = BGFConfig(step_size=0.02, n_particles=4, anneal_steps=5)
        trainer = build_trainer(
            TrainerSpec.bgf(0.2, particles=64, anneal_steps=2), config=config
        )
        assert trainer.config is config
        assert trainer.spec.step_size == 0.02
        assert trainer.spec.cd_k == 5
        assert trainer.spec.sampler.chains == 4

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
