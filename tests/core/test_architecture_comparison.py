"""Tests of the architectural claims that distinguish GS from BGF.

The quantitative speedup/energy numbers live in the analytic hardware model
(tests/hardware); these tests check the *structural* differences on the
functional simulators: how often each architecture talks to the host, and
that both reach comparable model quality from the same starting point.
"""

import numpy as np
import pytest

from repro.config import TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.rbm import BernoulliRBM
from repro.rbm import reconstruction_error


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(11)
    prototypes = (rng.random((4, 16)) < 0.35).astype(float)
    return prototypes[rng.integers(0, 4, 100)]


class TestHostInteractionGap:
    def test_bgf_needs_orders_of_magnitude_fewer_host_interactions(self, training_data):
        """The BGF's entire point: per-sample learning without per-batch host
        involvement.  GS reprograms the array and reads samples every batch;
        the BGF programs once and reads out once."""
        epochs = 3
        rbm_gs = BernoulliRBM(16, 8, rng=0)
        gs = GibbsSamplerTrainer(spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10), rng=1)
        gs.train(rbm_gs, training_data, epochs=epochs)

        rbm_bgf = BernoulliRBM(16, 8, rng=0)
        bgf = BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1)
        bgf.train(rbm_bgf, training_data, epochs=epochs)
        bgf.machine.read_out()

        gs_interactions = gs.machine.host.total_host_interactions
        bgf_interactions = bgf.machine.host.total_host_interactions
        assert bgf_interactions < gs_interactions / 10

    def test_gs_host_interactions_scale_with_batches(self, training_data):
        small_batches = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=5), rng=1
        )
        rbm = BernoulliRBM(16, 8, rng=0)
        small_batches.train(rbm, training_data, epochs=1)
        large_batches = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=50), rng=1
        )
        rbm2 = BernoulliRBM(16, 8, rng=0)
        large_batches.train(rbm2, training_data, epochs=1)
        assert (
            small_batches.machine.host.programming_writes
            > large_batches.machine.host.programming_writes
        )

    def test_bgf_host_interactions_independent_of_dataset_size(self, training_data):
        small = BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1)
        rbm = BernoulliRBM(16, 8, rng=0)
        small.train(rbm, training_data[:20], epochs=1)
        large = BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1)
        rbm2 = BernoulliRBM(16, 8, rng=0)
        large.train(rbm2, training_data, epochs=1)
        assert (
            small.machine.host.total_host_interactions
            == large.machine.host.total_host_interactions
        )
        assert (
            large.machine.host.training_samples_streamed
            > small.machine.host.training_samples_streamed
        )


class TestQualityParity:
    def test_both_architectures_reach_similar_quality(self, training_data):
        base = BernoulliRBM(16, 8, rng=0)
        base.init_visible_bias_from_data(training_data)

        rbm_gs = base.copy()
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10), rng=1
        ).train(
            rbm_gs, training_data, epochs=15
        )
        rbm_bgf = base.copy()
        BGFTrainer(spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1).train(
            rbm_bgf, training_data, epochs=15
        )

        untrained_error = reconstruction_error(base, training_data)
        gs_error = reconstruction_error(rbm_gs, training_data)
        bgf_error = reconstruction_error(rbm_bgf, training_data)
        assert gs_error < untrained_error
        assert bgf_error < untrained_error
        assert abs(gs_error - bgf_error) < 0.5 * untrained_error

    def test_architectures_start_identically_but_diverge_in_trajectory(self, training_data):
        """Same initial parameters, different update schedules: the two trained
        models are similar in quality but not identical in parameters."""
        base = BernoulliRBM(16, 8, rng=0)
        rbm_gs, rbm_bgf = base.copy(), base.copy()
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.2, cd_k=1, batch_size=10), rng=1
        ).train(
            rbm_gs, training_data, epochs=5
        )
        BGFTrainer(
            spec=TrainerSpec.bgf(0.2, reference_batch_size=10), rng=1
        ).train(rbm_bgf, training_data, epochs=5)
        assert not np.allclose(rbm_gs.weights, rbm_bgf.weights)
