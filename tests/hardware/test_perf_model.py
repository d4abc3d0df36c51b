"""Tests for the Figure-5/6 performance and energy model."""

import dataclasses

import numpy as np
import pytest

from repro.hardware import PerformanceModel, WorkloadSpec, benchmark_workloads
from repro.hardware.components import BGF_LIBRARY, GIBBS_SAMPLER_LIBRARY
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


@pytest.fixture(scope="module")
def workloads():
    return benchmark_workloads()


@pytest.fixture(scope="module")
def mnist_workload(workloads):
    return next(w for w in workloads if w.name == "MNIST_RBM")


class TestWorkloadSpec:
    def test_benchmark_roster_matches_figure5(self, workloads):
        names = [w.name for w in workloads]
        assert len(names) == 11
        assert names[0] == "MNIST_RBM"
        assert names[-1] == "RC_RBM"
        assert sum(1 for n in names if n.endswith("_DBN")) == 4

    def test_dbn_workloads_have_multiple_layers(self, workloads):
        mnist_dbn = next(w for w in workloads if w.name == "MNIST_DBN")
        assert mnist_dbn.layers == ((784, 500), (500, 500), (500, 10))

    def test_rbm_workloads_use_table1_shapes(self, workloads):
        kmnist = next(w for w in workloads if w.name == "KMNIST_RBM")
        assert kmnist.layers == ((784, 500),)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            WorkloadSpec(name="bad", layers=(), n_samples=10)
        with pytest.raises(ValidationError):
            WorkloadSpec(name="bad", layers=((10, 0),), n_samples=10)
        with pytest.raises(ValidationError):
            WorkloadSpec(name="bad", layers=((10, 10),), n_samples=0)


class TestTimingModel:
    def test_all_times_positive(self, model, workloads):
        for workload in workloads:
            timings = model.evaluate(workload)
            for timing in timings.values():
                assert timing.seconds > 0
                assert timing.joules > 0

    def test_bgf_is_fastest(self, model, workloads):
        for workload in workloads:
            timings = model.evaluate(workload)
            assert timings["BGF"].seconds < timings["TPU"].seconds
            assert timings["BGF"].seconds < timings["GS"].seconds
            assert timings["BGF"].seconds < timings["GPU"].seconds

    def test_gs_faster_than_tpu(self, model, workloads):
        """The paper: GS achieves ~2x speedup over the TPU on every benchmark."""
        for workload in workloads:
            timings = model.evaluate(workload)
            assert timings["GS"].seconds < timings["TPU"].seconds

    def test_gpu_slower_than_tpu_on_average(self, model, workloads):
        ratios = []
        for workload in workloads:
            timings = model.evaluate(workload)
            ratios.append(timings["GPU"].seconds / timings["TPU"].seconds)
        assert np.exp(np.mean(np.log(ratios))) > 1.0

    def test_time_scales_with_samples(self, model, mnist_workload):
        double = WorkloadSpec(
            name="x", layers=mnist_workload.layers,
            n_samples=2 * mnist_workload.n_samples, cd_k=mnist_workload.cd_k,
        )
        assert model.tpu_time(double) == pytest.approx(2 * model.tpu_time(mnist_workload), rel=0.01)
        assert model.bgf_time(double) == pytest.approx(2 * model.bgf_time(mnist_workload), rel=0.05)

    def test_time_scales_with_epochs(self, model, mnist_workload):
        two_epochs = WorkloadSpec(
            name="x", layers=mnist_workload.layers, n_samples=mnist_workload.n_samples,
            cd_k=mnist_workload.cd_k, epochs=2,
        )
        assert model.gs_time(two_epochs) == pytest.approx(2 * model.gs_time(mnist_workload), rel=0.01)

    def test_gs_breakdown_components(self, model, mnist_workload):
        breakdown = model.gs_time_breakdown(mnist_workload)
        assert set(breakdown) == {"substrate", "host_compute", "communication"}
        assert all(value > 0 for value in breakdown.values())
        # Communication is a minority, but non-negligible, share of host wait.
        host_wait = breakdown["host_compute"] + breakdown["communication"]
        assert 0.05 < breakdown["communication"] / host_wait < 0.7

    def test_tpu_slower_and_costlier_than_bgf(self, model, mnist_workload):
        timings = model.evaluate(mnist_workload)
        assert timings["TPU"].seconds > timings["BGF"].seconds
        assert timings["TPU"].joules > timings["BGF"].joules


class TestFigure5Claims:
    def test_geomean_speedup_about_29x(self, model):
        rows = model.figure5_rows()
        geomean = rows[-1]
        assert geomean["workload"] == "GeoMean"
        assert 20 <= geomean["TPU"] <= 45

    def test_gs_speedup_over_tpu_about_2x(self, model):
        geomean = model.figure5_rows()[-1]
        assert 1.5 <= geomean["TPU"] / geomean["GS"] <= 4.0

    def test_gpu_slowest_substrate(self, model):
        geomean = model.figure5_rows()[-1]
        assert geomean["GPU"] > geomean["TPU"]

    def test_row_count_and_normalization(self, model):
        rows = model.figure5_rows()
        assert len(rows) == 12  # 11 workloads + geomean
        for row in rows:
            assert row["BGF"] == 1.0
            assert row["TPU"] > 1.0

    def test_custom_workload_list(self, model, mnist_workload):
        rows = model.figure5_rows([mnist_workload])
        assert len(rows) == 2


class TestFigure6Claims:
    def test_geomean_energy_saving_about_1000x(self, model):
        geomean = model.figure6_rows()[-1]
        assert 500 <= geomean["TPU"] <= 3000

    def test_gs_energy_between_tpu_and_bgf(self, model):
        geomean = model.figure6_rows()[-1]
        assert 1.0 < geomean["GS"] < geomean["TPU"]

    def test_energy_rows_normalized(self, model):
        for row in model.figure6_rows():
            assert row["BGF"] == 1.0
            assert row["TPU"] > row["GS"]


WORKLOAD_NAMES = [w.name for w in benchmark_workloads()]
DBN_NAMES = [name for name in WORKLOAD_NAMES if name.endswith("_DBN")]
ACCELERATORS = ("TPU", "GPU", "GS", "BGF")


def _workload(name):
    return next(w for w in benchmark_workloads() if w.name == name)


class TestOperationCounts:
    @pytest.mark.parametrize(
        "m, n, cd_k, expected",
        [(1, 1, 1, 10.0), (3, 4, 2, 168.0), (784, 500, 10, 18_032_000.0)],
    )
    def test_mac_ops_per_sample(self, m, n, cd_k, expected):
        # 2 ops per MAC over 1 positive product, 2 per Gibbs step, 2 outer products.
        assert PerformanceModel.mac_ops_per_sample(m, n, cd_k) == expected

    @pytest.mark.parametrize(
        "m, n, cd_k, expected",
        [(1, 1, 1, 3.0), (3, 4, 2, 18.0), (784, 500, 10, 13_340.0)],
    )
    def test_sampling_ops_per_sample(self, m, n, cd_k, expected):
        # The hidden layer once, then both layers on every Gibbs step.
        assert PerformanceModel.sampling_ops_per_sample(m, n, cd_k) == expected


class TestPerWorkloadAccounting:
    """Bookkeeping identities that hold on every Figure-5/6 workload."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_gs_breakdown_sums_to_gs_time(self, model, name):
        workload = _workload(name)
        breakdown = model.gs_time_breakdown(workload)
        assert all(value > 0 for value in breakdown.values())
        assert sum(breakdown.values()) == pytest.approx(model.gs_time(workload), rel=1e-12)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_epochs_scale_time_and_energy_linearly(self, model, name):
        one = _workload(name)
        three = dataclasses.replace(one, epochs=3)
        base, tripled = model.evaluate(one), model.evaluate(three)
        for key in ACCELERATORS:
            assert tripled[key].seconds == pytest.approx(3 * base[key].seconds, rel=1e-12)
            assert tripled[key].joules == pytest.approx(3 * base[key].joules, rel=1e-12)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_energy_is_power_times_busy_time(self, model, name):
        workload = _workload(name)
        nodes = model.accelerator_nodes
        assert model.tpu_energy(workload) == pytest.approx(
            model.host_average_power_w * model.tpu_time(workload), rel=1e-12
        )
        assert model.gpu_energy(workload) == pytest.approx(
            model.gpu.board_power_w * model.gpu_time(workload), rel=1e-12
        )
        assert model.bgf_energy(workload) == pytest.approx(
            BGF_LIBRARY.total_power_w(nodes) * model.bgf_time(workload), rel=1e-12
        )
        breakdown = model.gs_time_breakdown(workload)
        host_time = breakdown["host_compute"] + breakdown["communication"]
        assert model.gs_energy(workload) == pytest.approx(
            GIBBS_SAMPLER_LIBRARY.total_power_w(nodes) * breakdown["substrate"]
            + model.host_average_power_w * host_time,
            rel=1e-12,
        )

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_more_gibbs_steps_cost_more_on_every_substrate(self, model, name):
        shallow = dataclasses.replace(_workload(name), cd_k=1)
        deep = dataclasses.replace(shallow, cd_k=10)
        shallow_t, deep_t = model.evaluate(shallow), model.evaluate(deep)
        for key in ACCELERATORS:
            assert deep_t[key].seconds > shallow_t[key].seconds
            assert deep_t[key].joules > shallow_t[key].joules

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_bgf_uses_least_energy(self, model, name):
        timings = model.evaluate(_workload(name))
        bgf = timings["BGF"].joules
        assert all(timings[key].joules > bgf for key in ("TPU", "GPU", "GS"))


class TestLayerAdditivity:
    """A DBN workload costs the sum of its greedily-trained layers."""

    @pytest.mark.parametrize("accelerator", ACCELERATORS)
    @pytest.mark.parametrize("name", DBN_NAMES)
    def test_dbn_cost_is_sum_of_layer_costs(self, model, name, accelerator):
        dbn = _workload(name)
        assert len(dbn.layers) > 1
        layers = [
            model.evaluate(dataclasses.replace(dbn, layers=(layer,)))[accelerator]
            for layer in dbn.layers
        ]
        whole = model.evaluate(dbn)[accelerator]
        assert whole.seconds == pytest.approx(sum(t.seconds for t in layers), rel=1e-12)
        assert whole.joules == pytest.approx(sum(t.joules for t in layers), rel=1e-12)
