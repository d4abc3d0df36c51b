"""Downsized ``scale="paper"`` smoke runs (nightly CI; ``-m paperscale``).

Tier-1 proves the algorithms at CI scale; these smokes prove the *paper
scale wiring actually executes* — Table-1 shapes (784x200 / 784x500), the
float32 precision tier, the multi-chain PCD engine, and the paper presets —
with sample counts and epoch budgets cut far enough to finish in a nightly
job rather than the multi-hour full runs documented in EXPERIMENTS.md.
Excluded from the default pytest selection by the ``paperscale`` marker
(registered in pyproject.toml).
"""

import numpy as np
import pytest

from repro.api import get_experiment, run_experiment
from repro.config import ComputeSpec, EstimatorSpec, SubstrateSpec, TrainerSpec
from repro.core import GibbsSamplerTrainer
from repro.experiments.fig7_logprob import trajectories
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM

pytestmark = pytest.mark.paperscale


def _run_paper_preset(name, **overrides):
    """The registered paper preset, cut by ``overrides``, through the API."""
    return run_experiment(get_experiment(name).preset("paper").with_overrides(**overrides))

class TestPaperScaleKernels:
    """Direct 784x500 float32 substrate + AIS execution (no dataset loop)."""

    def test_settle_batch_784x500_float32(self):
        substrate = BipartiteIsingSubstrate(
            spec=SubstrateSpec(784, 500, compute=ComputeSpec(dtype="float32")), rng=0
        )
        rng = np.random.default_rng(1)
        substrate.program(
            rng.normal(0, 0.05, (784, 500)), np.zeros(784), np.zeros(500)
        )
        hidden = (rng.random((64, 500)) < 0.5).astype(float)
        v, h = substrate.settle_batch(hidden, 5)
        assert v.shape == (64, 784) and v.dtype == np.float32
        assert h.shape == (64, 500) and h.dtype == np.float32
        assert 0.1 < float(v.mean()) < 0.9  # mixing, not frozen

    def test_ais_784x500_float32(self):
        rbm = BernoulliRBM(784, 500, rng=0)
        rng = np.random.default_rng(1)
        rbm.set_parameters(
            rng.normal(0, 0.02, (784, 500)),
            rng.normal(0, 0.1, 784),
            rng.normal(0, 0.1, 500),
        )
        result = AISEstimator(
            spec=EstimatorSpec(
                chains=32,
                betas=100,
                compute=ComputeSpec(dtype="float32"),
            ),
            rng=2,
        ).estimate_log_partition(rbm)
        assert np.isfinite(result.log_partition)
        assert np.isfinite(result.log_weights).all()

    def test_gs_pcd_epoch_784x500_float32(self):
        rng = np.random.default_rng(3)
        data = (rng.random((128, 784)) < 0.3).astype(float)
        rbm = BernoulliRBM(784, 500, rng=0)
        trainer = GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.05,
                cd_k=1,
                batch_size=16,
                chains=64,
                persistent=True,
                compute=ComputeSpec(dtype="float32"),
            ),
            rng=1,
        )
        history = trainer.train(rbm, data, epochs=1)
        assert np.isfinite(rbm.weights).all()
        assert trainer.chain_states.shape == (64, 500)
        assert len(history.reconstruction_error) == 1


class TestPaperPresetSmoke:
    """The wired presets execute end to end with downsized budgets."""

    def test_figure7_paper_preset(self):
        result = _run_paper_preset(
            "figure7",
            datasets=("kmnist",),  # the 784x500 Table-1 shape
            epochs=2,
            methods=(),
            gs_chains=16,
            ais_chains=8,
            ais_betas=40,
            train_samples=192,
            seed=0,
        )
        assert result.metadata["scale"] == "paper"
        assert result.metadata["dtype"] == "float32"
        assert "workers" not in result.metadata
        series = trajectories(result)["kmnist"]
        assert set(series) == {"gs-pcd16"}
        assert len(series["gs-pcd16"]) == 3
        assert all(np.isfinite(v) for v in series["gs-pcd16"])

    def test_table4_paper_preset(self):
        result = _run_paper_preset(
            "table4",
            image_benchmarks=("mnist",),  # Table-1 784x200
            epochs=2,
            train_samples=192,
            seed=0,
        )
        assert result.metadata["scale"] == "paper"
        assert "workers" not in result.metadata
        row = result.row_by("benchmark", "mnist")
        for key in ("rbm_cd10", "rbm_bgf", "rbm_gs"):
            assert 0.0 <= row[key] <= 1.0
