"""Sparse-vs-dense pinning for the data-side kernels.

The sparse CSR visible paths (ISSUE 6) must agree with the dense expansion:
bit-for-bit where the computation is element-wise (DTC conversion, Bernoulli
latching from identical probabilities and uniforms), and at float tolerance
where a sparse matmul reassociates an accumulation (hidden fields, gradient
data terms).  Every entry point that accepts CSR is pinned here against the
dense call under a fixed seed.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.config.specs import (
    ComputeSpec,
    NoiseSpec,
    SubstrateSpec,
    TrainerSpec,
)
from repro.core.gibbs_sampler import GibbsSamplerMachine, GibbsSamplerTrainer
from repro.ising.bipartite import BipartiteIsingSubstrate
from repro.rbm.ml import MaximumLikelihoodTrainer
from repro.rbm.rbm import BernoulliRBM, CDTrainer
from repro.utils.numerics import (
    as_sparse_rows,
    is_sparse,
    safe_sparse_dot,
    sparse_mean,
    sparse_mean_squared_error,
)
from repro.utils.validation import ValidationError, check_data_matrix

from tests.helpers.tolerances import FLOAT64_ASSOC_ATOL

pytestmark = pytest.mark.sparse

N_VISIBLE, N_HIDDEN = 16, 8


def _binary_batch(n_rows=12, n_cols=N_VISIBLE, density=0.2, seed=0):
    dense = np.where(
        np.random.default_rng(seed).random((n_rows, n_cols)) < density, 1.0, 0.0
    )
    return dense, sp.csr_matrix(dense)


def _substrate(seed=0, noise=NoiseSpec()):
    return BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            n_visible=N_VISIBLE,
            n_hidden=N_HIDDEN,
            noise=noise,
        ),
        rng=seed,
    )


def _programmed(substrate, seed=1):
    rng = np.random.default_rng(seed)
    substrate.program(
        rng.normal(scale=0.3, size=(N_VISIBLE, N_HIDDEN)),
        rng.normal(scale=0.1, size=N_VISIBLE),
        rng.normal(scale=0.1, size=N_HIDDEN),
    )
    return substrate


class TestSparseHelpers:
    def test_is_sparse(self):
        dense, csr = _binary_batch()
        assert is_sparse(csr) and not is_sparse(dense)
        np.testing.assert_array_equal(csr.toarray(), dense)

    def test_safe_sparse_dot_matches_dense(self):
        dense, csr = _binary_batch()
        other = np.random.default_rng(3).normal(size=(N_VISIBLE, 5))
        np.testing.assert_allclose(
            safe_sparse_dot(csr, other), dense @ other, atol=FLOAT64_ASSOC_ATOL
        )
        np.testing.assert_allclose(
            safe_sparse_dot(csr.T, np.ones((12, 3))),
            dense.T @ np.ones((12, 3)),
            atol=FLOAT64_ASSOC_ATOL,
        )

    def test_safe_sparse_dot_dense_operands_are_exact(self):
        a = np.random.default_rng(4).normal(size=(6, 4))
        b = np.random.default_rng(5).normal(size=(4, 3))
        np.testing.assert_array_equal(safe_sparse_dot(a, b), a @ b)

    def test_sparse_mean_matches_dense(self):
        dense, csr = _binary_batch()
        np.testing.assert_allclose(
            sparse_mean(csr), dense.mean(axis=0), atol=FLOAT64_ASSOC_ATOL
        )
        np.testing.assert_array_equal(sparse_mean(dense), dense.mean(axis=0))

    def test_sparse_mean_squared_error_matches_dense(self):
        dense, csr = _binary_batch()
        recon = np.random.default_rng(6).random(dense.shape)
        np.testing.assert_allclose(
            sparse_mean_squared_error(csr, recon),
            np.mean((dense - recon) ** 2),
            atol=FLOAT64_ASSOC_ATOL,
        )
        np.testing.assert_allclose(
            sparse_mean_squared_error(csr, recon, axis=1),
            np.mean((dense - recon) ** 2, axis=1),
            atol=FLOAT64_ASSOC_ATOL,
        )

    def test_as_sparse_rows_rejects_dense(self):
        with pytest.raises(ValueError):
            as_sparse_rows(np.zeros((3, 3)))

    def test_check_data_matrix_sparse(self):
        _, csr = _binary_batch()
        out = check_data_matrix(csr, n_features=N_VISIBLE)
        assert is_sparse(out)
        with pytest.raises(ValidationError):
            check_data_matrix(csr, n_features=N_VISIBLE + 1)
        bad = csr.copy().astype(float)
        bad.data[0] = np.nan
        with pytest.raises(ValidationError):
            check_data_matrix(bad)


class TestSubstrateSparsePaths:
    def test_clamp_visible_noise_free_dtc_stays_sparse_and_exact(self):
        dense, csr = _binary_batch()
        substrate = _substrate()
        clamped = substrate.clamp_visible(csr)
        assert is_sparse(clamped)
        np.testing.assert_array_equal(
            clamped.toarray(), substrate.clamp_visible(dense)
        )

    def test_clamp_visible_noisy_dtc_matches_dense_bitwise(self):
        dense, csr = _binary_batch()
        noise = NoiseSpec(0.0, 0.1)
        a = _programmed(_substrate(seed=7, noise=noise))
        b = _programmed(_substrate(seed=7, noise=noise))
        np.testing.assert_array_equal(
            a.clamp_visible(csr).toarray(), b.clamp_visible(dense)
        )

    def test_clamp_visible_sparse_width_check(self):
        substrate = _substrate()
        with pytest.raises(ValidationError):
            substrate.clamp_visible(sp.csr_matrix(np.zeros((3, N_VISIBLE + 2))))

    def test_hidden_field_matches_dense(self):
        dense, csr = _binary_batch()
        substrate = _programmed(_substrate())
        np.testing.assert_allclose(
            substrate.hidden_field(csr),
            substrate.hidden_field(dense),
            atol=FLOAT64_ASSOC_ATOL,
        )

    def test_sample_hidden_given_visible_bitwise_under_seed(self):
        dense, csr = _binary_batch()
        a = _programmed(_substrate(seed=3))
        b = _programmed(_substrate(seed=3))
        np.testing.assert_array_equal(
            a.sample_hidden_given_visible(csr),
            b.sample_hidden_given_visible(dense),
        )

    def test_machine_positive_phase_bitwise_under_seed(self):
        dense, csr = _binary_batch()
        rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
        machines = []
        for _ in range(2):
            machine = GibbsSamplerMachine(
                spec=SubstrateSpec(n_visible=N_VISIBLE, n_hidden=N_HIDDEN), rng=11
            )
            machine.program_trusted(rbm)
            machines.append(machine)
        np.testing.assert_array_equal(
            machines[0].positive_phase(csr), machines[1].positive_phase(dense)
        )


class TestRBMSparsePaths:
    @pytest.fixture
    def rbm(self):
        return BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=2)

    def test_hidden_activation_probability(self, rbm):
        dense, csr = _binary_batch()
        np.testing.assert_allclose(
            rbm.hidden_activation_probability(csr),
            rbm.hidden_activation_probability(dense),
            atol=FLOAT64_ASSOC_ATOL,
        )

    def test_free_energy(self, rbm):
        dense, csr = _binary_batch()
        np.testing.assert_allclose(
            rbm.free_energy(csr), rbm.free_energy(dense), atol=FLOAT64_ASSOC_ATOL
        )

    def test_reconstruct(self, rbm):
        dense, csr = _binary_batch()
        np.testing.assert_allclose(
            rbm.reconstruct(csr), rbm.reconstruct(dense), atol=FLOAT64_ASSOC_ATOL
        )

    def test_ml_data_expectations(self, rbm):
        dense, csr = _binary_batch()
        for s, d in zip(
            MaximumLikelihoodTrainer.data_expectations(rbm, csr),
            MaximumLikelihoodTrainer.data_expectations(rbm, dense),
        ):
            np.testing.assert_allclose(s, d, atol=FLOAT64_ASSOC_ATOL)


class TestTrainerSparseEquivalence:
    """Full seeded training runs: sparse visibles vs their dense expansion."""

    def test_cd_trainer(self):
        dense, csr = _binary_batch(n_rows=20)
        results = []
        for data in (dense, csr):
            rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
            CDTrainer(
                spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=5), rng=1
            ).train(rbm, data, epochs=3, shuffle=False)
            results.append(rbm.weights.copy())
        np.testing.assert_allclose(results[0], results[1], atol=FLOAT64_ASSOC_ATOL)

    @pytest.mark.parametrize("chains,persistent", [(1, False), (4, True), (4, False)])
    def test_gs_trainer(self, chains, persistent):
        dense, csr = _binary_batch(n_rows=20)
        results = []
        for data in (dense, csr):
            rbm = BernoulliRBM(N_VISIBLE, N_HIDDEN, rng=0)
            GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=5,
                    chains=chains,
                    persistent=persistent,
                ),
                rng=1,
            ).train(rbm, data, epochs=2, shuffle=False)
            results.append(rbm.weights.copy())
        np.testing.assert_allclose(results[0], results[1], atol=FLOAT64_ASSOC_ATOL)
