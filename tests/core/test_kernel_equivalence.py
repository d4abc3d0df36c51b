"""Equivalence tests: the fast-path kernels against the legacy paths.

The fast-path kernel layer (see docs/performance.md) removes redundant
allocation and validation from the sampling hot loops but must not change a
single drawn bit.  These tests pin that contract:

* ideal-noise corner — fast-path and legacy-path training runs produce
  bit-for-bit identical weights under the same seed, for all three trainers
  (CD, GibbsSampler, BGF);
* noisy corner — the fast paths preserve the per-stream RNG draw order, so
  even the (0.1, 0.1) operating point reproduces exactly;
* the fused numeric kernels (sigmoid / softplus) match their masked
  reference implementations bit-for-bit;
* the vectorized column-wise ADC readout reproduces the per-column loop's
  seeded draws.
"""

import numpy as np
import pytest

from repro.analog.converters import AnalogToDigitalConverter
from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec, TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerTrainer
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import BernoulliRBM, CDTrainer
from repro.utils.numerics import (
    log1pexp,
    log1pexp_reference,
    sigmoid,
    sigmoid_reference,
)


@pytest.fixture(autouse=True)
def _serial_workers(monkeypatch):
    """This suite pins the *bit-identical serial* contract: REPRO_WORKERS
    would legitimately shard the fast side's draws onto per-shard
    substreams (that regime's pinning lives in
    ``tests/property/test_parallel_statistics.py``), so the environment
    default is cleared here."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    prototypes = (rng.random((5, 49)) < 0.3).astype(float)
    samples = prototypes[rng.integers(0, 5, 120)]
    flips = rng.random(samples.shape) < 0.05
    return np.where(flips, 1.0 - samples, samples)


def _train(trainer_factory, data, epochs=2):
    rbm = BernoulliRBM(49, 32, rng=0)
    trainer_factory().train(rbm, data, epochs=epochs)
    return rbm


def _assert_same_model(a: BernoulliRBM, b: BernoulliRBM) -> None:
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.visible_bias, b.visible_bias)
    np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)


class TestTrainerEquivalenceIdealCorner:
    def test_cd_trainer_bit_identical(self, data):
        fast = _train(lambda: CDTrainer(
            spec=TrainerSpec.cd(0.1, cd_k=2, batch_size=10), rng=1
        ), data)
        legacy = _train(
            lambda: CDTrainer(
                spec=TrainerSpec.cd(
                    0.1, cd_k=2, batch_size=10, compute=ComputeSpec(fast_path=False)
                ),
                rng=1,
            ), data
        )
        _assert_same_model(fast, legacy)

    def test_cd_trainer_matches_reference_sigmoid(self, data, monkeypatch):
        fast = _train(lambda: CDTrainer(
            spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=10), rng=1
        ), data)
        monkeypatch.setattr("repro.rbm.rbm.sigmoid", sigmoid_reference)
        reference = _train(
            lambda: CDTrainer(
                spec=TrainerSpec.cd(
                    0.1, cd_k=1, batch_size=10, compute=ComputeSpec(fast_path=False)
                ),
                rng=1,
            ), data
        )
        _assert_same_model(fast, reference)

    def test_gibbs_sampler_trainer_bit_identical(self, data):
        fast = _train(
            lambda: GibbsSamplerTrainer(
                spec=TrainerSpec.gs(0.1, cd_k=2, batch_size=10), rng=1
            ), data
        )
        legacy = _train(
            lambda: GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1, cd_k=2, batch_size=10, compute=ComputeSpec(fast_path=False)
                ),
                rng=1,
            ),
            data,
        )
        _assert_same_model(fast, legacy)

    def test_bgf_trainer_bit_identical(self, data):
        fast = _train(lambda: BGFTrainer(
            spec=TrainerSpec.bgf(0.1, reference_batch_size=10), rng=1
        ), data)
        legacy = _train(
            lambda: BGFTrainer(
                spec=TrainerSpec.bgf(
                    0.1, reference_batch_size=10, compute=ComputeSpec(fast_path=False)
                ),
                rng=1,
            ),
            data,
        )
        _assert_same_model(fast, legacy)

    def test_bgf_chunk_size_does_not_change_the_stream(self, data):
        """Chunking is bookkeeping only: any chunk size yields the same run."""
        results = []
        for chunk_size in (1, 7, 64):
            rbm = BernoulliRBM(49, 32, rng=0)
            trainer = BGFTrainer(
                spec=TrainerSpec.bgf(0.1, reference_batch_size=10), rng=1
            )
            machine = trainer._ensure_machine(rbm)
            machine.initialize(rbm.weights, rbm.visible_bias, rbm.hidden_bias)
            machine.run(data, epochs=1, chunk_size=chunk_size)
            results.append(machine.substrate.read_parameters())
        for weights, bv, bh in results[1:]:
            np.testing.assert_array_equal(weights, results[0][0])
            np.testing.assert_array_equal(bv, results[0][1])
            np.testing.assert_array_equal(bh, results[0][2])


class TestTrainerEquivalenceNoisyCorner:
    """The fast paths preserve per-stream draw order, so even noisy runs
    reproduce exactly — a stronger property than the distribution-level
    equivalence the noise study needs."""

    NOISY = NoiseSpec(0.1, 0.1)

    def test_gibbs_sampler_trainer_noisy_bit_identical(self, data):
        fast = _train(
            lambda: GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=10,
                    noise=self.NOISY,
                ),
                rng=1,
            ),
            data,
        )
        legacy = _train(
            lambda: GibbsSamplerTrainer(
                spec=TrainerSpec.gs(
                    0.1,
                    cd_k=1,
                    batch_size=10,
                    noise=self.NOISY,
                    compute=ComputeSpec(fast_path=False),
                ),
                rng=1,
            ),
            data,
        )
        _assert_same_model(fast, legacy)

    def test_bgf_trainer_noisy_bit_identical(self, data):
        fast = _train(
            lambda: BGFTrainer(
                spec=TrainerSpec.bgf(
                    0.1,
                    reference_batch_size=10,
                    noise=self.NOISY,
                ),
                rng=1,
            ),
            data,
        )
        legacy = _train(
            lambda: BGFTrainer(
                spec=TrainerSpec.bgf(
                    0.1,
                    reference_batch_size=10,
                    noise=self.NOISY,
                    compute=ComputeSpec(fast_path=False),
                ),
                rng=1,
            ),
            data,
        )
        _assert_same_model(fast, legacy)


class TestSubstrateEquivalence:
    def _pair(self, **kwargs):
        subs = []
        for fast in (True, False):
            sub = BipartiteIsingSubstrate(
                spec=SubstrateSpec(49, 32, compute=ComputeSpec(fast_path=fast), **kwargs),
                rng=7,
            )
            weights = np.random.default_rng(1).normal(0, 0.1, (49, 32))
            sub.program(weights, np.zeros(49), np.zeros(32))
            subs.append(sub)
        return subs

    def test_conditional_sampling_bit_identical(self, data):
        fast, legacy = self._pair()
        np.testing.assert_array_equal(
            fast.sample_hidden_given_visible(data),
            legacy.sample_hidden_given_visible(data),
        )

    def test_gibbs_chain_bit_identical(self, data):
        fast, legacy = self._pair()
        h0 = (np.random.default_rng(2).random((10, 32)) < 0.5).astype(float)
        v_fast, h_fast = fast.gibbs_chain(h0, 5)
        v_legacy, h_legacy = legacy.gibbs_chain(h0, 5)
        np.testing.assert_array_equal(v_fast, v_legacy)
        np.testing.assert_array_equal(h_fast, h_legacy)

    def test_noisy_sampling_bit_identical(self, data):
        fast, legacy = self._pair(noise=NoiseSpec(0.1, 0.1))
        np.testing.assert_array_equal(
            fast.sample_hidden_given_visible(data),
            legacy.sample_hidden_given_visible(data),
        )

    def test_cache_invalidated_on_reprogram(self, data):
        sub, _ = self._pair()
        first = sub.sample_hidden_given_visible(data[:5])
        new_weights = np.random.default_rng(3).normal(0, 0.5, (49, 32))
        sub.program_trusted(new_weights, np.zeros(49), np.zeros(32))
        # A fresh legacy substrate programmed straight to the new weights
        # must agree with the reprogrammed fast one from here on.
        ref = BipartiteIsingSubstrate(
            spec=SubstrateSpec(49, 32, compute=ComputeSpec(fast_path=False)), rng=7
        )
        ref.program(new_weights, np.zeros(49), np.zeros(32))
        ref.sample_hidden_given_visible(data[:5])  # advance streams like `sub`
        np.testing.assert_array_equal(
            sub.sample_hidden_given_visible(data[:5]),
            ref.sample_hidden_given_visible(data[:5]),
        )
        assert not np.array_equal(first, sub.sample_hidden_given_visible(data[:5]))


class TestNumericKernels:
    def _inputs(self):
        rng = np.random.default_rng(0)
        return [
            rng.normal(0, 3, (100, 40)),
            np.array([-745.0, -30.0, -1e-9, -0.0, 0.0, 1e-9, 30.0, 745.0]),
            np.array([np.inf, -np.inf]),
        ]

    def test_sigmoid_matches_reference(self):
        for x in self._inputs():
            np.testing.assert_array_equal(sigmoid(x), sigmoid_reference(x))

    def test_log1pexp_matches_reference(self):
        for x in self._inputs():
            np.testing.assert_array_equal(log1pexp(x), log1pexp_reference(x))


class TestReadoutEquivalence:
    def test_vectorized_columnwise_matches_seeded_per_column_loop(self):
        matrix = np.random.default_rng(0).uniform(-1, 1, (16, 8))
        vectorized = AnalogToDigitalConverter(8, nonlinearity_rms=0.5, rng=42)
        per_column = AnalogToDigitalConverter(8, nonlinearity_rms=0.5, rng=42)
        legacy = np.stack(
            [per_column.read(matrix[:, j]) for j in range(matrix.shape[1])], axis=1
        )
        np.testing.assert_array_equal(vectorized.read_columnwise(matrix), legacy)
