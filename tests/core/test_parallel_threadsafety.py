"""Thread-safety regression tests for the effective-weight cache.

The chosen contract (docs/performance.md, "Thread safety"): the substrate's
effective-weight cache is **lock-protected** — concurrent ``settle_batch``
calls, and invalidations racing them, can never corrupt it or crash on a
half-observed state — while draw-*stream* determinism under external
concurrency stays single-owner (callers wanting reproducible streams give
each thread its own substrate, or use the ``workers=`` sharding, whose
per-shard substreams are the supported in-process parallelism).

Before the lock, the coupling-cache read re-read ``self._eff_cache`` after
its None-check; an ``invalidate_effective_weights`` landing between the check
and the unpack made it ``TypeError: cannot unpack non-sequence None``.
The stress tests here drive exactly that interleaving.
"""

import threading

import numpy as np
import pytest

from repro.config import ComputeSpec, NoiseSpec, SubstrateSpec
from repro.ising import BipartiteIsingSubstrate

N_VISIBLE, N_HIDDEN = 10, 6


def _substrate(dtype="float64", **fields):
    substrate = BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            N_VISIBLE,
            N_HIDDEN,
            input_bits=None,
            compute=ComputeSpec(dtype=dtype),
            **fields,
        ),
        rng=0,
    )
    rng = np.random.default_rng(1)
    substrate.program(
        rng.normal(0, 0.3, (N_VISIBLE, N_HIDDEN)),
        rng.normal(0, 0.2, N_VISIBLE),
        rng.normal(0, 0.2, N_HIDDEN),
    )
    return substrate


class TestEffectiveWeightCacheUnderConcurrency:
    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(), NoiseSpec(variation_rms=0.1, noise_rms=0.0)],
        ids=["ideal", "with-variation"],
    )
    def test_concurrent_settles_and_invalidations_never_corrupt(self, noise):
        """Samplers hammering settles while another thread invalidates the
        cache: no crash, only binary latches, and a consistent final pair."""
        substrate = _substrate(noise=noise)
        hidden = (np.random.default_rng(2).random((4, N_HIDDEN)) < 0.5).astype(float)
        errors = []
        stop = threading.Event()

        def settle_loop():
            try:
                for _ in range(150):
                    visible, latched = substrate.settle_batch(hidden, 1)
                    assert set(np.unique(visible)) <= {0.0, 1.0}
                    assert set(np.unique(latched)) <= {0.0, 1.0}
            except Exception as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)
            finally:
                stop.set()

        def invalidate_loop():
            while not stop.is_set():
                substrate.invalidate_effective_weights()

        settlers = [threading.Thread(target=settle_loop) for _ in range(3)]
        invalidator = threading.Thread(target=invalidate_loop)
        for thread in settlers:
            thread.start()
        invalidator.start()
        for thread in settlers:
            thread.join(timeout=60)
        stop.set()
        invalidator.join(timeout=60)
        assert not errors, f"concurrent settles crashed: {errors[0]!r}"

        static, static_t = substrate._static_pair()
        np.testing.assert_array_equal(static.T, static_t)

    def test_cache_pair_is_internally_consistent_after_rebuilds(self):
        """Every rebuild publishes (static, static.T) atomically as one
        tuple — a reader can never see a matrix paired with a stale
        transpose."""
        substrate = _substrate(noise=NoiseSpec(variation_rms=0.2, noise_rms=0.0))
        pairs = []
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    static, static_t = substrate._static_pair()
                    pairs.append((static, static_t))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reprogrammer():
            rng = np.random.default_rng(3)
            for _ in range(100):
                substrate.program_trusted(
                    rng.normal(0, 0.3, (N_VISIBLE, N_HIDDEN)),
                    np.zeros(N_VISIBLE),
                    np.zeros(N_HIDDEN),
                )
            stop.set()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        writer = threading.Thread(target=reprogrammer)
        for thread in threads:
            thread.start()
        writer.start()
        writer.join(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"cache reader crashed: {errors[0]!r}"
        for static, static_t in pairs:
            np.testing.assert_array_equal(static.T, static_t)

    def test_sharded_settle_threads_never_touch_the_serial_streams(self):
        """A sharded settle leaves the substrate's own sampler streams
        untouched: a serial draw after a workers=2 settle is bit-identical
        to the same serial draw without it."""
        h = (np.random.default_rng(2).random((8, N_HIDDEN)) < 0.5).astype(float)

        plain = _substrate()
        v_ref, h_ref = plain.settle_batch(h, 2, workers=1)

        interleaved = _substrate()
        interleaved.settle_batch(h, 3, workers=2)  # draws only shard streams
        v_after, h_after = interleaved.settle_batch(h, 2, workers=1)

        np.testing.assert_array_equal(v_ref, v_after)
        np.testing.assert_array_equal(h_ref, h_after)

