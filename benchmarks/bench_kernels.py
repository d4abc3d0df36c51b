#!/usr/bin/env python
"""Time the hot kernels; emit BENCH_kernels.json.

Each kernel is the inner loop every figure/table experiment funnels through
(substrate conditional sampling, GS/BGF/CD training epochs, AIS).  Every
row reports the kernel's median wall-clock seconds (``fast_median_s``) at
the 49x32 benchmark scale and — for the BLAS-bound kernels — the paper's
784x500 MNIST scale.  Rows that time a kernel against a baseline leg of
the same run (float32 vs float64, sharded vs serial, CSR vs dense,
coalesced vs naive serving) also carry
``legacy_median_s`` and their ratio, ``speedup``.  The JSON this writes is
the evidence file the ``compare_bench.py`` regression gate consumes.
Run from the repo root (``make bench`` is the canonical invocation)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --output OUT.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import re
import statistics
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.config import ComputeSpec, EstimatorSpec, SubstrateSpec, TrainerSpec
from repro.core import BGFTrainer, GibbsSamplerMachine, GibbsSamplerTrainer
from repro.datasets import load_kmnist_like
from repro.ising import BipartiteIsingSubstrate
from repro.rbm import AISEstimator, BernoulliRBM, CDTrainer
from repro.serve import MicroBatchScoringService, measure_latency
from repro.utils.numerics import safe_sparse_dot


def _substrate(n_visible, n_hidden, *, dtype="float64"):
    """Spec-built substrate (the shim-free construction path)."""
    return BipartiteIsingSubstrate(
        spec=SubstrateSpec(
            n_visible=n_visible,
            n_hidden=n_hidden,
            compute=ComputeSpec(dtype=dtype),
        ),
        rng=0,
    )

DEFAULT_OUTPUT = Path("benchmarks") / "BENCH_kernels.json"

#: Visible density of the ``*_sparse`` entries.  The real MovieLens one-hot
#: rating encoding is ~6% observed ratings spread over 5 rating levels, i.e.
#: ~1.3% ones; 1.5% is that workload's scale (and far under the 10% ceiling
#: where csr@dense stops beating the dense GEMM on this container's BLAS).
SPARSE_BENCH_DENSITY = 0.015


def _benchmark_data(n_features: int = 49, n_samples: int = 200) -> np.ndarray:
    """The same prototype mixture benchmarks/test_kernels.py trains on."""
    rng = np.random.default_rng(0)
    prototypes = (rng.random((5, n_features)) < 0.3).astype(float)
    samples = prototypes[rng.integers(0, 5, n_samples)]
    flips = rng.random(samples.shape) < 0.05
    return np.where(flips, 1.0 - samples, samples)


def _median_seconds(
    fn: Callable[[], None], repeats: int, min_measure_s: float = 5e-3
) -> float:
    """Median per-call seconds, with inner-loop calibration.

    Sub-millisecond kernels are dominated by scheduler jitter when timed one
    call at a time (a single context switch is tens of microseconds), which
    made the >20% regression gate flap on loaded CI runners.  Each timed
    measurement therefore runs the kernel enough times to last at least
    ``min_measure_s`` and reports the per-call average; the median over
    ``repeats`` such measurements is stable to a few percent.
    """
    fn()  # warmup: first-call allocations/caches are not the steady state
    # Calibrate on the *minimum* of a few calls — a single calibration call
    # landing on a context switch would under-estimate `inner` and put the
    # tiny kernels right back in the jitter-dominated regime.
    once = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        once = min(once, time.perf_counter() - start)
    inner = max(1, int(np.ceil(min_measure_s / max(once, 1e-9))))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def _substrate_kernel(n_visible: int, n_hidden: int, batch: np.ndarray):
    substrate = _substrate(n_visible, n_hidden)
    weights = np.random.default_rng(1).normal(0, 0.1, (n_visible, n_hidden))
    substrate.program(weights, np.zeros(n_visible), np.zeros(n_hidden))

    def kernel():
        substrate.sample_hidden_given_visible(batch)

    return kernel


def _substrate_dtype_kernel(
    n_visible: int, n_hidden: int, batch: np.ndarray, fast: bool
):
    """Conditional sampling on the precision tiers: float32 vs float64.

    ``fast`` selects the float32 tier (fused Bernoulli latch) and the
    baseline is the float64 tier, so the ratio is the precision-tier win
    itself.
    """
    substrate = _substrate(n_visible, n_hidden, dtype="float32" if fast else "float64")
    weights = np.random.default_rng(1).normal(0, 0.1, (n_visible, n_hidden))
    substrate.program(weights, np.zeros(n_visible), np.zeros(n_hidden))

    def kernel():
        substrate.sample_hidden_given_visible(batch)

    return kernel


def _settle_batch_dtype_kernel(
    n_visible: int, n_hidden: int, chains: int, n_steps: int, fast: bool
):
    """Chain-parallel settles on the precision tiers: float32 vs float64."""
    substrate = _substrate(n_visible, n_hidden, dtype="float32" if fast else "float64")
    weights = np.random.default_rng(1).normal(0, 0.1, (n_visible, n_hidden))
    substrate.program(weights, np.zeros(n_visible), np.zeros(n_hidden))
    hidden = (np.random.default_rng(2).random((chains, n_hidden)) < 0.5).astype(float)

    def kernel():
        substrate.settle_batch(hidden, n_steps)

    return kernel


def _settle_batch_workers_kernel(
    n_visible: int,
    n_hidden: int,
    chains: int,
    n_steps: int,
    workers: int,
    fast: bool,
):
    """Multicore sharded settles: ``workers`` shards vs the serial kernel.

    Both legs run the float32 tier; ``fast`` selects the sharded
    execution layer (``workers`` thread shards, per-shard RNG substreams)
    and the baseline is the serial ``workers=1`` settle, so the ratio is
    the multicore win itself.  Scales with physical cores — see the
    ``cpu_count`` entry in the meta block when reading the numbers.
    """
    substrate = _substrate(n_visible, n_hidden, dtype="float32")
    weights = np.random.default_rng(1).normal(0, 0.1, (n_visible, n_hidden))
    substrate.program(weights, np.zeros(n_visible), np.zeros(n_hidden))
    hidden = (np.random.default_rng(2).random((chains, n_hidden)) < 0.5).astype(float)
    shard_workers = workers if fast else 1

    def kernel():
        substrate.settle_batch(hidden, n_steps, workers=shard_workers)

    return kernel


def _ais_workers_kernel(n_visible: int, n_hidden: int, workers: int, fast: bool):
    """Threaded AIS chain pool vs the serial sweep (float32 tier both legs)."""
    rbm = BernoulliRBM(n_visible, n_hidden, rng=0)
    rng = np.random.default_rng(1)
    rbm.set_parameters(
        rng.normal(0, 0.1, (n_visible, n_hidden)),
        rng.normal(0, 0.2, n_visible),
        rng.normal(0, 0.2, n_hidden),
    )
    pool_workers = workers if fast else 1

    def kernel():
        # 64 chains so a 4-way pool still hands each shard a 16-row GEMM
        # block (matching the paper presets' ais_chains=64); skinnier
        # shards lose more to GEMM efficiency than they gain from cores.
        AISEstimator(
            spec=EstimatorSpec(
                chains=64,
                betas=20,
                compute=ComputeSpec(dtype="float32", workers=pool_workers),
            ),
            rng=3,
        ).estimate_log_partition(rbm)

    return kernel


def _ais_dtype_kernel(n_visible: int, n_hidden: int, fast: bool):
    """AIS sweep on the precision tiers (fused log1pexp-diff both legs)."""
    rbm = BernoulliRBM(n_visible, n_hidden, rng=0)
    rng = np.random.default_rng(1)
    rbm.set_parameters(
        rng.normal(0, 0.1, (n_visible, n_hidden)),
        rng.normal(0, 0.2, n_visible),
        rng.normal(0, 0.2, n_hidden),
    )
    dtype = "float32" if fast else "float64"

    def kernel():
        AISEstimator(
            spec=EstimatorSpec(
                chains=16, betas=12, compute=ComputeSpec(dtype=dtype)
            ),
            rng=3,
        ).estimate_log_partition(rbm)

    return kernel


def _gs_epoch_kernel(data: np.ndarray):
    def kernel():
        rbm = BernoulliRBM(data.shape[1], 32, rng=0)
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(0.1, cd_k=1, batch_size=10), rng=1
        ).train(rbm, data, epochs=1)

    return kernel


def _bgf_epoch_kernel(data: np.ndarray):
    def kernel():
        rbm = BernoulliRBM(data.shape[1], 32, rng=0)
        BGFTrainer(
            spec=TrainerSpec.bgf(0.1, reference_batch_size=10), rng=1
        ).train(rbm, data, epochs=1)

    return kernel


def _cd_epoch_kernel(data: np.ndarray):
    def kernel():
        rbm = BernoulliRBM(data.shape[1], 32, rng=0)
        CDTrainer(
            spec=TrainerSpec.cd(0.1, cd_k=1, batch_size=10), rng=1
        ).train(rbm, data, epochs=1)

    return kernel


def _gs_pcd_epoch_kernel(data: np.ndarray, chains: int = 8):
    """PCD training epoch with ``chains`` persistent negative chains."""

    def kernel():
        rbm = BernoulliRBM(data.shape[1], 32, rng=0)
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1, cd_k=2, batch_size=10, chains=chains, persistent=True
            ),
            rng=1,
        ).train(rbm, data, epochs=1)

    return kernel


def _multichain_negative_phase_kernel(
    n_visible: int, n_hidden: int, chains: int, cd_k: int
):
    """Bare negative-phase advance of ``chains`` persistent chains."""
    machine = GibbsSamplerMachine(
        spec=SubstrateSpec(n_visible=n_visible, n_hidden=n_hidden), rng=0
    )
    rng = np.random.default_rng(1)
    machine.substrate.program(
        rng.normal(0, 0.1, (n_visible, n_hidden)),
        np.zeros(n_visible),
        np.zeros(n_hidden),
    )
    chains_h = (np.random.default_rng(2).random((chains, n_hidden)) < 0.5).astype(float)

    def kernel():
        machine.negative_phase_chains(chains_h, cd_k)

    return kernel


def _sparse_benchmark_batch(n_rows: int, n_features: int, density: float):
    """Dense and CSR views of the same binary batch at the target density."""
    from scipy import sparse as sp

    rng = np.random.default_rng(2)
    dense = np.where(rng.random((n_rows, n_features)) < density, 1.0, 0.0)
    return dense, sp.csr_matrix(dense)


def _positive_phase_sparse_kernel(
    n_visible: int, n_hidden: int, batch_dense: np.ndarray, batch_csr, fast: bool
):
    """Data-side positive phase (clamp + hidden field), dense vs CSR visibles.

    Both legs run the same values; ``fast`` feeds them as scipy CSR and
    the baseline feeds them dense, so the ratio is the sparsity win on the
    deterministic data-side kernel — everything up to the Bernoulli-draw
    boundary, where the sparse tier densifies and both legs run identical
    code.
    """
    substrate = _substrate(n_visible, n_hidden)
    weights = np.random.default_rng(1).normal(0, 0.1, (n_visible, n_hidden))
    substrate.program(weights, np.zeros(n_visible), np.zeros(n_hidden))
    batch = batch_csr if fast else batch_dense

    def kernel():
        substrate.hidden_field(substrate.clamp_visible(batch))

    return kernel


def _gradient_accumulation_sparse_kernel(
    n_hidden: int, batch_dense: np.ndarray, batch_csr, fast: bool
):
    """Positive gradient term ``v_pos.T @ h_pos`` as sparse·dense vs dense."""
    h_pos = np.random.default_rng(3).random((batch_dense.shape[0], n_hidden))
    batch = batch_csr if fast else batch_dense

    def kernel():
        safe_sparse_dot(batch.T, h_pos)

    return kernel


def _gs_epoch_sparse_kernel(data_dense: np.ndarray, data_csr, fast: bool):
    """Full GS training epoch on CSR vs dense visibles.

    The end-to-end number: includes the (deliberately dense) persistent
    chain pool, the Bernoulli draws, and the in-place weight updates, so
    the ratio is what a real sparse workload sees per epoch — much smaller
    than the isolated data-term win, since the shared dense work dominates
    at this shape.  The persistent p=8 pool is the streamed-workload
    configuration (a data-sized negative phase would bury the data term
    entirely).  The RBM's initial parameters are drawn once and restored
    per call so the 784x500 weight-init draw does not dilute both legs.
    """
    data = data_csr if fast else data_dense
    rbm = BernoulliRBM(data.shape[1], 500, rng=0)
    w0 = rbm.weights.copy()
    bv0 = rbm.visible_bias.copy()
    bh0 = rbm.hidden_bias.copy()

    def kernel():
        # set_parameters aliases its inputs (np.asarray), so pass copies —
        # the trainer's in-place updates must not drift the stored init.
        rbm.set_parameters(w0.copy(), bv0.copy(), bh0.copy())
        GibbsSamplerTrainer(
            spec=TrainerSpec.gs(
                0.1, cd_k=1, batch_size=256, chains=8, persistent=True
            ),
            rng=1,
        ).train(rbm, data, epochs=1, shuffle=False)

    return kernel


def _serve_scorer(n_visible: int, n_hidden: int):
    """The frozen serving workload: free-energy scoring on a 784x500 RBM."""
    rbm = BernoulliRBM(n_visible, n_hidden, rng=0)
    rng = np.random.default_rng(1)
    rbm.set_parameters(
        rng.normal(0, 0.05, (n_visible, n_hidden)),
        rng.normal(0, 0.1, n_visible),
        rng.normal(0, 0.1, n_hidden),
    )
    return rbm.score_samples


def _serve_request_rows(n_rows: int, n_visible: int, rng) -> np.ndarray:
    return (rng.random((n_rows, n_visible)) < 0.3).astype(float)


def _serve_wave_kernel(n_visible: int, n_hidden: int, concurrency: int, fast: bool):
    """One serving wave of ``concurrency`` concurrent 1-row score requests.

    ``fast`` drives the wave through a long-lived
    :class:`~repro.serve.MicroBatchScoringService` (its own background
    event loop, so the per-call cost is the coalesced wave itself, not
    loop setup); the baseline answers the same requests the way a naive
    serving loop would — one scorer call per request.  The ratio is the
    micro-batching win at that concurrency: ~coalesce-free overhead at
    c=1 (one request has nothing to batch with, so the async front end
    is pure cost), growing with c as p gemv calls collapse into one gemm.
    """
    scorer = _serve_scorer(n_visible, n_hidden)
    rng = np.random.default_rng(2)
    requests = [
        _serve_request_rows(1, n_visible, rng) for _ in range(concurrency)
    ]

    if not fast:
        def kernel():
            for block in requests:
                scorer(block)

        return kernel

    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    service = MicroBatchScoringService(
        scorer, n_features=n_visible, max_batch_size=concurrency
    )
    asyncio.run_coroutine_threadsafe(service.start(), loop).result()

    async def wave():
        await asyncio.gather(*(service.submit(block) for block in requests))

    def kernel():
        asyncio.run_coroutine_threadsafe(wave(), loop).result()

    def shutdown():
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)

    # _median_seconds has no teardown hook, so the loop thread winds down
    # when the kernel closure is collected (else the abandoned worker task
    # warns at GC time).
    weakref.finalize(kernel, shutdown)
    return kernel


def _image_dataset_kernel():
    """The paper-scale KMNIST build: 2,400 jittered, noisy 28x28 images."""
    return lambda: load_kmnist_like(scale=1.0)


def _ais_kernel(n_visible: int = 49, n_hidden: int = 32):
    """One AIS log-Z estimate (the vectorized beta sweep)."""
    rbm = BernoulliRBM(n_visible, n_hidden, rng=0)
    rng = np.random.default_rng(1)
    rbm.set_parameters(
        rng.normal(0, 0.3, (n_visible, n_hidden)),
        rng.normal(0, 0.2, n_visible),
        rng.normal(0, 0.2, n_hidden),
    )

    def kernel():
        AISEstimator(
            spec=EstimatorSpec(chains=32, betas=60), rng=3
        ).estimate_log_partition(rbm)

    return kernel


def blas_threads() -> Optional[int]:
    """The BLAS thread count the environment pins, or ``None``.

    Reads ``OPENBLAS_NUM_THREADS``, then ``OMP_NUM_THREADS``; ``None``
    means neither is set to an integer, i.e. the library default (one
    thread per core for OpenBLAS).
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(name, "").strip()
        if raw.isdigit():
            return int(raw)
    return None


def annotate_oversubscription(results: Dict) -> List[str]:
    """Flag ``*_workersK`` entries timed with more workers than cores.

    A K-wide shard/pool on fewer than K cores measures scheduling overhead,
    not the multicore win, so its speedup is not comparable across machines.
    Mutates ``results`` in place — each kernel whose name encodes a worker
    width larger than ``meta.cpu_count`` gains ``"oversubscribed": true`` —
    and returns the flagged names so callers can print warnings.
    """
    cpu_count = results.get("meta", {}).get("cpu_count")
    flagged: List[str] = []
    if not cpu_count:
        return flagged
    for name, row in results.get("kernels", {}).items():
        match = re.search(r"_workers(\d+)$", name)
        if match and int(match.group(1)) > cpu_count:
            row["oversubscribed"] = True
            flagged.append(name)
    return flagged


def run_benchmarks(
    repeats: int = 9,
    include_large: bool = True,
    workers: int = 4,
    only: Optional[str] = None,
) -> Dict:
    """Run every kernel and return the results dictionary.

    Single-implementation kernels record ``fast_median_s`` only; paired
    kernels also time their baseline leg (``legacy_median_s``) and record
    the ``speedup``.  ``workers`` sets the shard/pool width of the
    multicore entries (their baseline leg is always the serial
    ``workers=1`` kernel).  ``only`` restricts the run to entries whose
    name contains the substring (ValueError when nothing matches).
    """
    data = _benchmark_data()
    large_batch = np.random.default_rng(2).random((64, 784))

    # One implementation each: no baseline leg, so no speedup — these rows
    # are gated on their absolute median (``make bench-compare``) only.
    single = {
        "substrate_conditional_sampling_49x32": lambda: _substrate_kernel(49, 32, data),
        "gibbs_sampler_training_epoch_49x32": lambda: _gs_epoch_kernel(data),
        "bgf_training_epoch_49x32": lambda: _bgf_epoch_kernel(data),
        "cd1_training_epoch_49x32": lambda: _cd_epoch_kernel(data),
        "ais_logz_49x32": _ais_kernel,
        "gs_pcd8_training_epoch_49x32": lambda: _gs_pcd_epoch_kernel(data),
        "gs_multichain_negative_phase_p8_49x32": lambda: (
            _multichain_negative_phase_kernel(49, 32, 8, 2)
        ),
    }
    kernels = {}
    if include_large:
        single["substrate_conditional_sampling_784x500"] = lambda: (
            _substrate_kernel(784, 500, large_batch)
        )
        single["gs_multichain_negative_phase_p8_784x500"] = lambda: (
            _multichain_negative_phase_kernel(784, 500, 8, 2)
        )
        # The whole paper-scale synthetic image build, test split included,
        # as a run that scores held-out images makes it.
        single["image_dataset_kmnist_paper"] = _image_dataset_kernel
        # Precision-tier entries: legacy = the float64 tier, fast = the
        # float32 tier (fused sigmoid->compare latch), so the ratio isolates
        # the precision win on the BLAS-bound MNIST-scale kernels.
        kernels["substrate_conditional_sampling_784x500_float32"] = lambda fast: (
            _substrate_dtype_kernel(784, 500, large_batch, fast)
        )
        # p=64 matches the paper-scale PCD pool (the figure7 paper preset's
        # gs_chains); the float32 win grows with the chain count as the
        # settle becomes purely BLAS-bound.
        kernels["substrate_settle_batch_p64_784x500_float32"] = lambda fast: (
            _settle_batch_dtype_kernel(784, 500, 64, 2, fast)
        )
        kernels["ais_logz_784x500_float32"] = lambda fast: (
            _ais_dtype_kernel(784, 500, fast)
        )
        # Multicore entries: legacy = the serial workers=1 kernel, fast =
        # the sharded settle / threaded AIS pool at the requested width.
        # p=256 is the multicore target shape (chain blocks >> 64 are where
        # sharding pays; see docs/performance.md "The multicore layer").
        kernels[f"substrate_settle_batch_p256_784x500_float32_workers{workers}"] = (
            lambda fast: _settle_batch_workers_kernel(784, 500, 256, 2, workers, fast)
        )
        kernels[f"ais_logz_784x500_float32_workers{workers}"] = lambda fast: (
            _ais_workers_kernel(784, 500, workers, fast)
        )
        # Sparse entries: legacy = dense visibles, fast = the same values as
        # scipy CSR at the real one-hot workload density.
        sparse_dense, sparse_csr = _sparse_benchmark_batch(
            256, 784, SPARSE_BENCH_DENSITY
        )
        kernels["gs_positive_phase_784x500_sparse"] = lambda fast: (
            _positive_phase_sparse_kernel(784, 500, sparse_dense, sparse_csr, fast)
        )
        kernels["rbm_gradient_accumulation_784x500_sparse"] = lambda fast: (
            _gradient_accumulation_sparse_kernel(500, sparse_dense, sparse_csr, fast)
        )
        kernels["gs_training_epoch_784x500_sparse"] = lambda fast: (
            _gs_epoch_sparse_kernel(sparse_dense, sparse_csr, fast)
        )
        # Serving entries: legacy = one scorer call per request (the naive
        # serving loop), fast = the same wave coalesced by the micro-batch
        # service.  c1/c16/c64 are the serving report points; each row also
        # carries p50_ms/p99_ms/req_per_s from repro.serve.measure_latency
        # (extra keys the compare gate ignores).
        for concurrency in (1, 16, 64):
            kernels[f"serve_microbatch_scoring_c{concurrency}_784x500"] = (
                lambda fast, c=concurrency: _serve_wave_kernel(784, 500, c, fast)
            )

    if only is not None:
        single = {name: make for name, make in single.items() if only in name}
        kernels = {name: make for name, make in kernels.items() if only in name}
        if not single and not kernels:
            raise ValueError(f"--only {only!r} matches no benchmark entries")

    results: Dict = {
        "meta": {
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            # The multicore entries' speedup is bounded by physical cores:
            # on a 1-core machine workers=4 measures ~1x (thread overhead
            # only); the >=2x target applies on 4+ cores.  Recording the
            # timing machine's core count keeps the evidence file honest.
            "cpu_count": os.cpu_count(),
            # Each shard thread calls BLAS, so the multicore rows also depend
            # on the BLAS thread count (None = the library default).
            "blas_threads": blas_threads(),
            "workers": workers,
            "note": (
                "median per-call wall-clock seconds (inner-loop calibrated "
                "so each measurement spans >=5ms); the substrate "
                "conditional-sampling, GS/BGF/CD epoch, gs_pcd/gs_multichain, "
                "ais_logz_49x32 and image_dataset entries have one "
                "implementation and "
                "record fast_median_s only (no baseline leg, no speedup); "
                "for *_float32 entries legacy = the float64 tier and "
                "fast = the float32 precision tier (fused Bernoulli latch); "
                "for *_workersK entries legacy = the serial workers=1 "
                "kernel and fast = the K-way sharded settle / threaded AIS "
                "pool (speedup bounded by meta.cpu_count; entries timed "
                "with more workers than cores carry oversubscribed=true); "
                "for *_sparse entries legacy = dense visibles and fast = "
                "the same values as scipy CSR at meta.sparse_density — the "
                "positive-phase entry times the deterministic data-side "
                "kernel (clamp + hidden field) up to the Bernoulli-draw "
                "boundary both legs share, the gradient entry times "
                "v_pos.T @ h_pos, and the epoch entry a full GS training "
                "epoch including the dense negative phase; for "
                "serve_microbatch entries legacy = one scorer call per "
                "request (the naive serving loop) and fast = the same wave "
                "of concurrent 1-row requests coalesced by the micro-batch "
                "scoring service — their p50_ms/p99_ms/req_per_s keys are "
                "per-request latency/throughput of the coalesced path from "
                "repro.serve.measure_latency, not gate inputs"
            ),
        },
        "kernels": {},
    }
    if include_large:
        results["meta"]["sparse_density"] = SPARSE_BENCH_DENSITY
    for name, make in single.items():
        results["kernels"][name] = {"fast_median_s": _median_seconds(make(), repeats)}
    for name, make in kernels.items():
        fast_s = _median_seconds(make(True), repeats)
        legacy_s = _median_seconds(make(False), repeats)
        results["kernels"][name] = {
            "legacy_median_s": legacy_s,
            "fast_median_s": fast_s,
            "speedup": legacy_s / fast_s if fast_s > 0 else float("inf"),
        }
    # Serving latency/throughput extras — measured once per entry on the
    # coalesced path; merged after the timing loop so the gate's keys above
    # stay the timed legacy/fast pair.
    for name, row in results["kernels"].items():
        match = re.match(r"serve_microbatch_scoring_c(\d+)_", name)
        if not match:
            continue
        rng = np.random.default_rng(5)
        latency = measure_latency(
            _serve_scorer(784, 500),
            lambda n: _serve_request_rows(n, 784, rng),
            concurrency=int(match.group(1)),
        )
        row.update(
            p50_ms=latency["p50_ms"],
            p99_ms=latency["p99_ms"],
            req_per_s=latency["req_per_s"],
        )
    annotate_oversubscription(results)
    return results


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON evidence file (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--repeats", type=int, default=9, help="timing repeats per kernel (median taken)"
    )
    parser.add_argument(
        "--skip-large",
        action="store_true",
        help="skip the 784x500 substrate kernel (quicker smoke runs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "shard/pool width of the multicore bench entries (the baseline "
            "leg stays workers=1; default 4, the multicore target width)"
        ),
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="SUBSTRING",
        help=(
            "run only the entries whose name contains SUBSTRING "
            "(e.g. --only sparse); errors when nothing matches"
        ),
    )
    args = parser.parse_args(argv)

    try:
        results = run_benchmarks(
            repeats=args.repeats,
            include_large=not args.skip_large,
            workers=args.workers,
            only=args.only,
        )
    except ValueError as error:
        parser.error(str(error))

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(results, indent=2) + "\n")

    width = max(len(name) for name in results["kernels"])
    print(f"wrote {args.output}")
    for name, row in results["kernels"].items():
        line = f"  {name:<{width}}  fast={row['fast_median_s'] * 1e3:8.2f}ms"
        if "speedup" in row:
            line += (
                f"  legacy={row['legacy_median_s'] * 1e3:8.2f}ms"
                f"  speedup={row['speedup']:5.2f}x"
            )
        print(line)
    for name in sorted(
        n for n, row in results["kernels"].items() if row.get("oversubscribed")
    ):
        print(
            f"  WARNING: {name} timed with more workers than the "
            f"{results['meta']['cpu_count']} available cores — speedup "
            "measures thread overhead, not the multicore win"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
