"""Thread-parallel execution layer: sharded chain blocks across cores.

The paper's core scaling argument is that CD-k sampling is embarrassingly
parallel across chains — in hardware every chain occupies its own replica
of the node array and all replicas settle simultaneously.  The software
analogue so far was *batched* (one matmul over all chains); this module
adds the *multicore* analogue: split the chain block into per-worker
shards and advance the shards concurrently on a thread pool.

Threads are enough here because the settle kernels are BLAS-bound:
NumPy's matmul, elementwise ufuncs, and the Generator's fill routines all
release the GIL while they run, so ``k`` shard threads drive ``k`` cores
while the coupling matrix is shared read-only across shards by reference.
Each shard thread still calls a (by default multi-threaded) BLAS, so
``workers`` and ``OPENBLAS_NUM_THREADS`` multiply: see "Workers and BLAS
threads" in docs/performance.md before raising ``workers`` above 1.

Determinism contract (see docs/performance.md, "The multicore layer"):

* ``workers=1`` never touches this module's streams — callers run their
  original serial kernel, bit-identical to the pre-threading code.
* ``workers=k > 1`` gives shard ``i`` its own RNG substream, derived from
  a dedicated ``SeedSequence`` root by deterministic spawn-key arithmetic
  ``(k, i)``.  The substreams are a pure function of (master seed, k, i):
  fixed seed + fixed worker count is reproducible run to run, and worker
  counts never alias each other's streams.  Results *do* change with
  ``k`` — chain draws move between streams — which is why the sharded
  paths are pinned statistically (``tests/property/
  test_parallel_statistics.py``), not by seed.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

import numpy as np

from repro.utils.validation import ValidationError

__all__ = [
    "ShardedExecutor",
    "check_workers",
    "shard_seed_sequence",
    "shard_slices",
]

T = TypeVar("T")
R = TypeVar("R")


def check_workers(workers: int, *, name: str = "workers") -> int:
    """``workers`` as a validated positive int.

    Anything that is not a positive integer — floats, bools, strings,
    ``None``, ``workers=0`` — raises a :class:`ValidationError` naming the
    offending value, so a typo'd shard count fails at the API boundary
    instead of surfacing as a numpy reshape traceback deep inside a settle.
    """
    # bool is an int subclass; workers=True is a typo, not one worker.
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ValidationError(
            f"{name} must be a positive int, got {workers!r} of type "
            f"{type(workers).__name__}"
        )
    if workers < 1:
        raise ValidationError(f"{name} must be >= 1, got {int(workers)}")
    return int(workers)


def shard_slices(n_items: int, workers: int) -> List[slice]:
    """Contiguous, balanced row slices covering ``n_items`` across shards.

    Produces ``min(workers, n_items)`` non-empty slices; the first
    ``n_items % shards`` shards are one row longer.  Shard boundaries are a
    pure function of ``(n_items, workers)``, which the per-shard RNG
    substream contract relies on.
    """
    if n_items < 1:
        raise ValidationError(f"n_items must be >= 1, got {n_items}")
    shards = min(int(workers), n_items)
    base, extra = divmod(n_items, shards)
    slices: List[slice] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def shard_seed_sequence(
    root: np.random.SeedSequence, workers: int, shard_index: int
) -> np.random.SeedSequence:
    """The deterministic per-shard seed: root entropy + spawn key ``(k, i)``.

    Keying by the *requested* worker count (not the materialized shard
    count) means shard ``i`` of a ``workers=k`` run always sees the same
    substream for a given master seed, regardless of how many shards the
    chain count actually filled, and runs with different ``k`` can never
    alias each other's streams.
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + (int(workers), int(shard_index)),
    )


# One shared pool per worker count, created lazily and reused for the life
# of the process: settle/AIS calls are far shorter than thread start-up, so
# per-call pool construction would eat the concurrency win.  The pools are
# module-level (not per-substrate) so a fleet of substrates does not
# multiply idle threads; concurrent.futures drains them at interpreter
# exit.
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-shard{workers}"
            )
            _POOLS[workers] = pool
        return pool


class ShardedExecutor:
    """Run per-shard thunks concurrently, preserving shard order.

    ``workers=1`` (or a single item) runs inline on the calling thread —
    no pool, no handoff, so the serial paths pay nothing for the layer's
    existence.  ``workers=k`` dispatches onto the shared ``k``-thread pool
    and gathers results *in submission order*, so callers can concatenate
    shard outputs deterministically regardless of completion order.
    """

    def __init__(self, workers: int = 1):
        self.workers = check_workers(workers)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, in parallel when it pays off."""
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        pool = _shared_pool(self.workers)
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedExecutor(workers={self.workers})"
