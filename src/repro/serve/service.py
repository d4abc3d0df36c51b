"""Micro-batched scoring service: coalesce concurrent requests into one matmul.

The serving hot path is the same batched linear algebra the trainers use —
scoring p rows together costs one matmul instead of p.  The
:class:`MicroBatchScoringService` exploits that: an asyncio front end
accepts per-request row blocks, a single batcher task drains the queue
(waiting at most ``max_delay_s`` for stragglers, up to ``max_batch_size``
rows), stacks the rows, runs the frozen scorer once, and fans the scores
back out to each request's future.  Responses are bit-identical to scoring
the coalesced batch directly; against scoring each request *alone* they
match at float64 BLAS-reduction tolerance (a 1-row request scored solo
takes the gemv kernel, inside a batch the gemm kernel — accumulation
order differs at ~1e-15), the same tolerance class the fast-path kernels
are pinned at (docs/performance.md precision policy).

``serve_forever`` exposes one or more artifacts over a newline-delimited
JSON TCP protocol (request ``{"rows": [[...], ...], "id": any}`` — plus
``"model": name`` when several artifacts are being served — response
``{"id": any, "scores": [...]}`` or ``{"id": any, "error": msg}``), and
``run_self_test`` drives the full stack in-process — concurrent requests,
coalescing assertions, per-request p50/p99 latency — which is what the CI
serve-smoke job and the bench entries reuse.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError


@dataclass
class ServiceStats:
    """Coalescing counters: how many requests landed in how many batches.

    All fields are bounded scalars — a long-lived server accumulates O(1)
    state no matter how much traffic it sees (the per-batch row *list* the
    first implementation kept grew one int per batch, forever).  Error
    traffic is counted too: ``requests``/``rows`` cover every request the
    service resolved, successfully or not, and ``errors``/``error_rows``
    single out the failed slice (scorer exceptions, requests failed at
    shutdown, and requests rejected at validation — wrong width, empty,
    ragged or non-finite — which count as errors with zero rows, since
    none of their rows was accepted).
    """

    requests: int = 0
    rows: int = 0
    batches: int = 0
    batch_rows_total: int = 0
    max_batch_rows: int = 0
    errors: int = 0
    error_rows: int = 0

    def record_batch(self, n_rows: int) -> None:
        self.batches += 1
        self.batch_rows_total += int(n_rows)
        self.max_batch_rows = max(self.max_batch_rows, int(n_rows))

    def record_request(self, n_rows: int, *, failed: bool = False) -> None:
        self.requests += 1
        self.rows += int(n_rows)
        if failed:
            self.errors += 1
            self.error_rows += int(n_rows)

    @property
    def mean_batch_rows(self) -> float:
        return self.batch_rows_total / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "batches": self.batches,
            "max_batch_rows": self.max_batch_rows,
            "mean_batch_rows": self.mean_batch_rows,
            "errors": self.errors,
            "error_rows": self.error_rows,
        }


class MicroBatchScoringService:
    """Coalesce concurrent scoring requests into single scorer calls.

    Parameters
    ----------
    scorer:
        Frozen scoring callable: 2-D row block in, per-row score array
        (1-D, or 2-D with one row of output per row of input) out — e.g.
        ``ModelArtifact.scorer()``.
    n_features:
        Expected row width; submitted rows are validated against it when
        given (a loaded artifact knows it via ``artifact.n_features``).
    max_batch_size:
        Maximum rows per coalesced scorer call.
    max_delay_s:
        How long the batcher lingers for stragglers after the first
        request of a batch arrives (the latency cost ceiling of batching).
    """

    def __init__(
        self,
        scorer: Callable[[np.ndarray], np.ndarray],
        *,
        n_features: Optional[int] = None,
        max_batch_size: int = 64,
        max_delay_s: float = 0.002,
    ):
        if max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_delay_s < 0:
            raise ValidationError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.scorer = scorer
        self.n_features = None if n_features is None else int(n_features)
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._worker: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ #
    async def start(self) -> "MicroBatchScoringService":
        if self._worker is not None:
            raise ValidationError("service is already started")
        self._queue = asyncio.Queue()
        self._worker = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Stop the batcher and fail anything still queued.

        Requests that were submitted but not yet batched cannot be scored
        once the worker is gone — leaving their futures pending would hang
        the submitters forever (a TCP client would block on shutdown).
        Every queued ``(rows, future)`` is failed with a clear
        :class:`ValidationError` and counted as error traffic.
        """
        if self._worker is None:
            return
        worker, self._worker = self._worker, None
        queue, self._queue = self._queue, None
        worker.cancel()
        try:
            await worker
        except asyncio.CancelledError:
            pass
        assert queue is not None
        exc = ValidationError("service stopped")
        while True:
            try:
                rows, future = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not future.done():
                future.set_exception(exc)
            self.stats.record_request(rows.shape[0], failed=True)

    async def __aenter__(self) -> "MicroBatchScoringService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    def _validate_rows(self, rows) -> np.ndarray:
        try:
            rows = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "a scoring request is a non-empty 2-D block of equal-length"
                f" numeric rows ({exc})"
            ) from None
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValidationError(
                "a scoring request is a non-empty 2-D row block; got shape"
                f" {rows.shape}"
            )
        if self.n_features is not None and rows.shape[1] != self.n_features:
            raise ValidationError(
                f"request rows have {rows.shape[1]} features; the model"
                f" expects {self.n_features}"
            )
        # json.loads accepts NaN/Infinity: a non-finite row would score to
        # NaN and go back as a response that is not valid JSON.
        if not np.isfinite(rows).all():
            raise ValidationError("request rows must be finite (got NaN or infinity)")
        return rows

    async def submit(self, rows) -> np.ndarray:
        """Score a row block; resolves when its coalesced batch is scored.

        A block rejected at validation raises :class:`ValidationError` and
        counts as a failed request in :attr:`stats`.
        """
        if self._queue is None:
            raise ValidationError("service is not started (use 'async with')")
        try:
            rows = self._validate_rows(rows)
        except ValidationError:
            self.stats.record_request(0, failed=True)
            raise
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((rows, future))
        return await future

    async def _run(self) -> None:
        assert self._queue is not None
        queue = self._queue
        loop = asyncio.get_running_loop()
        # The straggler wait must be cancellation-safe.  Wrapping
        # ``queue.get()`` in ``asyncio.wait_for(..., timeout)`` is not on
        # Python <= 3.11 (gh-86296 class): when the timeout races the
        # completion, ``wait_for`` cancels a get() that has already
        # dequeued an item and discards its return value — the request is
        # silently dropped and the submitter's future never resolves.
        # Instead the get() runs as a persistent task observed through
        # ``asyncio.wait``: a timeout leaves the task pending (it simply
        # becomes the next batch's opening get), and a completed task
        # retains its result, so a retrieved ``(rows, future)`` can never
        # be lost.
        getter: Optional[asyncio.Task] = None
        batch: List = []
        try:
            while True:
                if getter is None:
                    getter = loop.create_task(queue.get())
                await asyncio.wait({getter})
                rows, future = getter.result()
                getter = None
                batch = [(rows, future)]
                n_rows = rows.shape[0]
                deadline = loop.time() + self.max_delay_s
                # Linger for stragglers: drain whatever is already queued,
                # then wait out the delay budget before closing the batch.
                while n_rows < self.max_batch_size:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        try:
                            rows, future = queue.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                    else:
                        if getter is None:
                            getter = loop.create_task(queue.get())
                        done, _ = await asyncio.wait({getter}, timeout=timeout)
                        if not done:
                            break
                        rows, future = getter.result()
                        getter = None
                    batch.append((rows, future))
                    n_rows += rows.shape[0]
                self._score_batch(batch)
                batch = []
        finally:
            # Cancellation (stop()) can land mid-linger.  Anything the
            # worker holds but has not scored — the in-hand batch, and a
            # get() that completed before the cancel — goes back on the
            # queue so stop()'s drain fails those futures instead of
            # leaving them pending forever.
            if getter is not None:
                getter.cancel()
                if getter.done() and not getter.cancelled():
                    if getter.exception() is None:
                        queue.put_nowait(getter.result())
            for item in batch:
                queue.put_nowait(item)

    def _score_batch(self, batch) -> None:
        blocks = [rows for rows, _ in batch]
        stacked = np.vstack(blocks) if len(blocks) > 1 else blocks[0]
        try:
            scores = np.asarray(self.scorer(stacked))
        except Exception as exc:  # surface scorer failures per-request
            self._fail_batch(batch, exc)
            return
        if scores.shape[0] != stacked.shape[0]:
            self._fail_batch(
                batch,
                ValidationError(
                    f"scorer returned {scores.shape[0]} scores for"
                    f" {stacked.shape[0]} rows"
                ),
            )
            return
        self.stats.record_batch(stacked.shape[0])
        offset = 0
        for rows, future in batch:
            n = rows.shape[0]
            if not future.done():
                future.set_result(scores[offset : offset + n].copy())
            offset += n
            self.stats.record_request(n)

    def _fail_batch(self, batch, exc: BaseException) -> None:
        for rows, future in batch:
            if not future.done():
                future.set_exception(exc)
            self.stats.record_request(rows.shape[0], failed=True)


# ---------------------------------------------------------------------- #
# Synchronous driver (tests, bench, self-test)
# ---------------------------------------------------------------------- #
def score_batches(
    scorer: Callable[[np.ndarray], np.ndarray],
    requests: Sequence[np.ndarray],
    *,
    n_features: Optional[int] = None,
    max_batch_size: int = 64,
    max_delay_s: float = 0.002,
) -> tuple:
    """Score ``requests`` concurrently through a fresh service.

    Returns ``(results, stats)`` where ``results[i]`` is the score array
    for ``requests[i]`` — the synchronous entry point for callers that do
    not run an event loop themselves.
    """

    async def _drive():
        async with MicroBatchScoringService(
            scorer,
            n_features=n_features,
            max_batch_size=max_batch_size,
            max_delay_s=max_delay_s,
        ) as service:
            results = await asyncio.gather(
                *(service.submit(rows) for rows in requests)
            )
            return results, service.stats

    return asyncio.run(_drive())


def measure_latency(
    scorer: Callable[[np.ndarray], np.ndarray],
    make_rows: Callable[[int], np.ndarray],
    *,
    concurrency: int,
    waves: int = 20,
    max_batch_size: Optional[int] = None,
    max_delay_s: float = 0.002,
) -> Dict[str, Any]:
    """Per-request latency/throughput of the coalesced path.

    Drives ``waves`` rounds of ``concurrency`` concurrent single-row
    requests through one long-lived service and records each request's
    submit→result wall time.  Returns p50/p99 latency (ms), aggregate
    req/s, and the coalescing stats.
    """

    async def _drive():
        latencies: List[float] = []
        service = MicroBatchScoringService(
            scorer,
            max_batch_size=concurrency if max_batch_size is None else max_batch_size,
            max_delay_s=max_delay_s,
        )
        async with service:
            async def one_request(rows):
                start = time.perf_counter()
                await service.submit(rows)
                latencies.append(time.perf_counter() - start)

            start = time.perf_counter()
            for _ in range(waves):
                await asyncio.gather(
                    *(one_request(make_rows(1)) for _ in range(concurrency))
                )
            elapsed = time.perf_counter() - start
        lat_ms = np.asarray(latencies) * 1e3
        return {
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p99_ms": float(np.percentile(lat_ms, 99)),
            "req_per_s": float(len(latencies) / elapsed) if elapsed > 0 else 0.0,
            **service.stats.as_dict(),
        }

    return asyncio.run(_drive())


def run_self_test(
    artifact,
    *,
    concurrency: int = 16,
    waves: int = 5,
    seed: int = 0,
) -> Dict[str, Any]:
    """End-to-end in-process check of a loaded artifact behind the service.

    Submits ``waves`` rounds of ``concurrency`` concurrent requests,
    verifies every coalesced response matches scoring the same rows
    directly (at the float64 BLAS-reduction tolerance batching is pinned
    at — see the module docstring), checks that coalescing actually
    happened, and reports the latency/throughput summary.  Raises
    :class:`ValidationError` on any mismatch — the CI serve-smoke job
    calls this via ``python -m repro serve --self-test``.
    """
    scorer = artifact.scorer()
    rng = np.random.default_rng(seed)
    request_blocks = [
        artifact.example_rows(int(rng.integers(1, 4)), rng)
        for _ in range(concurrency * waves)
    ]

    results, stats = score_batches(
        scorer,
        request_blocks,
        n_features=artifact.n_features,
        max_batch_size=max(2, concurrency),
    )
    for rows, scores in zip(request_blocks, results):
        direct = np.asarray(scorer(rows))
        if scores.shape != direct.shape or not np.allclose(
            scores, direct, rtol=1e-10, atol=1e-12
        ):
            raise ValidationError(
                "micro-batched scores differ from direct scoring beyond"
                " BLAS accumulation tolerance — coalescing must not change"
                " results"
            )
    if stats.batches >= stats.requests and stats.requests > 1:
        raise ValidationError(
            f"no coalescing happened: {stats.requests} requests ran as"
            f" {stats.batches} batches"
        )

    latency = measure_latency(
        scorer,
        lambda n: artifact.example_rows(n, rng),
        concurrency=concurrency,
        waves=waves,
    )
    return {
        "kind": artifact.kind,
        "n_features": artifact.n_features,
        "verified_requests": len(request_blocks),
        "coalesced": stats.as_dict(),
        **latency,
    }


# ---------------------------------------------------------------------- #
# TCP front end (newline-delimited JSON)
# ---------------------------------------------------------------------- #
#: In-flight request cap per connection: a pipelined client can have this
#: many requests being scored at once before the reader stops pulling new
#: lines (bounds per-connection memory without limiting coalescing).
MAX_PIPELINED_REQUESTS = 32

#: Longest accepted request line.  8 MiB holds a ``max_batch_size=64``
#: block of 784-wide rows of full-precision floats.  It is deliberately not
#: the ``StreamReader`` limit: that limit is also the reader's flow-control
#: mark (it buffers up to twice the limit before pausing the socket), and
#: an 8 MiB limit lets an overloaded server buffer ~16 MiB per connection.
MAX_REQUEST_BYTES = 8 * 1024 * 1024


async def _read_request_line(reader) -> bytes:
    """The next request line (``b""`` at end of stream).

    Lines longer than the reader's limit (asyncio's 64 KiB default) are
    assembled from limit-sized reads; a line over :data:`MAX_REQUEST_BYTES`
    raises ``ValueError``.
    """
    parts: List[bytes] = []
    size = 0
    while True:
        try:
            part = await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as exc:
            part = await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError as exc:
            part = exc.partial  # end of stream: an unterminated last line
        size += len(part)
        if size > MAX_REQUEST_BYTES:
            raise ValueError(f"request line exceeds {MAX_REQUEST_BYTES} bytes")
        parts.append(part)
        if not part or part.endswith(b"\n"):
            return b"".join(parts)


def _route(
    services: Mapping[str, MicroBatchScoringService],
    default_model: Optional[str],
    request: Dict[str, Any],
) -> MicroBatchScoringService:
    """Pick the service a request addresses via its optional ``"model"`` key."""
    name = request.get("model")
    if name is None:
        if default_model is not None:
            return services[default_model]
        raise ValidationError(
            "several models are being served; requests must name one via"
            f' {{"model": name}} — available: {sorted(services)}'
        )
    if not isinstance(name, str) or name not in services:
        raise ValidationError(
            f"unknown model {name!r} — available: {sorted(services)}"
        )
    return services[name]


async def _handle_client(
    services: Mapping[str, MicroBatchScoringService],
    default_model: Optional[str],
    reader,
    writer,
) -> None:
    """Serve one connection, pipelining request lines into shared batches.

    Each request line is processed by its own task so a client that sends
    several requests back-to-back has them coalesced into one batch instead
    of paying ``max_delay_s`` per request serially.  Responses are written
    strictly in request order (the writer drains a FIFO of tasks), and the
    FIFO is bounded so a fast sender cannot queue unbounded work.
    """
    loop = asyncio.get_running_loop()
    pending: asyncio.Queue = asyncio.Queue(maxsize=MAX_PIPELINED_REQUESTS)

    async def _process(line: bytes) -> Dict[str, Any]:
        request_id = None
        try:
            request = json.loads(line)
            request_id = request.get("id") if isinstance(request, dict) else None
            if not isinstance(request, dict) or "rows" not in request:
                raise ValidationError(
                    'a request is a JSON object {"rows": [[...], ...]}'
                )
            service = _route(services, default_model, request)
            scores = await service.submit(request["rows"])
            return {"id": request_id, "scores": np.asarray(scores).tolist()}
        except Exception as exc:
            return {"id": request_id, "error": str(exc)}

    async def _write_responses() -> None:
        while True:
            task = await pending.get()
            if task is None:
                return
            response = await task
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()

    writer_task = loop.create_task(_write_responses())
    try:
        while True:
            try:
                line = await _read_request_line(reader)
            except ValueError as exc:
                # Over MAX_REQUEST_BYTES: the stream cannot resync to the
                # next line, so answer in order and close the connection.
                oversized = loop.create_future()
                oversized.set_result({"id": None, "error": str(exc)})
                await pending.put(oversized)
                break
            if not line:
                break
            await pending.put(loop.create_task(_process(line)))
        await pending.put(None)
        await writer_task
    finally:
        if not writer_task.done():
            writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await writer_task
        while not pending.empty():
            task = pending.get_nowait()
            if task is not None:
                task.cancel()
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()


def _artifact_names(artifacts: Sequence) -> List[str]:
    """Name each artifact by its file stem, rejecting collisions."""
    names: List[str] = []
    for artifact in artifacts:
        name = Path(artifact.path).stem
        if name in names:
            raise ValidationError(
                f"two artifacts share the model name {name!r} (file stems"
                " must be unique so requests can route unambiguously)"
            )
        names.append(name)
    return names


async def serve_forever(
    artifacts,
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    max_batch_size: int = 64,
    max_delay_s: float = 0.002,
    ready_callback: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Serve one or several loaded artifacts over newline-delimited JSON TCP.

    One service instance per artifact backs every connection, so requests
    from different clients coalesce into shared per-model batches.  With a
    single artifact the ``"model"`` request key is optional (it defaults to
    that artifact); with several, each artifact is addressable by its file
    stem and requests must name one.  Runs until cancelled
    (``python -m repro serve`` wraps this with Ctrl-C handling).
    """
    if not isinstance(artifacts, (list, tuple)):
        artifacts = [artifacts]
    if not artifacts:
        raise ValidationError("serve_forever needs at least one artifact")
    names = _artifact_names(artifacts)
    async with contextlib.AsyncExitStack() as stack:
        services: Dict[str, MicroBatchScoringService] = {}
        for name, artifact in zip(names, artifacts):
            services[name] = await stack.enter_async_context(
                MicroBatchScoringService(
                    artifact.scorer(),
                    n_features=artifact.n_features,
                    max_batch_size=max_batch_size,
                    max_delay_s=max_delay_s,
                )
            )
        default_model = names[0] if len(names) == 1 else None
        server = await asyncio.start_server(
            lambda r, w: _handle_client(services, default_model, r, w),
            host,
            port,
        )
        async with server:
            bound = server.sockets[0].getsockname()
            if ready_callback is not None:
                ready_callback(bound[0], bound[1])
            await server.serve_forever()
