"""Micro-batching scoring service: coalescing, correctness, front ends.

The batching contract: responses are bit-identical to scoring the
coalesced batch directly, and match scoring each request alone at the
float64 BLAS-reduction tolerance (gemv-vs-gemm accumulation order — see
the repro.serve.service module docstring).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.rbm import BernoulliRBM
from repro.serve import (
    MicroBatchScoringService,
    load_model,
    run_self_test,
    save_model,
    score_batches,
    serve_forever,
)
from repro.serve import service as service_module
from repro.serve.service import _handle_client
from repro.utils.validation import ValidationError


@pytest.fixture()
def scorer_rbm():
    rbm = BernoulliRBM(12, 6, rng=0)
    rng = np.random.default_rng(1)
    rbm.set_parameters(
        rng.normal(0, 0.3, (12, 6)),
        rng.normal(0, 0.2, 12),
        rng.normal(0, 0.2, 6),
    )
    return rbm


def _request_blocks(n_requests, n_features=12, seed=2):
    rng = np.random.default_rng(seed)
    return [
        (rng.random((int(rng.integers(1, 4)), n_features)) < 0.5).astype(float)
        for _ in range(n_requests)
    ]


class TestCoalescing:
    def test_concurrent_requests_share_batches(self, scorer_rbm):
        requests = _request_blocks(20)
        results, stats = score_batches(
            scorer_rbm.score_samples, requests, n_features=12, max_batch_size=32
        )
        assert stats.requests == 20
        assert stats.batches < stats.requests  # coalescing happened
        assert stats.rows == sum(block.shape[0] for block in requests)
        for block, scores in zip(requests, results):
            assert scores.shape == (block.shape[0],)
            np.testing.assert_allclose(
                scores, scorer_rbm.score_samples(block), rtol=1e-10, atol=1e-12
            )

    def test_batch_size_one_disables_coalescing(self, scorer_rbm):
        requests = _request_blocks(6)
        results, stats = score_batches(
            scorer_rbm.score_samples, requests, n_features=12, max_batch_size=1
        )
        assert stats.batches == stats.requests == 6
        # Solo batches ARE the direct call: bit-identical, no tolerance.
        for block, scores in zip(requests, results):
            np.testing.assert_array_equal(scores, scorer_rbm.score_samples(block))

    def test_stats_summary_shape(self, scorer_rbm):
        _, stats = score_batches(
            scorer_rbm.score_samples, _request_blocks(4), n_features=12
        )
        summary = stats.as_dict()
        # Stable keys from the list-backed stats era, plus the bounded
        # aggregates that replaced it (mean) and the error counters.
        assert set(summary) >= {"requests", "rows", "batches", "max_batch_rows"}
        assert set(summary) == {
            "requests", "rows", "batches", "max_batch_rows",
            "mean_batch_rows", "errors", "error_rows",
        }
        assert summary["max_batch_rows"] == stats.max_batch_rows
        assert summary["max_batch_rows"] <= stats.batch_rows_total
        assert summary["mean_batch_rows"] == pytest.approx(
            stats.batch_rows_total / stats.batches
        )
        assert summary["errors"] == 0 and summary["error_rows"] == 0

    def test_stats_are_bounded_aggregates(self, scorer_rbm):
        # A long-lived server must accumulate O(1) stats state: no
        # per-batch list (the old ``batch_rows`` attribute) may come back.
        _, stats = score_batches(
            scorer_rbm.score_samples, _request_blocks(8), n_features=12
        )
        assert not any(
            isinstance(value, (list, dict, set))
            for value in vars(stats).values()
        )


class TestRequestLoss:
    def test_linger_timeout_never_drops_requests(self, scorer_rbm):
        """Regression for the ``asyncio.wait_for(queue.get(), timeout)``
        cancellation race (gh-86296 class): on Python <= 3.11 a request
        dequeued at the same tick the linger timeout fired was silently
        discarded and its future never resolved.  Hammer the race window:
        500 rounds of a batch-opening request plus a straggler submitted
        right around the linger deadline.  Every future must resolve; a
        dropped request shows up as the per-round wait_for timing out.
        """

        async def drive():
            async with MicroBatchScoringService(
                scorer_rbm.score_samples,
                n_features=12,
                max_batch_size=4,
                max_delay_s=0.0002,
            ) as service:
                rows = np.ones((1, 12))
                for i in range(500):
                    async def straggler():
                        # Scan offsets across the linger window so some
                        # puts land before, at, and after the deadline.
                        await asyncio.sleep((i % 5) * 0.0001)
                        return await service.submit(rows)

                    results = await asyncio.wait_for(
                        asyncio.gather(service.submit(rows), straggler()),
                        timeout=5.0,
                    )
                    assert all(scores.shape == (1,) for scores in results)
                return service.stats

        stats = asyncio.run(drive())
        assert stats.requests == 1000
        assert stats.errors == 0


class TestStopSemantics:
    def test_stop_fails_queued_and_inflight_requests(self, scorer_rbm):
        """stop() must not leave any submitted future pending: requests
        still queued — and requests the batcher holds mid-linger — are
        failed with a clear ValidationError and counted as error traffic.
        """

        async def drive():
            service = MicroBatchScoringService(
                scorer_rbm.score_samples,
                n_features=12,
                max_batch_size=64,
                max_delay_s=30.0,  # linger far longer than the test runs
            )
            await service.start()
            rows = np.ones((2, 12))
            tasks = [
                asyncio.ensure_future(service.submit(rows)) for _ in range(3)
            ]
            # Let the submits enqueue and the batcher start lingering.
            for _ in range(5):
                await asyncio.sleep(0)
            await service.stop()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return service, results

        service, results = asyncio.run(drive())
        assert len(results) == 3
        for outcome in results:
            assert isinstance(outcome, ValidationError)
            assert "service stopped" in str(outcome)
        assert service.stats.errors == 3
        assert service.stats.error_rows == 6
        assert service.stats.requests == 3

    def test_submit_after_stop_rejected(self, scorer_rbm):
        async def drive():
            service = MicroBatchScoringService(
                scorer_rbm.score_samples, n_features=12
            )
            await service.start()
            await service.stop()
            with pytest.raises(ValidationError, match="not started"):
                await service.submit(np.ones((1, 12)))

        asyncio.run(drive())

    def test_stop_is_idempotent(self, scorer_rbm):
        async def drive():
            service = MicroBatchScoringService(
                scorer_rbm.score_samples, n_features=12
            )
            await service.start()
            await service.stop()
            await service.stop()

        asyncio.run(drive())


class TestErrorTraffic:
    def test_scorer_failures_are_counted(self):
        def broken(rows):
            raise RuntimeError("model exploded")

        async def drive():
            async with MicroBatchScoringService(
                broken, n_features=12, max_delay_s=0.0
            ) as service:
                with pytest.raises(RuntimeError, match="model exploded"):
                    await service.submit(np.ones((3, 12)))
                return service.stats

        stats = asyncio.run(drive())
        assert stats.requests == 1
        assert stats.rows == 3
        assert stats.errors == 1
        assert stats.error_rows == 3
        assert stats.batches == 0  # no successful scorer call happened

    @pytest.mark.parametrize(
        "rows, match",
        [
            (np.zeros((2, 5)), "expects 12"),
            (np.zeros((0, 12)), "non-empty"),
            ([[0.0] * 12, [0.0] * 11], "equal-length"),
            ([[float("nan")] + [0.0] * 11], "finite"),
            ([[float("inf")] + [0.0] * 11], "finite"),
            ([["a"] * 12], "numeric"),
        ],
        ids=["width", "empty", "ragged", "nan", "inf", "text"],
    )
    def test_rejected_requests_are_counted(self, scorer_rbm, rows, match):
        """A request rejected at validation is failed traffic: one error,
        zero accepted rows, no scorer call."""

        async def drive():
            async with MicroBatchScoringService(
                scorer_rbm.score_samples, n_features=12, max_delay_s=0.0
            ) as service:
                with pytest.raises(ValidationError, match=match):
                    await service.submit(rows)
                await service.submit(np.zeros((1, 12)))  # still serving
                return service.stats

        stats = asyncio.run(drive())
        assert (stats.requests, stats.errors, stats.error_rows) == (2, 1, 0)
        assert stats.rows == 1 and stats.batches == 1

    def test_non_finite_json_rows_get_a_strict_json_error(self, scorer_rbm):
        """Python's json.loads parses NaN; the reply must be an error that
        is itself valid RFC 8259 JSON, never ``{"scores": [NaN]}``."""
        service = MicroBatchScoringService(
            scorer_rbm.score_samples, n_features=12, max_delay_s=0.0
        )

        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")

        async def drive():
            async with service:
                server = await asyncio.start_server(
                    lambda r, w: _handle_client({"m": service}, "m", r, w),
                    "127.0.0.1",
                    0,
                )
                async with server:
                    port = server.sockets[0].getsockname()[1]
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    try:
                        line = '{"id": 7, "rows": [[NaN, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]]}\n'
                        writer.write(line.encode())
                        await writer.drain()
                        reply = await reader.readline()
                    finally:
                        writer.close()
                        await writer.wait_closed()
            return json.loads(reply, parse_constant=strict)

        response = asyncio.run(drive())
        assert response["id"] == 7
        assert "finite" in response["error"] and "scores" not in response
        assert service.stats.errors == 1


class TestValidation:
    def test_row_width_checked_at_submit(self, scorer_rbm):
        with pytest.raises(ValidationError, match="expects 12"):
            score_batches(
                scorer_rbm.score_samples,
                [np.zeros((2, 5))],
                n_features=12,
            )

    def test_empty_request_rejected(self, scorer_rbm):
        with pytest.raises(ValidationError, match="non-empty"):
            score_batches(
                scorer_rbm.score_samples, [np.zeros((0, 12))], n_features=12
            )

    def test_bad_service_parameters(self, scorer_rbm):
        with pytest.raises(ValidationError, match="max_batch_size"):
            MicroBatchScoringService(scorer_rbm.score_samples, max_batch_size=0)
        with pytest.raises(ValidationError, match="max_delay_s"):
            MicroBatchScoringService(scorer_rbm.score_samples, max_delay_s=-1.0)

    def test_submit_requires_started_service(self, scorer_rbm):
        service = MicroBatchScoringService(scorer_rbm.score_samples)
        with pytest.raises(ValidationError, match="not started"):
            asyncio.run(service.submit(np.zeros((1, 12))))

    def test_scorer_failure_surfaces_per_request(self):
        def broken(rows):
            raise RuntimeError("model exploded")

        with pytest.raises(RuntimeError, match="model exploded"):
            score_batches(broken, _request_blocks(3), n_features=12)

    def test_miscounting_scorer_detected(self):
        def short(rows):
            return np.zeros(rows.shape[0] - 1)

        with pytest.raises(ValidationError, match="scores for"):
            score_batches(short, [np.zeros((3, 12))], n_features=12)


class TestSelfTest:
    def test_self_test_reports_latency_and_coalescing(self, tmp_path, scorer_rbm):
        save_model(scorer_rbm, tmp_path / "model")
        artifact = load_model(tmp_path / "model")
        report = run_self_test(artifact, concurrency=8, waves=3, seed=0)
        assert report["kind"] == "rbm"
        assert report["n_features"] == 12
        assert report["verified_requests"] == 24
        assert report["coalesced"]["batches"] < report["coalesced"]["requests"]
        assert report["p50_ms"] > 0 and report["p99_ms"] >= report["p50_ms"]
        assert report["req_per_s"] > 0


class TestTCPFrontEnd:
    def test_json_round_trip_and_error_path(self, tmp_path, scorer_rbm):
        save_model(scorer_rbm, tmp_path / "model")
        artifact = load_model(tmp_path / "model")
        rows = (np.random.default_rng(3).random((4, 12)) < 0.5).astype(float)
        expected = scorer_rbm.score_samples(rows)

        async def drive():
            bound = {}
            server_task = asyncio.current_task().get_loop().create_task(
                serve_forever(
                    artifact,
                    port=0,
                    ready_callback=lambda host, port: bound.update(
                        host=host, port=port
                    ),
                )
            )
            while not bound:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                bound["host"], bound["port"]
            )
            try:
                writer.write(
                    (json.dumps({"id": 1, "rows": rows.tolist()}) + "\n").encode()
                )
                await writer.drain()
                good = json.loads(await reader.readline())
                writer.write(
                    (json.dumps({"id": 2, "rows": [[1.0, 0.0]]}) + "\n").encode()
                )
                await writer.drain()
                bad = json.loads(await reader.readline())
                writer.write(b'"not an object"\n')
                await writer.drain()
                malformed = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
                server_task.cancel()
                try:
                    await server_task
                except asyncio.CancelledError:
                    pass
            return good, bad, malformed

        good, bad, malformed = asyncio.run(drive())
        assert good["id"] == 1
        np.testing.assert_allclose(
            np.asarray(good["scores"]), expected, rtol=1e-10, atol=1e-12
        )
        assert bad["id"] == 2 and "expects 12" in bad["error"]
        assert malformed["id"] is None and "rows" in malformed["error"]

    def test_pipelined_requests_share_a_batch(self, scorer_rbm):
        """One connection sending N requests back-to-back must have them
        coalesced (the old handler awaited each response before reading
        the next line, so a pipelined client could never batch) and the
        responses must come back in request order.
        """
        rows = np.ones((1, 12))

        async def drive():
            service = MicroBatchScoringService(
                scorer_rbm.score_samples,
                n_features=12,
                max_batch_size=6,  # batch closes on count, not the linger
                max_delay_s=5.0,
            )
            async with service:
                server = await asyncio.start_server(
                    lambda r, w: _handle_client({"m": service}, "m", r, w),
                    "127.0.0.1",
                    0,
                )
                async with server:
                    port = server.sockets[0].getsockname()[1]
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    try:
                        payload = b"".join(
                            (
                                json.dumps({"id": i, "rows": rows.tolist()})
                                + "\n"
                            ).encode()
                            for i in range(6)
                        )
                        writer.write(payload)  # all six lines at once
                        await writer.drain()
                        responses = [
                            json.loads(await reader.readline())
                            for _ in range(6)
                        ]
                    finally:
                        writer.close()
                        await writer.wait_closed()
            return responses, service.stats

        responses, stats = asyncio.run(drive())
        assert [response["id"] for response in responses] == list(range(6))
        assert all("scores" in response for response in responses)
        assert stats.requests == 6
        assert stats.batches == 1  # the whole pipeline landed in one batch
        assert stats.max_batch_rows == 6


class TestRequestSizeLimit:
    @staticmethod
    def _exchange(artifact, payload):
        """Send ``payload`` to a fresh server; every reply line until EOF."""

        async def drive():
            bound = {}
            server_task = asyncio.get_running_loop().create_task(
                serve_forever(
                    artifact,
                    port=0,
                    ready_callback=lambda host, port: bound.update(
                        host=host, port=port
                    ),
                )
            )
            while not bound:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                bound["host"], bound["port"]
            )
            try:
                writer.write(payload)
                writer.write_eof()
                await writer.drain()
                replies = []
                while line := await reader.readline():
                    replies.append(json.loads(line))
            finally:
                writer.close()
                await writer.wait_closed()
                server_task.cancel()
                try:
                    await server_task
                except asyncio.CancelledError:
                    pass
            return replies

        return asyncio.run(drive())

    @staticmethod
    def _line(request_id, rows):
        return (json.dumps({"id": request_id, "rows": rows.tolist()}) + "\n").encode()

    def test_mnist_width_request_over_64_kib_is_scored(self, tmp_path):
        rbm = BernoulliRBM(784, 8, rng=0)
        save_model(rbm, tmp_path / "model")
        rows = np.random.default_rng(4).random((30, 784))
        line = self._line(1, rows)
        assert len(line) > 64 * 1024  # over asyncio's default line limit

        (reply,) = self._exchange(load_model(tmp_path / "model"), line)
        assert reply["id"] == 1
        np.testing.assert_allclose(
            np.asarray(reply["scores"]), rbm.score_samples(rows), rtol=1e-10
        )

    def test_over_limit_line_gets_an_error_reply_then_close(
        self, tmp_path, scorer_rbm, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MAX_REQUEST_BYTES", 1024)
        save_model(scorer_rbm, tmp_path / "model")
        small = np.ones((1, 12))
        big = np.random.default_rng(5).random((30, 12))
        assert len(self._line(2, big)) > 1024

        replies = self._exchange(
            load_model(tmp_path / "model"),
            self._line(1, small) + self._line(2, big) + self._line(3, small),
        )
        # The request before the oversized line is answered in order; the
        # connection closes after the error, so request 3 gets no reply.
        assert [reply["id"] for reply in replies] == [1, None]
        assert "scores" in replies[0]
        assert replies[1]["error"] == "request line exceeds 1024 bytes"


class TestMultiModel:
    @staticmethod
    def _two_artifacts(tmp_path):
        rbm_a = BernoulliRBM(12, 6, rng=0)
        rbm_b = BernoulliRBM(12, 4, rng=1)
        rng = np.random.default_rng(7)
        rbm_a.set_parameters(
            rng.normal(0, 0.3, (12, 6)),
            rng.normal(0, 0.2, 12),
            rng.normal(0, 0.2, 6),
        )
        rbm_b.set_parameters(
            rng.normal(0, 0.3, (12, 4)),
            rng.normal(0, 0.2, 12),
            rng.normal(0, 0.2, 4),
        )
        save_model(rbm_a, tmp_path / "alpha")
        save_model(rbm_b, tmp_path / "beta")
        return (
            (rbm_a, load_model(tmp_path / "alpha")),
            (rbm_b, load_model(tmp_path / "beta")),
        )

    def test_routed_requests_hit_the_named_model(self, tmp_path):
        (rbm_a, art_a), (rbm_b, art_b) = self._two_artifacts(tmp_path)
        rows = (np.random.default_rng(3).random((3, 12)) < 0.5).astype(float)

        async def drive():
            bound = {}
            server_task = asyncio.get_running_loop().create_task(
                serve_forever(
                    [art_a, art_b],
                    port=0,
                    ready_callback=lambda host, port: bound.update(
                        host=host, port=port
                    ),
                )
            )
            while not bound:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                bound["host"], bound["port"]
            )
            try:
                for request in (
                    {"id": "a", "model": "alpha", "rows": rows.tolist()},
                    {"id": "b", "model": "beta", "rows": rows.tolist()},
                    {"id": "none", "rows": rows.tolist()},
                    {"id": "bad", "model": "gamma", "rows": rows.tolist()},
                ):
                    writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in range(4)
                ]
            finally:
                writer.close()
                await writer.wait_closed()
                server_task.cancel()
                try:
                    await server_task
                except asyncio.CancelledError:
                    pass
            return responses

        by_id = {response["id"]: response for response in asyncio.run(drive())}
        np.testing.assert_allclose(
            np.asarray(by_id["a"]["scores"]),
            rbm_a.score_samples(rows),
            rtol=1e-10,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            np.asarray(by_id["b"]["scores"]),
            rbm_b.score_samples(rows),
            rtol=1e-10,
            atol=1e-12,
        )
        # Ambiguous and unknown routes both fail and name the choices.
        assert "alpha" in by_id["none"]["error"]
        assert "beta" in by_id["none"]["error"]
        assert "gamma" in by_id["bad"]["error"]

    def test_single_artifact_keeps_model_key_optional(self, tmp_path):
        (rbm_a, art_a), _ = self._two_artifacts(tmp_path)
        rows = np.ones((2, 12))

        async def drive():
            bound = {}
            server_task = asyncio.get_running_loop().create_task(
                serve_forever(
                    [art_a],
                    port=0,
                    ready_callback=lambda host, port: bound.update(
                        host=host, port=port
                    ),
                )
            )
            while not bound:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                bound["host"], bound["port"]
            )
            try:
                writer.write(
                    (json.dumps({"id": 0, "rows": rows.tolist()}) + "\n").encode()
                )
                await writer.drain()
                response = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
                server_task.cancel()
                try:
                    await server_task
                except asyncio.CancelledError:
                    pass
            return response

        response = asyncio.run(drive())
        np.testing.assert_allclose(
            np.asarray(response["scores"]),
            rbm_a.score_samples(rows),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_duplicate_stems_rejected(self, tmp_path):
        (_, art_a), _ = self._two_artifacts(tmp_path)
        with pytest.raises(ValidationError, match="unique"):
            asyncio.run(serve_forever([art_a, art_a], port=0))
