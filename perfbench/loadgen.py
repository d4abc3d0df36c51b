"""Open-loop load generator for the newline-JSON scoring protocol.

Scoring clients are independent users, so load is an open loop: each
request has a due time fixed in advance (Poisson arrivals at the phase's
rate), it is sent when due whether or not earlier requests were answered,
and its latency is measured from when it was due, so a stall is charged
to every request it delays.  How late the generator itself sent each
request is recorded too.  Requests are spread round-robin over a few
connections; the server answers each connection in request order.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Phase:
    """A stretch of the schedule at one offered rate (requests per second)."""

    name: str
    rate: float
    seconds: float


@dataclass
class Schedule:
    """Due offsets (s from the start), phase index and row-block index of
    every request, in due order."""

    due: np.ndarray
    phase: np.ndarray
    block: np.ndarray


def make_schedule(phases: Sequence[Phase], n_blocks: int, rng: np.random.Generator) -> Schedule:
    """Poisson arrivals with an exact count per phase: ``rate * seconds``
    due times drawn uniformly over the phase and sorted."""
    due, phase = [], []
    start = 0.0
    for index, spec in enumerate(phases):
        count = int(round(spec.rate * spec.seconds))
        due.append(start + np.sort(rng.uniform(0.0, spec.seconds, count)))
        phase.append(np.full(count, index))
        start += spec.seconds
    due_all = np.concatenate(due)
    return Schedule(
        due=due_all,
        phase=np.concatenate(phase),
        block=rng.integers(0, n_blocks, size=due_all.shape[0]),
    )


def encode_blocks(blocks: Sequence[np.ndarray]) -> List[bytes]:
    """Pre-encode each row block as the JSON text of its ``rows`` field."""
    return [
        json.dumps(np.asarray(rows, dtype=int).tolist(), separators=(",", ":")).encode()
        for rows in blocks
    ]


@dataclass
class LoadResult:
    """Per-request clocks (``time.monotonic``; NaN = never happened)."""

    start: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    answered: np.ndarray
    scores: Dict[int, list]


async def _drive(
    host: str,
    port: int,
    schedule: Schedule,
    encoded: Sequence[bytes],
    keep_scores: set,
    connections: int,
    drain_s: float,
) -> LoadResult:
    n = schedule.due.shape[0]
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    answered = np.zeros(n, dtype=bool)
    scores: Dict[int, list] = {}
    streams = [
        await asyncio.open_connection(host, port) for _ in range(connections)
    ]
    inflight: List[deque] = [deque() for _ in streams]

    async def read(index: int) -> None:
        reader = streams[index][0]
        expected = len(range(index, n, connections))
        for _ in range(expected):
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic()
            request = inflight[index].popleft()
            response = json.loads(line)
            done[request] = now
            if response.get("id") == request and "scores" in response:
                answered[request] = True
                if request in keep_scores:
                    scores[request] = response["scores"]

    readers = [asyncio.ensure_future(read(index)) for index in range(connections)]
    start = time.monotonic() + 0.05
    due = start + schedule.due
    writers = [stream[1] for stream in streams]
    i = 0
    while i < n:
        now = time.monotonic()
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            continue
        while i < n and due[i] <= now:
            index = i % connections
            inflight[index].append(i)
            writers[index].write(b'{"id":%d,"rows":%s}\n' % (i, encoded[schedule.block[i]]))
            sent[i] = now
            i += 1
        await asyncio.sleep(0)
    try:
        await asyncio.wait_for(asyncio.gather(*readers), timeout=drain_s)
    except asyncio.TimeoutError:
        pass
    for writer in writers:
        writer.close()
    for writer in writers:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return LoadResult(start, due, sent, done, answered, scores)


def run_load(
    host: str,
    port: int,
    schedule: Schedule,
    encoded: Sequence[bytes],
    *,
    keep_scores: set,
    connections: int = 2,
    drain_s: float = 60.0,
) -> LoadResult:
    """Send the whole schedule and collect every response (or give up
    ``drain_s`` after the last send)."""
    return asyncio.run(
        _drive(host, port, schedule, encoded, keep_scores, connections, drain_s)
    )


def latency_ms(result: LoadResult, mask: np.ndarray) -> np.ndarray:
    """Due-to-response latency (ms) of the answered requests in ``mask``."""
    keep = mask & result.answered
    return (result.done[keep] - result.due[keep]) * 1e3


def phase_window(result: LoadResult, mask: np.ndarray) -> Tuple[float, float]:
    """From the first due time to the last response among ``mask``."""
    return float(result.due[mask].min()), float(np.nanmax(result.done[mask]))
