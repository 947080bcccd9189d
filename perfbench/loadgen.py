"""Closed-loop JSONL load generator: one process, one socket per stream.

Each connection keeps a fixed window of login requests in flight as a
sliding window: every response read releases exactly one new request.
Requests are encoded before timing starts (see ``streams.Stream.encode``)
and responses are parsed only for ``id``, ``ok`` and ``status``.  The
generator lives in the benchmark's own files so that no program change
can change the load it offers.
"""

from __future__ import annotations

import re
import selectors
import socket
import time
from typing import Callable, List, Optional, Sequence, Tuple

_RESPONSE = re.compile(rb'\{"id":(\d+),"ok":(true|false)(?:,"status":"([a-z]+)")?')


class Connection:
    """One client socket replaying one encoded stream."""

    def __init__(self, address: Tuple[str, int], lines: Sequence[bytes], stream, expected) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.lines = lines
        self.stream = stream
        self.expected = expected  # position -> expected status bytes
        self.sent = 0
        self.limit = len(lines) if not stream.cyclic else None
        self.inflight = {}  # request id -> send time
        self.outgoing = bytearray()
        self.pending = b""
        self.bytes_sent = 0
        self.bytes_received = 0
        self.errors = 0
        self.mismatches = 0
        self.mismatch_examples: List[str] = []

    def exhausted(self) -> bool:
        return self.limit is not None and self.sent >= self.limit

    def queue(self, count: int, now: float) -> None:
        """Append up to *count* next requests to the outgoing buffer."""
        for _ in range(count):
            if self.exhausted():
                return
            position = self.stream.position(self.sent)
            self.outgoing += self.lines[position]
            self.inflight[position] = now
            self.sent += 1

    def flush(self) -> None:
        """Write as much of the outgoing buffer as the socket takes."""
        if not self.outgoing:
            return
        try:
            written = self.sock.send(self.outgoing)
        except BlockingIOError:
            return
        self.bytes_sent += written
        del self.outgoing[:written]


class Recorder:
    """Per-round latencies and decision counts, by response time."""

    def __init__(self, start: float, round_seconds: float, rounds: int) -> None:
        self.start = start
        self.round_seconds = round_seconds
        self.rounds = rounds
        self.latencies: List[List[float]] = [[] for _ in range(rounds)]
        self.decided = [0] * rounds
        self.extra = 0  # responses after the last round closed

    def record(self, now: float, latency: float) -> None:
        index = int((now - self.start) / self.round_seconds)
        if 0 <= index < self.rounds:
            self.latencies[index].append(latency)
            self.decided[index] += 1
        else:
            self.extra += 1


def _receive(connection: Connection, now: float, recorder: Optional[Recorder]) -> int:
    """Read what the socket holds; returns responses completed."""
    try:
        data = connection.sock.recv(1 << 18)
    except BlockingIOError:
        return 0
    if not data:
        raise ConnectionError("server closed the connection")
    connection.bytes_received += len(data)
    lines = (connection.pending + data).split(b"\n")
    connection.pending = lines.pop()
    completed = 0
    for line in lines:
        match = _RESPONSE.match(line)
        if match is None:
            connection.errors += 1
            continue
        position = int(match.group(1))
        sent_at = connection.inflight.pop(position, None)
        if sent_at is None:
            connection.errors += 1
            continue
        completed += 1
        if match.group(2) != b"true":
            connection.errors += 1
        elif match.group(3) != connection.expected[position]:
            connection.mismatches += 1
            if len(connection.mismatch_examples) < 5:
                connection.mismatch_examples.append(
                    f"id {position}: got {match.group(3)!r}, "
                    f"expected {connection.expected[position]!r}"
                )
        if recorder is not None:
            recorder.record(now, now - sent_at)
    return completed


def run_phase(
    connections: Sequence[Connection],
    window: int,
    until: Callable[[float], bool],
    recorder: Optional[Recorder] = None,
    on_tick: Optional[Callable[[float], None]] = None,
    drain_timeout: float = 60.0,
) -> None:
    """Drive every connection until ``until(now)`` is true, then drain.

    At phase start each connection tops its window up; afterwards each
    response releases one request.  Once ``until`` holds no new requests
    go out and the phase ends when every in-flight one is answered.
    *on_tick* is called with the current time after each select wake-up.
    """
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    try:
        now = time.perf_counter()
        stopping = until(now)
        for connection in connections:
            if not stopping:
                connection.queue(window - len(connection.inflight), now)
            connection.flush()
        drain_deadline = None
        while True:
            busy = any(c.inflight or c.outgoing for c in connections)
            if stopping and not busy:
                break
            if not busy and all(c.exhausted() for c in connections):
                break
            events = selector.select(timeout=0.5)
            now = time.perf_counter()
            for key, _ in events:
                connection = key.data
                completed = _receive(connection, now, recorder)
                if completed and not stopping:
                    connection.queue(completed, now)
            for connection in connections:
                connection.flush()
            if on_tick is not None:
                on_tick(now)
            if not stopping and until(now):
                stopping = True
                drain_deadline = now + drain_timeout
            if drain_deadline is not None and now > drain_deadline:
                break
    finally:
        selector.close()


def dropped(connections: Sequence[Connection]) -> int:
    """Requests still unanswered (counted as failures)."""
    return sum(len(c.inflight) for c in connections)
