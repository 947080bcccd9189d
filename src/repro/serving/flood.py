"""Load generator for the serving stack: throughput and tail latency.

The paper's deployment constraint (§5.1) is a server absorbing an online
login flood while throttling per account; survey work on cued-recall
authentication frames server-side verification latency as the operative
cost.  This module makes both measurable:

* :func:`mixed_stream` builds a deterministic legit/attacker attempt mix
  over an enrolled population;
* :func:`flood_service` drives N concurrent client coroutines straight
  into an :class:`~repro.serving.service.AsyncVerificationService`
  (the benchmark shape — no socket noise);
* :func:`flood_server` drives N real TCP connections through the JSONL
  protocol of :class:`~repro.serving.server.LoginServer` (the
  ``repro flood`` CLI shape);

both report a :class:`FloodReport` with throughput, p50/p95/p99 latency
and the accept/reject/locked tally.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.obs.metrics import quantile
from repro.serving.service import AsyncVerificationService

__all__ = ["FloodReport", "mixed_stream", "flood_service", "flood_server"]

#: One attempt: ``(username, click_points)``.
Attempt = Tuple[str, Sequence[Point]]


@dataclass
class FloodReport:
    """Outcome of one flood run.

    Attributes
    ----------
    attempts / clients / seconds:
        Workload shape and wall-clock duration.
    tally:
        Decision counts keyed ``accept`` / ``reject`` / ``locked``.
    latencies_ms:
        Per-attempt submit→decision latency, milliseconds, in completion
        order (the percentile properties digest it).
    trace:
        Completed root-span dicts scraped from the server's
        :class:`~repro.obs.SpanTracer` when the flood ran with tracing
        (``repro flood --trace``); ``None`` otherwise.
        :meth:`trace_summary` digests it.

    The percentile properties return ``None`` when no attempt completed
    (all-dropped floods) and :meth:`summary` renders them as ``n/a``.
    """

    attempts: int
    clients: int
    seconds: float
    tally: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    trace: Optional[List[dict]] = None

    @property
    def throughput(self) -> float:
        """Decided attempts per second."""
        return self.attempts / self.seconds if self.seconds else float("inf")

    @property
    def p50_ms(self) -> Optional[float]:
        """Median per-attempt latency in ms (``None`` without samples)."""
        return quantile(self.latencies_ms, 0.50)

    @property
    def p95_ms(self) -> Optional[float]:
        """95th-percentile latency in ms (``None`` without samples)."""
        return quantile(self.latencies_ms, 0.95)

    @property
    def p99_ms(self) -> Optional[float]:
        """99th-percentile latency in ms (``None`` without samples)."""
        return quantile(self.latencies_ms, 0.99)

    @staticmethod
    def _fmt_ms(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.2f}ms"

    def summary(self) -> str:
        """One-line human-readable digest (CLI and example output)."""
        tally = ", ".join(
            f"{self.tally.get(status, 0)} {status}"
            for status in ("accept", "reject", "locked")
        )
        return (
            f"{self.attempts:,} attempts / {self.clients} clients in "
            f"{self.seconds:.2f}s -> {self.throughput:,.0f} logins/s | "
            f"p50 {self._fmt_ms(self.p50_ms)} p95 {self._fmt_ms(self.p95_ms)}"
            f" | {tally}"
        )

    def trace_summary(self) -> str:
        """Multi-line digest of the captured spans: where time went.

        Aggregates the ``serving.flush`` root spans (and their
        ``serving.login`` children) recorded by the server's tracer into
        a queue-wait vs. kernel-time breakdown, plus per-trigger flush
        counts and the slowest flushes.  Returns a single explanatory
        line when the flood ran without ``--trace``.
        """
        if not self.trace:
            return "no trace captured (run with tracing enabled)"
        flushes = [s for s in self.trace if s.get("name") == "serving.flush"]
        waits: List[float] = []
        kernel = 0.0
        hashing = 0.0
        triggers: Dict[str, int] = {}
        for span in flushes:
            attrs = span.get("attributes", {})
            trigger = str(attrs.get("trigger", "?"))
            triggers[trigger] = triggers.get(trigger, 0) + 1
            kernel += float(attrs.get("kernel_seconds", 0.0) or 0.0)
            hashing += float(attrs.get("hash_seconds", 0.0) or 0.0)
            for child in span.get("children", []):
                wait = child.get("attributes", {}).get("queue_wait_seconds")
                if wait is not None:
                    waits.append(float(wait) * 1000.0)
        trigger_line = ", ".join(
            f"{count} {name}" for name, count in sorted(triggers.items())
        )
        lines = [
            f"trace: {len(flushes)} flush spans retained"
            + (f" ({trigger_line})" if trigger_line else ""),
            (
                "  queue-wait p50 "
                f"{self._fmt_ms(quantile(waits, 0.50))} p95 "
                f"{self._fmt_ms(quantile(waits, 0.95))} p99 "
                f"{self._fmt_ms(quantile(waits, 0.99))} "
                f"over {len(waits)} logins"
            ),
            (
                f"  kernel time {kernel * 1000.0:.2f}ms, "
                f"hash+decide time {hashing * 1000.0:.2f}ms "
                "across retained flushes"
            ),
        ]
        slowest = sorted(
            flushes, key=lambda s: s.get("duration", 0.0) or 0.0, reverse=True
        )[:3]
        for span in slowest:
            attrs = span.get("attributes", {})
            duration = (span.get("duration") or 0.0) * 1000.0
            lines.append(
                f"  slow flush: {duration:.2f}ms "
                f"batch={attrs.get('batch_size', '?')} "
                f"trigger={attrs.get('trigger', '?')}"
            )
        return "\n".join(lines)


def mixed_stream(
    accounts: Dict[str, Sequence[Point]],
    attempts: int,
    wrong_fraction: float = 0.25,
    seed: int = 2008,
    jitter_px: int = 3,
    bounds: Optional[Tuple[int, int]] = None,
) -> List[Attempt]:
    """A deterministic legit/attacker mix over an enrolled population.

    Each attempt targets a round-robin account; a ``wrong_fraction`` slice
    of the stream shifts every click 25 px off (the attacker), the rest
    re-enter the password exactly or with a small within-tolerance jitter
    (the legitimate user).  Deterministic in *seed* so scalar reference
    runs and flood runs see the same stream.

    Pass ``bounds=(width, height)`` to clamp generated points into the
    image domain (enrolled clicks near an edge would otherwise shift out
    of it and draw :class:`~repro.errors.DomainError` instead of a
    decision; a clamped "wrong" attempt may occasionally land within
    tolerance, which only perturbs the mix, not correctness).
    """
    if not accounts:
        raise ValueError("mixed_stream needs at least one enrolled account")
    if not 0 <= wrong_fraction <= 1:
        raise ValueError(f"wrong_fraction must be in [0, 1], got {wrong_fraction}")
    rng = np.random.default_rng(seed)
    names = sorted(accounts)
    if bounds is None:
        clamp = lambda x, y: (x, y)  # noqa: E731 - trivial passthrough
    else:
        width, height = bounds

        def clamp(x: int, y: int) -> Tuple[int, int]:
            return (
                min(max(x, 0), width - 1),
                min(max(y, 0), height - 1),
            )

    stream: List[Attempt] = []
    for index in range(attempts):
        username = names[index % len(names)]
        points = accounts[username]
        if rng.random() < wrong_fraction:  # the attacker's guess
            attempt = [
                Point.xy(*clamp(int(p.x) - 25, int(p.y) + 25)) for p in points
            ]
        elif index % 2:  # within-tolerance re-entry
            attempt = [
                Point.xy(
                    *clamp(
                        int(p.x) + int(rng.integers(-jitter_px, jitter_px + 1)),
                        int(p.y) + int(rng.integers(-jitter_px, jitter_px + 1)),
                    )
                )
                for p in points
            ]
        else:  # exact re-entry
            attempt = list(points)
        stream.append((username, attempt))
    return stream


def _split_round_robin(stream: Sequence[Attempt], clients: int) -> List[List[Attempt]]:
    return [list(stream[offset::clients]) for offset in range(clients)]


async def flood_service(
    service: AsyncVerificationService,
    stream: Sequence[Attempt],
    clients: int = 64,
    window: int = 1,
) -> FloodReport:
    """Drive *stream* through the async service with concurrent coroutines.

    The stream is split round-robin across *clients* coroutine clients;
    each keeps at most *window* requests in flight — ``window=1`` is the
    fully closed loop (one ``submit``/await per attempt), larger windows
    pipeline a burst through one
    :meth:`~repro.serving.service.AsyncVerificationService.submit_many`
    future.  Batching is emergent either way: clients know nothing of
    each other, the service's flush triggers do the amortizing.
    """
    report = FloodReport(attempts=len(stream), clients=clients, seconds=0.0)
    tally = report.tally
    latencies = report.latencies_ms
    perf_counter = time.perf_counter

    async def client(attempts: List[Attempt]) -> None:
        if window == 1:
            submit = service.submit
            for username, pts in attempts:
                begin = perf_counter()
                outcome = await submit(username, pts)
                latencies.append((perf_counter() - begin) * 1000.0)
                tally[outcome.status] = tally.get(outcome.status, 0) + 1
            return
        for start in range(0, len(attempts), window):
            chunk = attempts[start : start + window]
            begin = perf_counter()
            outcomes = await service.submit_many(chunk)
            elapsed_ms = (perf_counter() - begin) * 1000.0
            for outcome in outcomes:
                tally[outcome.status] = tally.get(outcome.status, 0) + 1
                latencies.append(elapsed_ms)

    begin = perf_counter()
    await asyncio.gather(*(client(part) for part in _split_round_robin(stream, clients)))
    report.seconds = perf_counter() - begin
    return report


def _login_line(request_id: int, username: str, points: Sequence[Point]) -> bytes:
    """One encoded JSONL login request (shared by all flood clients)."""
    return json.dumps(
        {
            "op": "login",
            "id": request_id,
            "user": username,
            "points": [[int(p.x), int(p.y)] for p in points],
        },
        separators=(",", ":"),
    ).encode() + b"\n"


async def flood_server(
    host: str,
    port: int,
    stream: Sequence[Attempt],
    clients: int = 16,
    pipeline_depth: int = 1,
) -> FloodReport:
    """Drive *stream* through a live :class:`~repro.serving.server.LoginServer`
    over real TCP connections speaking the JSONL protocol.

    The stream splits round-robin across *clients* connections.
    ``pipeline_depth=1`` is the closed loop (send one login line, await
    its response line); deeper values write a burst of ``pipeline_depth``
    lines before reading the burst's responses — the shape that exercises
    the server's bounded-pipelining and write-buffer backpressure paths
    (``repro flood --pipeline-depth``).  Per-attempt latency in a burst
    is measured from the burst's first write to that response's arrival
    (responses may interleave; the protocol correlates by ``id``).
    Concurrency across connections is what fills the server's batches.
    """
    if pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    report = FloodReport(attempts=len(stream), clients=clients, seconds=0.0)
    tally = report.tally
    latencies = report.latencies_ms
    perf_counter = time.perf_counter

    async def client(attempts: List[Attempt]) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for start in range(0, len(attempts), pipeline_depth):
                chunk = attempts[start : start + pipeline_depth]
                burst = b"".join(
                    _login_line(start + offset, username, points)
                    for offset, (username, points) in enumerate(chunk)
                )
                begin = perf_counter()
                writer.write(burst)
                received = 0
                alive = True
                try:
                    await writer.drain()
                except ConnectionError:
                    alive = False
                while alive and received < len(chunk):
                    try:
                        raw = await reader.readline()
                    except ConnectionError:
                        raw = b""
                    if not raw:
                        alive = False
                        break
                    response = json.loads(raw)
                    latencies.append((perf_counter() - begin) * 1000.0)
                    status = response.get("status") if response.get("ok") else "error"
                    tally[status] = tally.get(status, 0) + 1
                    received += 1
                if not alive:
                    # Server went away mid-flood: count this burst's missing
                    # responses and every unsent attempt as dropped instead
                    # of crashing the run.
                    dropped = len(attempts) - start - received
                    tally["dropped"] = tally.get("dropped", 0) + dropped
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - server already gone
                pass

    begin = perf_counter()
    await asyncio.gather(*(client(part) for part in _split_round_robin(stream, clients)))
    report.seconds = perf_counter() - begin
    return report
