"""Asyncio front-end over the micro-batched verification service.

:class:`~repro.passwords.service.VerificationService` batches logins but is
synchronous: *somebody* has to collect a batch before flushing it.  In a
live deployment that somebody is the event loop — independent clients
arrive as concurrent coroutines, and this module amortizes them into
vectorized kernel calls without any client knowing about the others:

* :meth:`AsyncVerificationService.submit` validates an attempt, enqueues
  it on the underlying sync service, and parks the caller on an
  :class:`asyncio.Future`;
* a flush fires when either ``max_batch`` attempts are pending (size
  trigger, checked synchronously at submit) or ``flush_interval`` seconds
  after the first pending attempt (deadline trigger; an interval of ``0``
  means "the next event-loop pass", which batches everything submitted in
  the current scheduling tick — the lowest-latency policy);
* the sync service's :meth:`~repro.passwords.service.VerificationService.flush`
  returns outcomes **in submission order** (a documented guarantee), so
  futures are resolved positionally — no request ids, no reordering.

Semantics are the scalar ``PasswordStore.login`` loop's, bit-for-bit, in
enqueue order: the property tests in ``tests/test_serving.py`` drive
randomized concurrent interleavings and compare the full decision/lockout
sequence against the scalar reference.  The one structural difference
from the sync service: out-of-image points are validated per request at
:meth:`submit` (raising :class:`~repro.errors.DomainError` to that caller
alone), so one malformed request can never poison the shared batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import DomainError, ParameterError
from repro.geometry.point import Point
from repro.obs import SIZE_BUCKETS, MetricsRegistry, SpanTracer, get_registry
from repro.passwords.service import LoginOutcome, VerificationService
from repro.passwords.store import PasswordStore

__all__ = ["AsyncVerificationService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Counters describing the batching behaviour of one service instance.

    Attributes
    ----------
    submitted:
        Login attempts accepted by :meth:`AsyncVerificationService.submit`.
    decided:
        Attempts whose future has been resolved.
    flushes:
        Number of batch flushes executed.
    size_flushes:
        Flushes triggered by the ``max_batch`` size trigger.
    deadline_flushes:
        Flushes triggered by the ``flush_interval`` deadline timer (the
        remainder, ``flushes - size_flushes - deadline_flushes``, were
        explicit :meth:`~AsyncVerificationService.drain` calls) — lets a
        flood run distinguish size- from deadline-triggered batching.
    largest_batch:
        Largest number of attempts decided by a single flush.
    throttled:
        Attempts refused by the defense rate-limit window (always 0 under
        the neutral :class:`~repro.passwords.defense.DefenseConfig`).
    captcha_challenged:
        Attempts that carried a CAPTCHA challenge (always 0 when the
        ``captcha_after`` knob is off).
    """

    submitted: int = 0
    decided: int = 0
    flushes: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    largest_batch: int = 0
    throttled: int = 0
    captcha_challenged: int = 0

    @property
    def mean_batch(self) -> float:
        """Average attempts per flush (0.0 before the first flush)."""
        return self.decided / self.flushes if self.flushes else 0.0


class AsyncVerificationService:
    """Concurrent login front-end amortizing clients into kernel batches.

    Parameters
    ----------
    store:
        The :class:`~repro.passwords.store.PasswordStore` to serve.  A
        private sync :class:`~repro.passwords.service.VerificationService`
        is created over it; the async layer must own that service's queue,
        so don't share one sync service between an async front-end and
        direct callers.
    max_batch:
        Size trigger: a flush fires synchronously as soon as this many
        attempts are pending.
    flush_interval:
        Deadline trigger, in seconds, armed when the first attempt of a
        batch arrives.  ``0.0`` (default) flushes on the next event-loop
        pass — every coroutine that submits during the current tick shares
        one kernel call.
    registry:
        :class:`~repro.obs.MetricsRegistry` receiving the serving-layer
        telemetry (queue-wait histogram, flush-trigger counters, batch
        sizes) and, through the inner sync service, the kernel/hash
        timings.  ``None`` (default) publishes into the process registry;
        pass :data:`~repro.obs.NULL_REGISTRY` for the no-op path.
    tracer:
        Optional :class:`~repro.obs.SpanTracer`.  When enabled, every
        flush emits a ``serving.flush`` root span (annotated with the
        trigger, batch size and kernel/hash seconds) with one
        ``serving.login`` child per parked submit carrying its queue
        wait — the ``repro flood --trace`` surface.  ``None`` disables
        tracing entirely.

    Use it from a running event loop::

        service = AsyncVerificationService(store)
        outcome = await service.login("alice", points)   # parks until flush
    """

    def __init__(
        self,
        store: PasswordStore,
        max_batch: int = 256,
        flush_interval: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if flush_interval < 0:
            raise ParameterError(
                f"flush_interval must be >= 0, got {flush_interval}"
            )
        registry = registry if registry is not None else get_registry()
        self._service = VerificationService(
            store, max_batch=max_batch, registry=registry
        )
        self._max_batch = max_batch
        self._flush_interval = flush_interval
        # Parked callers: ``(future, n)`` — the future resolves to one
        # outcome (n == 1, from submit) or a list of n outcomes (from
        # submit_many).  Total pending attempts is tracked separately so
        # the size trigger stays O(1).
        self._waiters: List[tuple] = []
        self._pending_attempts = 0
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self.stats = ServiceStats()
        # Neutral deployments skip the per-outcome defense bookkeeping in
        # _flush_now entirely — the hot path stays the undefended one.
        self._count_defense = not store.defense.is_neutral
        # Image bounds hoisted out of the per-submit hot path.
        image = getattr(store.system, "image", None)
        if image is not None:
            self._bounds = (image.width, image.height, image.name)
        else:
            self._bounds = None
        # Telemetry.  Instruments resolve once; on a disabled registry
        # with no tracer, submit/flush skip every telemetry branch (the
        # `_track_times` flag) so the hot path matches the PR-3 shape.
        self._registry = registry
        self._obs_enabled = registry.enabled
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._track_times = self._obs_enabled or self._tracer is not None
        # Queue waits and span timings share one clock; the tracer's wins
        # so an injected VirtualClock stays authoritative in tests.
        self._now = self._tracer.clock if self._tracer else time.perf_counter
        self._submit_times: List[float] = []
        self._obs_submitted = registry.counter(
            "serving_submitted_total",
            help="attempts accepted by submit() (published at flush)",
        )
        self._obs_decided = registry.counter(
            "serving_decided_total", help="attempts whose future resolved"
        )
        self._obs_flush_trigger = {
            trigger: registry.counter(
                "serving_flushes_total",
                help="batch flushes by trigger",
                trigger=trigger,
            )
            for trigger in ("size", "deadline", "drain")
        }
        self._obs_queue_wait = registry.histogram(
            "serving_queue_wait_seconds",
            help="submit-to-flush wait per parked request",
        )
        self._obs_batch_size = registry.histogram(
            "serving_batch_size",
            help="attempts decided per flush",
            buckets=SIZE_BUCKETS,
        )
        self._obs_largest = registry.gauge(
            "serving_largest_batch", help="largest single flush so far"
        )

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this service publishes into."""
        return self._registry

    @property
    def tracer(self) -> Optional[SpanTracer]:
        """The span tracer, if tracing is enabled (else ``None``)."""
        return self._tracer

    @property
    def store(self) -> PasswordStore:
        """The underlying password store."""
        return self._service.store

    @property
    def service(self) -> VerificationService:
        """The sync micro-batching service the async layer drives."""
        return self._service

    @property
    def pending_count(self) -> int:
        """Attempts submitted but not yet flushed."""
        return self._pending_attempts

    # -- intake ---------------------------------------------------------------

    def _validate_points(self, points: Sequence[Point]) -> None:
        """Per-request domain check, mirroring the scalar path.

        The sync service defers out-of-image detection to flush time and
        fails the whole micro-batch; here each request is checked on its
        own so a bad client only fails itself — exactly what the scalar
        ``PasswordStore.login`` would do (raise before touching the
        throttle).
        """
        if self._bounds is None:
            return
        width, height, name = self._bounds
        for point in points:
            coords = point.coords
            if len(coords) != 2:
                continue
            x, y = coords
            if not (0 <= x < width and 0 <= y < height):
                raise DomainError(
                    f"click-point {tuple(coords)!r} outside image "
                    f"{name!r} ({width}x{height})"
                )

    def _arm_or_fire(self, loop: asyncio.AbstractEventLoop) -> None:
        """Apply the flush triggers after an enqueue (hot path)."""
        if self._pending_attempts >= self._max_batch:
            self.stats.size_flushes += 1
            self._flush_now("size")
        elif self._flush_handle is None:
            if self._flush_interval <= 0:
                self._flush_handle = loop.call_soon(self._deadline_flush)
            else:
                self._flush_handle = loop.call_later(
                    self._flush_interval, self._deadline_flush
                )

    def _deadline_flush(self) -> None:
        """Timer-fired flush (the deadline trigger, counted as such)."""
        self.stats.deadline_flushes += 1
        self._flush_now("deadline")

    def submit(self, username: str, points: Sequence[Point]) -> asyncio.Future:
        """Enqueue one attempt; the returned future resolves to its
        :class:`~repro.passwords.service.LoginOutcome`.

        Validation is synchronous and per-request: unknown accounts raise
        :class:`~repro.errors.StoreError`, wrong click counts
        :class:`~repro.errors.VerificationError`, out-of-image points
        :class:`~repro.errors.DomainError` — all from this call, leaving
        the shared batch untouched.  Enqueue order is decision order (the
        property the equivalence tests pin down), and it is established
        here, atomically, before any ``await``.

        Must be called from a running event loop.
        """
        loop = asyncio.get_running_loop()
        self._validate_points(points)
        self._service.submit(username, points)
        future = loop.create_future()
        self._waiters.append((future, 1))
        self._pending_attempts += 1
        self.stats.submitted += 1
        if self._track_times:
            self._submit_times.append(self._now())
        self._arm_or_fire(loop)
        return future

    def submit_many(
        self, attempts: Sequence[tuple]
    ) -> asyncio.Future:
        """Enqueue a pipelined burst of ``(username, points)`` attempts.

        The returned future resolves to a list of outcomes, one per
        attempt in order.  Semantically identical to calling
        :meth:`submit` per attempt (each is decided individually, in
        enqueue order, against the same throttles) but parks the whole
        burst on **one** future — the cheap path for clients that pipeline
        requests.  Validation failures raise before any attempt of the
        burst is enqueued, so a rejected burst leaves no partial state.
        """
        loop = asyncio.get_running_loop()
        for _, points in attempts:
            self._validate_points(points)
        self._service.submit_all(attempts)
        future = loop.create_future()
        self._waiters.append((future, len(attempts)))
        self._pending_attempts += len(attempts)
        self.stats.submitted += len(attempts)
        if self._track_times:
            self._submit_times.append(self._now())
        self._arm_or_fire(loop)
        return future

    async def login(self, username: str, points: Sequence[Point]) -> LoginOutcome:
        """Submit one attempt and wait for its batched decision."""
        return await self.submit(username, points)

    # -- flushing -------------------------------------------------------------

    def _flush_now(self, trigger: str = "drain") -> None:
        """Decide every pending attempt and resolve its future.

        Futures are resolved positionally against the sync service's
        submission-order outcome list.  A failure inside the batched
        decision or its throttle commit (say, SQLite's ``database is
        locked``) is propagated to every parked caller rather than
        swallowed; the throttles the flush already updated in memory keep
        their counted failures.  *trigger* (``"size"`` / ``"deadline"`` /
        ``"drain"``) only feeds telemetry.
        """
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        waiters, self._waiters = self._waiters, []
        times, self._submit_times = self._submit_times, []
        batch_size, self._pending_attempts = self._pending_attempts, 0
        if not waiters:
            return
        self.stats.flushes += 1
        if batch_size > self.stats.largest_batch:
            self.stats.largest_batch = batch_size
        tracer = self._tracer
        span = (
            tracer.start("serving.flush", trigger=trigger, batch_size=batch_size)
            if tracer
            else None
        )
        try:
            outcomes = self._service.flush()
        except Exception as exc:
            for future, _ in waiters:
                if not future.done():
                    future.set_exception(exc)
            return
        self.stats.decided += len(outcomes)
        if self._track_times:
            now = self._now()
            if self._obs_enabled:
                self._obs_flush_trigger[trigger].inc()
                # The submitted counter is published here, per flush, not
                # per submit — between flushes ``stats_view()`` carries
                # the live ``pending_count`` instead.
                self._obs_submitted.inc(batch_size)
                self._obs_decided.inc(len(outcomes))
                self._obs_batch_size.observe(batch_size)
                self._obs_largest.set_max(batch_size)
                self._obs_queue_wait.observe_many(
                    [now - submitted_at for submitted_at in times]
                )
            if span is not None:
                timings = self._service.last_flush_timings
                if timings is not None:
                    span.annotate(**timings)
                for (_, count), submitted_at in zip(waiters, times):
                    child = span.child(
                        "serving.login",
                        attempts=count,
                        queue_wait_seconds=now - submitted_at,
                    )
                    child.start = submitted_at
                    child.end = now
                span.finish()
        if self._count_defense:
            for outcome in outcomes:
                if outcome.throttled:
                    self.stats.throttled += 1
                if outcome.captcha:
                    self.stats.captcha_challenged += 1
        offset = 0
        for future, count in waiters:
            if count == 1:
                if not future.done():
                    future.set_result(outcomes[offset])
                offset += 1
            else:
                if not future.done():
                    future.set_result(outcomes[offset : offset + count])
                offset += count

    async def drain(self) -> None:
        """Flush any pending attempts and wait until they are decided."""
        waiters = [future for future, _ in self._waiters]
        self._flush_now()
        if waiters:
            await asyncio.gather(*waiters, return_exceptions=True)

    # -- reporting ------------------------------------------------------------

    def stats_view(self) -> dict:
        """The legacy batching counters as one JSON-safe dict.

        This is the server's ``{"op": "stats"}`` payload: the
        :class:`ServiceStats` fields plus the live ``pending_count`` —
        kept as a *view* over the same quantities the registry publishes
        (``serving_submitted_total``, ``serving_flushes_total{trigger=…}``
        and friends; the equivalence is property-tested in
        ``tests/test_obs.py``), so dashboards can consume either surface.
        """
        stats = self.stats
        return {
            "submitted": stats.submitted,
            "decided": stats.decided,
            "pending_count": self.pending_count,
            "flushes": stats.flushes,
            "size_flushes": stats.size_flushes,
            "deadline_flushes": stats.deadline_flushes,
            "largest_batch": stats.largest_batch,
            "mean_batch": round(stats.mean_batch, 2),
            "throttled": stats.throttled,
            "captcha_challenged": stats.captcha_challenged,
        }
