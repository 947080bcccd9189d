"""Asyncio TCP server speaking a JSON-lines login protocol.

One request per line, one JSON object per request; one response line per
request, correlated by the client-chosen ``id`` (responses to pipelined
requests may interleave — every request is handled as its own task, and
logins park on the shared :class:`~repro.serving.service.AsyncVerificationService`
batch).  Operations:

``{"op": "login", "id": 1, "user": "u7", "points": [[x, y], ...]}``
    One throttled login attempt.  Response
    ``{"id": 1, "ok": true, "status": "accept" | "reject" | "locked" |
    "throttled"}``; a ``"captcha": true`` field is added when the
    deployment's :class:`~repro.passwords.defense.DefenseConfig` has
    challenged the attempt (absent otherwise, so the neutral-defense
    protocol is byte-identical to the undefended one).
``{"op": "enroll", "id": 2, "user": "new", "points": [[x, y], ...]}``
    Register an account (scalar path, like the sync service).
``{"op": "stats", "id": 3}``
    Batching counters (submitted/decided/pending/flushes by trigger/mean
    batch) plus account count — a live view of how well the flood is
    amortizing.  Since the telemetry PR this is a thin view over the
    metrics registry's serving series (see ``op: metrics``).
``{"op": "metrics", "id": 4}``
    Full :class:`~repro.obs.MetricsRegistry` snapshot — every counter,
    gauge and histogram (exact p50/p95/p99) the process has published,
    serving and attack telemetry alike.  Add ``"format": "prom"`` for
    Prometheus text exposition in a ``"prom"`` field instead.  The CLI
    scraper is ``repro metrics``.
``{"op": "trace", "id": 5, "limit": 10}``
    Recent completed root spans from the server's
    :class:`~repro.obs.SpanTracer` (empty list when tracing is off).
``{"op": "ping", "id": 6}``
    Liveness probe.

Failures come back as ``{"id": ..., "ok": false, "error": "<ErrorClass>",
"message": "..."}`` — library errors (unknown account, wrong click count,
out-of-image point) fail only their own request; malformed JSON, or a
line that is not a JSON object, fails the line it arrived on
(``"error": "protocol"``, ``"id": null``); any other failure is
``"error": "internal"``.  Every accepted frame gets exactly one reply.
The CLI front door is ``repro serve URI``; the matching load generator
is :mod:`repro.serving.flood` / ``repro flood``.

The connection handling lives in :class:`JsonLinesServer`, which this
module's :class:`LoginServer` and the cluster's
:class:`~repro.serving.cluster.ClusterRouter` both extend with only a
request dispatcher.  Replies go out through a per-connection
:class:`Connection`: every line answered during one event-loop pass
leaves in a single transport write, and when the client half-closes,
every request still in flight is answered before the connection closes.
It enforces three hardening contracts per connection:

* **request-size limit** — a line longer than ``max_request_bytes`` gets
  a structured ``{"error": "request_too_large"}`` reply and the
  connection survives (the oversize line is discarded through its
  newline; previously ``reader.readline()`` raised out of the handler
  and killed the connection silently);
* **bounded pipelining** — at most ``max_pipeline`` requests in flight
  per connection; the reader parks until the count drains;
* **slow-client backpressure** — when a client stops reading and the
  connection's write buffer exceeds the high-water mark, the server
  stops reading further requests from that connection until the buffer
  drains, without stalling other connections.  This check between reads
  is the only write-side flow control; replies are not drained one by
  one.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Optional, Sequence, Tuple, Union

from repro.errors import ParameterError, ReproError
from repro.geometry.point import Point
from repro.obs import MetricsRegistry, SpanTracer, get_registry
from repro.passwords.store import PasswordStore
from repro.serving.service import AsyncVerificationService

__all__ = [
    "Connection",
    "JsonLinesServer",
    "LineReader",
    "LoginServer",
    "OVERSIZE",
    "encode_line",
    "parse_points",
]

#: Default per-request size limit (bytes), matching asyncio's historical
#: 64 KiB stream limit that oversize lines used to trip over.
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024

#: Default cap on in-flight pipelined requests per connection.
DEFAULT_MAX_PIPELINE = 128

#: Default write-buffer high-water mark (bytes) above which the server
#: stops reading from a slow client until its responses drain.
DEFAULT_WRITE_HIGH_WATER = 64 * 1024


class _OversizeLine:
    """Sentinel type for :data:`OVERSIZE` (see :class:`LineReader`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<OVERSIZE>"


#: Returned by :meth:`LineReader.readline` in place of a line that
#: exceeded the size limit.  The line is consumed; the stream stays
#: usable for the next request.
OVERSIZE = _OversizeLine()


class LineReader:
    """Size-limited line framing over an :class:`asyncio.StreamReader`.

    ``StreamReader.readline()`` enforces its limit by *raising* (and
    leaves the tail of the oversize line in the stream as garbage), which
    is how the server used to lose connections.  This reader owns its own
    buffer: a line within ``max_line_bytes`` comes back as ``bytes``
    (newline stripped), an oversize line is swallowed through its
    terminating newline and reported as the :data:`OVERSIZE` sentinel,
    and EOF is ``None``.  Both the login server and the cluster router
    frame their sockets through it.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_line_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        chunk_size: int = 65536,
    ) -> None:
        if max_line_bytes < 1:
            raise ValueError(f"max_line_bytes must be >= 1, got {max_line_bytes}")
        self._reader = reader
        self._max = max_line_bytes
        self._chunk = max(chunk_size, 1)
        self._buffer = bytearray()
        self._eof = False

    async def readline(self) -> Union[bytes, _OversizeLine, None]:
        """The next line, :data:`OVERSIZE`, or ``None`` at EOF."""
        search_from = 0
        while True:
            index = self._buffer.find(b"\n", search_from)
            if index >= 0:
                if index > self._max:
                    del self._buffer[: index + 1]
                    return OVERSIZE
                line = bytes(self._buffer[:index])
                del self._buffer[: index + 1]
                return line
            if len(self._buffer) > self._max:
                await self._discard_line()
                return OVERSIZE
            if self._eof:
                if self._buffer:  # unterminated final line
                    line = bytes(self._buffer)
                    self._buffer.clear()
                    return line
                return None
            search_from = len(self._buffer)
            chunk = await self._reader.read(self._chunk)
            if not chunk:
                self._eof = True
            else:
                self._buffer.extend(chunk)

    async def _discard_line(self) -> None:
        """Drop buffered bytes up to and including the next newline.

        Anything after that newline is kept — it is the start of the next
        (possibly well-formed) request.
        """
        while True:
            index = self._buffer.find(b"\n")
            if index >= 0:
                del self._buffer[: index + 1]
                return
            self._buffer.clear()
            chunk = await self._reader.read(self._chunk)
            if not chunk:
                self._eof = True
                return
            self._buffer.extend(chunk)


def encode_line(payload: dict) -> bytes:
    """One reply object as a compact JSON line (newline included)."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


class Connection:
    """One connection's write side: coalesced writes, pipeline slots.

    *writer* is a :class:`asyncio.StreamWriter` or a transport (the
    router's upstreams use only the write side).  :meth:`send` queues a
    line; every line queued during one event-loop pass leaves in a
    single transport write, flushed by a ``call_soon`` callback, so a
    burst of pipelined replies costs one ``send()`` syscall instead of
    one each.  Writes to a connection the peer already closed are
    dropped.  :attr:`inflight` counts frames accepted but not yet
    answered; whoever answers a frame calls :meth:`release` after
    sending its reply.
    """

    __slots__ = ("_writer", "_loop", "_queued", "_waiter", "inflight", "tasks")

    def __init__(
        self, writer: Union[asyncio.StreamWriter, asyncio.WriteTransport]
    ) -> None:
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        self._queued: list = []
        self._waiter: Optional[asyncio.Future] = None
        #: Frames accepted on this connection and not yet answered.
        self.inflight = 0
        #: Dispatch tasks still running (strong references; see
        #: :meth:`JsonLinesServer._accept`).
        self.tasks: set = set()

    def send(self, line: bytes) -> None:
        """Queue one reply line for this loop pass's write."""
        if not self._queued:
            self._loop.call_soon(self.flush)
        self._queued.append(line)

    def flush(self) -> None:
        """Write every queued line now, in one transport write."""
        if not self._queued:
            return
        data = b"".join(self._queued)
        self._queued.clear()
        if not self._writer.is_closing():
            self._writer.write(data)

    def release(self) -> None:
        """Free the pipeline slot of one answered frame."""
        self.inflight -= 1
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def settle(self, task: asyncio.Task) -> None:
        """Done-callback of a dispatch task: drop it and free its slot."""
        self.tasks.discard(task)
        self.release()

    async def wait_below(self, limit: int) -> None:
        """Park until fewer than *limit* frames are in flight."""
        while self.inflight >= limit:
            self._waiter = self._loop.create_future()
            await self._waiter
        self._waiter = None


def parse_points(payload: object) -> Sequence[Point]:
    """Convert a JSON ``[[x, y], ...]`` payload into click-points.

    Raises :class:`ValueError` on anything that is not a list of 2-number
    pairs — protocol-level garbage, reported to the client as an
    ``error: "protocol"`` response rather than a library exception.
    Booleans are not numbers here, and ``Infinity``, ``NaN`` or ``1e400``
    is not a coordinate.
    """
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"points must be a non-empty list, got {payload!r}")
    points = []
    for pair in payload:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"each point must be an [x, y] pair, got {pair!r}")
        x, y = pair
        if (
            not isinstance(x, (int, float))
            or not isinstance(y, (int, float))
            or isinstance(x, bool)
            or isinstance(y, bool)
        ):
            raise ValueError(f"coordinates must be numbers, got {pair!r}")
        try:
            column, row = int(x), int(y)
        except (OverflowError, ValueError):  # int() of an infinity or NaN
            raise ValueError(f"coordinates must be finite, got {pair!r}") from None
        points.append(Point.xy(column, row))
    return points


class JsonLinesServer:
    """The connection core both front doors share.

    Owns everything between the socket and a request dict: size-limited
    framing through :class:`LineReader`, JSON parsing, the per-connection
    in-flight cap, slow-client backpressure, the counters for all three,
    and one response line per accepted frame.  A subclass supplies only
    :meth:`_dispatch`, which turns one request object into one response
    object.  A frame that is not a JSON object gets a ``protocol`` error,
    and an exception that :meth:`_dispatch` does not map itself gets an
    ``internal`` error, so no accepted frame goes unanswered.
    :class:`LoginServer` and :class:`~repro.serving.cluster.ClusterRouter`
    are the two subclasses.

    Parameters
    ----------
    host / port:
        Bind address (``port=0`` picks an ephemeral port; read
        :attr:`address` once listening).
    max_request_bytes / max_pipeline / write_high_water:
        The hardening knobs (see the module docstring); each must be
        ``>= 1`` or :class:`~repro.errors.ParameterError` is raised.
    registry:
        Sink for ``server_connections_total``,
        ``server_backpressure_total{reason=...}`` and
        ``server_oversize_total``.  The plain attributes
        :attr:`connections_served`, :attr:`backpressure` and
        :attr:`oversize_rejected` count the same events regardless.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_request_bytes: int,
        max_pipeline: int,
        write_high_water: int,
        registry: MetricsRegistry,
    ) -> None:
        for name, value in (
            ("max_request_bytes", max_request_bytes),
            ("max_pipeline", max_pipeline),
            ("write_high_water", write_high_water),
        ):
            if value < 1:
                raise ParameterError(f"{name} must be >= 1, got {value}")
        self.registry = registry
        self._host = host
        self._port = port
        self._max_request_bytes = max_request_bytes
        self._max_pipeline = max_pipeline
        self._write_high_water = write_high_water
        self._server: Optional[asyncio.base_events.Server] = None
        self.connections_served = 0
        #: Backpressure pauses by reason — ``"pipeline"`` (in-flight cap
        #: reached) and ``"write_buffer"`` (slow client above high-water).
        self.backpressure = {"pipeline": 0, "write_buffer": 0}
        self.oversize_rejected = 0
        if registry.enabled:
            self._obs_connections = registry.counter(
                "server_connections_total",
                help="TCP connections accepted by the login server",
            )
            self._obs_backpressure = {
                reason: registry.counter(
                    "server_backpressure_total",
                    help="reader pauses from per-connection flow control",
                    reason=reason,
                )
                for reason in ("pipeline", "write_buffer")
            }
            self._obs_oversize = registry.counter(
                "server_oversize_total",
                help="requests rejected for exceeding max_request_bytes",
            )
        else:
            self._obs_connections = None
            self._obs_backpressure = None
            self._obs_oversize = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once listening)."""
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__} not started")
        return self._server.sockets[0].getsockname()[:2]

    async def _listen(self) -> None:
        """Bind the door and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def aclose(self) -> None:
        """Stop accepting connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _dispatch(self, request: dict) -> dict:
        """Answer one request object (the subclass's whole job)."""
        raise NotImplementedError

    @staticmethod
    def _error_reply(request_id: object, error: str, message: str) -> dict:
        """A failure reply: ``error`` names the kind, ``message`` the detail."""
        return {"id": request_id, "ok": False, "error": error, "message": message}

    @staticmethod
    def _metrics_reply(request: dict, registry: MetricsRegistry) -> dict:
        """The ``metrics`` op's reply over *registry* (JSON or Prometheus)."""
        request_id = request.get("id")
        if request.get("format") == "prom":
            return {"id": request_id, "ok": True, "prom": registry.render_prometheus()}
        snapshot = registry.snapshot(include_samples=bool(request.get("samples")))
        return {"id": request_id, "ok": True, "metrics": snapshot}

    # -- connection handling ---------------------------------------------------

    def _accept(self, connection: Connection, request: dict, line: bytes) -> None:
        """Start answering one parsed frame; its pipeline slot is held.

        The default runs :meth:`_dispatch` as its own task, so pipelined
        logins from one connection land in the same batch instead of
        serializing.  Whoever answers the frame sends exactly one reply
        line and then calls :meth:`Connection.release`.  *line* is the
        frame's raw bytes, for a subclass that forwards them unparsed.
        An override that raises must do so before it answers or parks the
        frame: the read loop then answers it ``internal`` and frees its
        slot.
        """
        task = asyncio.ensure_future(self._handle_request(connection, request))
        connection.tasks.add(task)
        task.add_done_callback(connection.settle)

    async def _handle_request(self, connection: Connection, request: dict) -> None:
        try:
            response = await self._dispatch(request)
        except Exception as exc:  # anything _dispatch did not map itself
            response = self._internal_reply(request, exc)
        connection.send(encode_line(response))

    def _internal_reply(self, request: dict, exc: Exception) -> dict:
        """The ``internal`` reply to a frame whose handling raised *exc*."""
        logging.getLogger(__name__).exception("request dispatch failed")
        return self._error_reply(
            request.get("id"), "internal", f"{type(exc).__name__}: {exc}"
        )

    def _count_backpressure(self, reason: str) -> None:
        """Record one reader pause (plain dict + registry counter)."""
        self.backpressure[reason] += 1
        if self._obs_backpressure is not None:
            self._obs_backpressure[reason].inc()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        if self._obs_connections is not None:
            self._obs_connections.inc()
        transport = writer.transport
        if transport is not None:
            try:
                transport.set_write_buffer_limits(high=self._write_high_water)
            except (AttributeError, ValueError, RuntimeError):
                pass  # exotic transports without buffer limits
        lines = LineReader(reader, self._max_request_bytes)
        connection = Connection(writer)

        def reject(error: str, message: str) -> None:
            # A frame that never reaches _dispatch: no request id to echo.
            connection.send(encode_line(self._error_reply(None, error, message)))

        try:
            while True:
                # Slow-client backpressure: responses are piling up faster
                # than this client reads them — park the reader (only this
                # connection) until the write buffer drains.
                if (
                    transport is not None
                    and not writer.is_closing()
                    and transport.get_write_buffer_size() > self._write_high_water
                ):
                    self._count_backpressure("write_buffer")
                    try:
                        await writer.drain()
                    except (asyncio.CancelledError, ConnectionError):
                        break
                try:
                    line = await lines.readline()
                except (asyncio.CancelledError, ConnectionError):
                    # Server shutdown (handler task cancelled) or client
                    # reset: stop reading, settle in-flight requests below.
                    break
                if line is None:
                    break
                if line is OVERSIZE:
                    self.oversize_rejected += 1
                    if self._obs_oversize is not None:
                        self._obs_oversize.inc()
                    reject(
                        "request_too_large",
                        f"request line exceeded {self._max_request_bytes} bytes",
                    )
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    reject("protocol", f"malformed JSON line: {exc}")
                    continue
                if not isinstance(request, dict):
                    kind = type(request).__name__
                    reject("protocol", f"request must be a JSON object, got {kind}")
                    continue
                # Bounded pipelining: cap in-flight requests on this
                # connection; the reader parks here until one drains.
                if connection.inflight >= self._max_pipeline:
                    self._count_backpressure("pipeline")
                    await connection.wait_below(self._max_pipeline)
                connection.inflight += 1
                try:
                    self._accept(connection, request, line)
                except Exception as exc:
                    connection.send(encode_line(self._internal_reply(request, exc)))
                    connection.release()
        finally:
            # EOF still answers every request in flight before closing.
            try:
                await connection.wait_below(1)
            finally:
                connection.flush()
                writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError):
                pass  # loop teardown or client already gone


class LoginServer(JsonLinesServer):
    """A TCP front door over one store's async verification service.

    Parameters
    ----------
    store:
        The store to serve; a fresh
        :class:`~repro.serving.service.AsyncVerificationService` is built
        over it with the given batching knobs.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port — read
        :attr:`address` after :meth:`start` (how the tests and the
        self-hosted ``repro flood`` run).
    max_batch / flush_interval:
        Forwarded to the async service (size / deadline flush triggers).
    max_request_bytes / max_pipeline / write_high_water:
        The connection core's hardening knobs (see
        :class:`JsonLinesServer` and the module docstring).
    registry / tracer:
        Telemetry sinks, forwarded to the async service.  ``registry``
        defaults to the process registry (:func:`repro.obs.get_registry`);
        it backs the ``metrics`` op and the per-op request counters.
        ``tracer`` is off by default — pass a
        :class:`~repro.obs.SpanTracer` to record per-flush span trees
        served by the ``trace`` op (``repro flood --trace`` does this).
    """

    def __init__(
        self,
        store: PasswordStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 256,
        flush_interval: float = 0.0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_pipeline: int = DEFAULT_MAX_PIPELINE,
        write_high_water: int = DEFAULT_WRITE_HIGH_WATER,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        super().__init__(
            host,
            port,
            max_request_bytes,
            max_pipeline,
            write_high_water,
            registry if registry is not None else get_registry(),
        )
        self.tracer = tracer
        self.service = AsyncVerificationService(
            store,
            max_batch=max_batch,
            flush_interval=flush_interval,
            registry=self.registry,
            tracer=tracer,
        )
        self._obs_requests: Optional[dict] = {} if self.registry.enabled else None

    async def start(self) -> "LoginServer":
        """Bind and start accepting connections (returns self)."""
        await self._listen()
        return self

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections and decide any parked attempts."""
        await super().aclose()
        await self.service.drain()

    # -- request handling ----------------------------------------------------

    def _count_request(self, op: object) -> None:
        """Bump ``server_requests_total{op=...}`` (cached per op name)."""
        if self._obs_requests is None:
            return
        key = op if isinstance(op, str) else "invalid"
        counter = self._obs_requests.get(key)
        if counter is None:
            counter = self._obs_requests[key] = self.registry.counter(
                "server_requests_total",
                help="protocol requests handled, by op",
                op=key,
            )
        counter.inc()

    async def _dispatch(self, request: dict) -> dict:
        request_id = request.get("id")
        op = request.get("op")
        self._count_request(op)
        try:
            if op == "login":
                points = parse_points(request.get("points"))
                outcome = await self.service.login(str(request.get("user")), points)
                response = {"id": request_id, "ok": True, "status": outcome.status}
                if outcome.captcha:
                    response["captcha"] = True
                return response
            if op == "enroll":
                points = parse_points(request.get("points"))
                self.service.service.enroll(str(request.get("user")), points)
                return {"id": request_id, "ok": True, "status": "enrolled"}
            if op == "stats":
                response = {"id": request_id, "ok": True}
                response.update(self.service.stats_view())
                response["accounts"] = len(self.service.store.usernames)
                response["defense"] = self.service.store.defense.describe()
                return response
            if op == "metrics":
                return self._metrics_reply(request, self.registry)
            if op == "trace":
                limit = request.get("limit")
                spans = (
                    self.tracer.recent(limit if isinstance(limit, int) else None)
                    if self.tracer is not None
                    else []
                )
                return {"id": request_id, "ok": True, "spans": spans}
            if op == "ping":
                return {"id": request_id, "ok": True, "status": "pong"}
            return self._error_reply(request_id, "protocol", f"unknown op {op!r}")
        except ReproError as exc:
            return self._error_reply(request_id, type(exc).__name__, str(exc))
        except ValueError as exc:
            return self._error_reply(request_id, "protocol", str(exc))
