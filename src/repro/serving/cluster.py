"""Shard-per-process serving cluster: router, worker processes, live reshard.

The single-process :class:`~repro.serving.server.LoginServer` already sits
on a consistent-hash :class:`~repro.passwords.storage.ShardedBackend`, but
the GIL caps one process at ~100–150k logins/s regardless of core count.
This module turns the same pieces into a real cluster:

* **one worker process per shard** — each worker runs a stock
  :class:`LoginServer` over *its shard's backend exclusively* (opened via
  :func:`~repro.passwords.store.deployed_store` from the shard's persisted
  meta, or a synthetic in-memory population for soak benches), so shard
  ownership is a process boundary, not a lock;
* **a thin asyncio router** (:class:`ClusterRouter`) — speaks the same
  JSONL protocol to clients, hashes ``user`` with the *same* blake2b
  :class:`~repro.passwords.storage.ConsistentHashRing` the backend uses,
  and relays ``login``/``enroll`` over one persistent upstream
  connection per worker.  A relay parses the client frame once (the
  check that keeps the hostile-frame replies), forwards the client's raw
  bytes with a per-upstream ``"id":N`` appended as the last key, and
  splices the client's ``id`` back onto the worker's reply in place of
  its ``{"id":N`` prefix — no re-encode, no reply parse, no task.  Reply
  bytes are therefore identical to a direct :class:`LoginServer`'s.  A
  worker reply without that exact prefix breaks the protocol and drops
  the worker's connection.  A lost worker answers each relay in flight
  to it with an ``upstream`` error under the client's id.  ``stats`` /
  ``metrics`` / ``trace`` fan out to every worker and come back merged
  (counters summed, histogram buckets and sample rings merged through
  :meth:`~repro.obs.MetricsRegistry.merge`);
* **online resharding** (:meth:`ServingCluster.reshard`) — grow the ring
  (4→8 in the drill) under live traffic: new workers spawn on the new
  shard files, then one old shard at a time is gated (relays for its
  accounts park at the router), drained, migrated with
  ``rebalance(clear=False)``, and released onto the new ring.  An
  account's lockout/throttle state has exactly one authoritative home at
  every instant, so nothing is lost — asserted against a single-backend
  reference in the tests.

The router is a second dispatcher on the server's connection core
(:class:`~repro.serving.server.JsonLinesServer`), so it inherits the same
hardening contracts (request-size limit, bounded pipelining, slow-client
backpressure, a structured reply to every frame) and knob validation.
Front doors: ``repro cluster URI`` and ``repro flood --cluster``; the soak
benchmark is ``make cluster-bench`` (``benchmarks/test_bench_cluster.py``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ClusterError
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.passwords.storage import (
    ConsistentHashRing,
    ShardedBackend,
    backend_from_uri,
    rebalance,
)
from repro.serving.server import (
    DEFAULT_MAX_PIPELINE,
    DEFAULT_MAX_REQUEST_BYTES,
    DEFAULT_WRITE_HIGH_WATER,
    Connection,
    JsonLinesServer,
    LoginServer,
    encode_line,
)

__all__ = [
    "ClusterRouter",
    "ReshardReport",
    "ServingCluster",
    "WorkerHandle",
    "WorkerSpec",
    "cluster_username",
    "default_cluster_workers",
    "merge_stats",
    "synthetic_points",
]

#: Room a relayed frame needs beyond the client's bytes for the appended
#: ``,"id":N`` (N below 10**18).
_RELAY_ID_BYTES = 24

#: Worker startup budget (seconds) — a soak worker enrolls its slice of a
#: million-account population before reporting ready.
_WORKER_START_TIMEOUT = 600.0


def default_cluster_workers() -> int:
    """Worker-process count cluster benches use: ``$CLUSTER_WORKERS`` or 4."""
    value = os.environ.get("CLUSTER_WORKERS", "")
    try:
        parsed = int(value)
    except ValueError:
        return 4
    return parsed if parsed > 0 else 4


def cluster_username(index: int) -> str:
    """The synthetic population's deterministic account name for *index*."""
    return f"u{index}"


def synthetic_points(
    index: int, seed: int, width: int, height: int, clicks: int = 5
) -> List["Point"]:
    """Deterministic click-points for synthetic account *index*.

    Seeded by ``(seed, index)`` so any process — an enrolling worker, the
    flood driver building attempts, a reference replay — regenerates the
    same password without shipping a million-entry dict around.  Points
    keep a margin from the image edge so within-tolerance jitter stays in
    the domain.
    """
    from repro.geometry.point import Point

    rng = np.random.default_rng((seed, index))
    margin = 30
    xs = rng.integers(margin, width - margin, size=clicks)
    ys = rng.integers(margin, height - margin, size=clicks)
    return [Point.xy(int(x), int(y)) for x, y in zip(xs, ys)]


@dataclass
class WorkerSpec:
    """Everything a spawned worker needs to build its store and serve.

    Picklable by construction — it crosses the ``multiprocessing`` spawn
    boundary.  Exactly one of two population modes applies:

    * ``uri`` set — the worker opens that durable backend and resumes it
      via :func:`~repro.passwords.store.deployed_store` (the ``repro
      cluster`` / reshard-drill shape; the worker owns the shard
      exclusively, the parent only touches it inside a gated cutover);
    * ``uri=None`` — the worker builds an in-memory store and enrolls its
      ring slice of a ``users``-account synthetic population (the soak
      shape: enrollment itself parallelizes across workers).
    """

    index: int
    uri: Optional[str] = None
    host: str = "127.0.0.1"
    # synthetic population (uri=None):
    shard_count: int = 1
    replicas: int = 64
    users: int = 0
    seed: int = 2008
    scheme: str = "centered"
    tolerance_px: int = 9
    lockout_failures: Optional[int] = None
    # serving knobs, forwarded to the worker's LoginServer:
    max_batch: int = 256
    flush_interval: float = 0.0
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    max_pipeline: int = DEFAULT_MAX_PIPELINE


def _synthetic_store(spec: WorkerSpec):
    """Build this worker's in-memory store and enroll its population slice."""
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.policy import LockoutPolicy
    from repro.passwords.store import PasswordStore, scheme_named
    from repro.study.image import cars_image

    image = cars_image()
    system = PassPointsSystem(
        image=image, scheme=scheme_named(spec.scheme, spec.tolerance_px)
    )
    store = PasswordStore(
        system=system, policy=LockoutPolicy(max_failures=spec.lockout_failures)
    )
    ring = ConsistentHashRing(spec.shard_count, spec.replicas)
    # Bulk-enroll the whole ring slice through the store's group-commit
    # path: one put_many/put_throttle_many instead of two backend writes
    # per account — the enrollment half of the soak's startup time.
    store.enroll_many(
        [
            (username, synthetic_points(index, spec.seed, image.width, image.height))
            for index in range(spec.users)
            if ring.index_for(username := cluster_username(index)) == spec.index
        ]
    )
    return store


def _worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: own one shard, serve it over TCP until killed.

    Reports ``("ready", host, port)`` over *conn* once the ephemeral-port
    server is accepting, or ``("error", message)`` if construction fails —
    the parent's :func:`_spawn_workers` turns the latter into a
    :class:`~repro.errors.ClusterError`.
    """
    try:
        if spec.uri is not None:
            from repro.passwords.store import deployed_store

            store = deployed_store(backend_from_uri(spec.uri))
        else:
            store = _synthetic_store(spec)
        server = LoginServer(
            store,
            host=spec.host,
            port=0,
            max_batch=spec.max_batch,
            flush_interval=spec.flush_interval,
            max_request_bytes=spec.max_request_bytes,
            max_pipeline=spec.max_pipeline,
        )

        async def run() -> None:
            await server.start()
            host, port = server.address
            conn.send(("ready", host, port))
            await server.serve_forever()

        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    except Exception as exc:  # surface startup failures to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass


@dataclass
class WorkerHandle:
    """Address and liveness of one spawned shard worker."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    host: str
    port: int

    @property
    def address(self) -> Tuple[str, int]:
        """The worker server's ``(host, port)``."""
        return (self.host, self.port)


def _spawn_workers(specs: Sequence[WorkerSpec]) -> List[WorkerHandle]:
    """Spawn every worker in parallel and block until all report ready.

    Blocking by design — callers on an event loop run it through
    ``run_in_executor`` (reshard spawns new workers while the router keeps
    serving).  The spawn context is explicit: forking a process that
    carries a live event loop and socket fds would leak them into
    children.
    """
    ctx = multiprocessing.get_context("spawn")
    started = []
    for spec in specs:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_worker_main, args=(spec, child_conn), daemon=True)
        process.start()
        child_conn.close()
        started.append((spec, parent_conn, process))
    handles: List[WorkerHandle] = []
    errors: List[str] = []
    for spec, parent_conn, process in started:
        deadline = time.monotonic() + _WORKER_START_TIMEOUT
        while not parent_conn.poll(0.1):
            if not process.is_alive():
                errors.append(f"worker {spec.index} died during startup")
                break
            if time.monotonic() > deadline:
                errors.append(f"worker {spec.index} startup timed out")
                break
        else:
            try:
                message = parent_conn.recv()
            except EOFError:
                errors.append(f"worker {spec.index} died during startup")
                continue
            if message[0] == "ready":
                handles.append(WorkerHandle(spec.index, process, message[1], message[2]))
            else:
                errors.append(f"worker {spec.index}: {message[1]}")
    if errors:
        for _, _, process in started:
            if process.is_alive():
                process.terminate()
        raise ClusterError("cluster startup failed: " + "; ".join(errors))
    return handles


def _stop_workers(handles: Sequence[WorkerHandle]) -> None:
    """Terminate worker processes and reap them (blocking; executor-run)."""
    for handle in handles:
        if handle.process.is_alive():
            handle.process.terminate()
    for handle in handles:
        handle.process.join(timeout=10)


def merge_stats(replies: Sequence[dict]) -> dict:
    """Merge per-worker ``stats`` payloads into one cluster-wide view.

    Numeric counters sum across workers; ``largest_batch`` takes the max;
    ``mean_batch`` is recomputed from the merged totals (a mean of means
    would weight idle workers equally with busy ones); ``defense``
    describes the deployment, identical on every worker, so the first
    reply's value stands.
    """
    summed = (
        "submitted",
        "decided",
        "pending_count",
        "flushes",
        "size_flushes",
        "deadline_flushes",
        "throttled",
        "captcha_challenged",
        "accounts",
    )
    merged: dict = {key: 0 for key in summed}
    largest = 0
    defense: Optional[dict] = None
    for reply in replies:
        for key in summed:
            merged[key] += int(reply.get(key, 0) or 0)
        largest = max(largest, int(reply.get("largest_batch", 0) or 0))
        if defense is None:
            defense = reply.get("defense")
    merged["largest_batch"] = largest
    merged["mean_batch"] = (
        round(merged["decided"] / merged["flushes"], 2) if merged["flushes"] else 0.0
    )
    merged["defense"] = defense
    return merged


class _Upstream(asyncio.Protocol):
    """One persistent JSONL connection from the router to a shard worker.

    Pipelined requests multiplex over the single connection: each outgoing
    frame carries a fresh upstream-local ``id``, and the worker's replies
    (out of order — every request is its own task over there) are matched
    back through ``_pending``.  Client-chosen ids never cross the upstream
    boundary, so two clients reusing ``id: 1`` cannot collide.

    A ``_pending`` entry is one of two things:

    * a relayed ``login``/``enroll`` (:meth:`relay`): a plain
      ``(client connection, encoded client id)`` pair.  Its reply is
      spliced — the worker's ``{"id":N`` prefix is replaced by
      ``{"id":<client id>`` — and queued on the client connection without
      a parse or a re-encode;
    * a fan-out request (:meth:`request`): a future that receives the
      parsed reply.

    Lines written during one event-loop pass leave in one transport
    write.  When the connection is lost, or the worker sends a reply
    without its ``{"id":N,`` prefix, every relay in flight is answered
    with an ``upstream`` error and every future fails with
    :class:`~repro.errors.ClusterError`.
    """

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.host = host
        self.port = port
        self._pending: Dict[int, object] = {}
        self._next_id = 0
        self._transport: Optional[asyncio.Transport] = None
        self._out: Optional[Connection] = None
        self._partial: List[bytes] = []
        self._closed = False

    @property
    def inflight(self) -> int:
        """Requests forwarded but not yet answered."""
        return len(self._pending)

    async def connect(self) -> None:
        """Open the persistent connection; replies arrive via callbacks."""
        await asyncio.get_running_loop().create_connection(
            lambda: self, self.host, self.port
        )

    # -- asyncio.Protocol callbacks -------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._out = Connection(transport)

    def data_received(self, data: bytes) -> None:
        if b"\n" not in data:
            self._partial.append(data)
            return
        if self._partial:
            self._partial.append(data)
            data = b"".join(self._partial)
            self._partial.clear()
        *lines, tail = data.split(b"\n")
        if tail:
            self._partial.append(tail)
        for raw in lines:
            self._answer(raw)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        message = f"worker {self.index} connection lost"
        for entry in pending.values():
            if isinstance(entry, asyncio.Future):
                if not entry.done():
                    entry.set_exception(ClusterError(message))
            else:
                connection, client_id = entry
                connection.send(_upstream_error(client_id, message))
                connection.release()

    # -- forwarding -------------------------------------------------------------

    def relay(self, connection: Connection, client_id: bytes, frame: bytes) -> None:
        """Forward one client frame (a JSON object's raw bytes, unparsed).

        The upstream id is appended as the frame's last key — the
        worker's ``json.loads`` keeps the last of duplicate keys — and the
        reply goes straight back to *connection* under *client_id* (the
        client's ``id``, already JSON-encoded).
        """
        if self._closed:
            connection.send(
                _upstream_error(client_id, f"worker {self.index} connection closed")
            )
            connection.release()
            return
        uid = self._next_id
        self._next_id += 1
        self._pending[uid] = (connection, client_id)
        self._out.send(b'%s,"id":%d}\n' % (frame[:-1], uid))

    async def request(self, payload: dict) -> dict:
        """Forward one frame and await its parsed response (fan-out ops)."""
        if self._closed or self._transport is None:
            raise ClusterError(f"worker {self.index} connection closed")
        uid = self._next_id
        self._next_id += 1
        frame = dict(payload)
        frame["id"] = uid
        future = asyncio.get_running_loop().create_future()
        self._pending[uid] = future
        self._out.send(encode_line(frame))
        return await future

    def _answer(self, raw: bytes) -> None:
        """Route one worker reply line to whoever waits for it.

        Every worker reply starts with the compact ``{"id":N,`` prefix the
        server's encoder writes; a line without it is a protocol fault of
        the worker (see :meth:`_fault`).
        """
        comma = raw.find(b",", 6)
        digits = raw[6:comma]
        if comma <= 6 or not raw.startswith(b'{"id":') or not digits.isdigit():
            self._fault(raw)
            return
        uid = int(digits)
        entry = self._pending.pop(uid, None)
        if entry is None:
            return
        if isinstance(entry, asyncio.Future):
            try:
                response = json.loads(raw)
            except ValueError:
                self._pending[uid] = entry  # connection_lost fails it
                self._fault(raw)
                return
            if not entry.done():
                entry.set_result(response)
            return
        connection, client_id = entry
        connection.send(b'{"id":' + client_id + raw[comma:] + b"\n")
        connection.release()

    def _fault(self, raw: bytes) -> None:
        """Drop a worker that broke the reply protocol: closing the socket
        makes :meth:`connection_lost` answer every relay in flight with an
        ``upstream`` error and fail every future."""
        logging.getLogger(__name__).error(
            "worker %d sent a malformed reply: %.80r", self.index, raw
        )
        self._closed = True
        self._transport.close()

    async def drain_inflight(self) -> None:
        """Wait until no forwarded request is awaiting its response."""
        while self._pending:
            await asyncio.sleep(0.002)

    async def aclose(self) -> None:
        """Close the upstream socket (fails whatever is still in flight)."""
        if self._closed or self._transport is None:
            self._closed = True
            return
        self._out.flush()
        self._closed = True
        self._transport.close()
        await asyncio.sleep(0)  # let connection_lost answer the stragglers


def _upstream_error(client_id: bytes, message: str) -> bytes:
    """The ``upstream`` error line for a relay, under its encoded client id."""
    return (
        b'{"id":' + client_id + b',"ok":false,"error":"upstream","message":'
        + json.dumps(message).encode() + b"}\n"
    )


def _encode_id(request_id: object) -> bytes:
    """A client ``id`` exactly as the reply encoder writes it."""
    if type(request_id) is int:
        return b"%d" % request_id
    return json.dumps(request_id, separators=(",", ":")).encode()


class ClusterRouter(JsonLinesServer):
    """Thin asyncio front door that routes JSONL frames by the shard ring.

    Clients speak the exact :class:`~repro.serving.server.LoginServer`
    protocol.  ``login``/``enroll`` hash ``user`` on the shared
    :class:`~repro.passwords.storage.ConsistentHashRing` and are relayed
    to that shard's worker without a task (see :meth:`_Upstream.relay`);
    a frame with no room left under ``max_request_bytes`` for the
    appended upstream id gets ``request_too_large``, because the worker
    frames with the same limit.  ``stats``/``metrics``/``trace`` fan out
    to every worker and reply merged; ``ping`` answers locally (with a
    ``workers`` count).  Client connections run on the server's connection core
    (:class:`~repro.serving.server.JsonLinesServer`): size-limited framing
    (oversize → structured ``request_too_large``), an in-flight cap per
    connection, and write-buffer backpressure for slow readers — pauses
    are counted in :attr:`backpressure`.  The router publishes no metrics
    of its own; ``metrics`` merges the workers' registries.

    During a reshard (driven by :class:`ServingCluster`) the router holds
    two rings: accounts on already-migrated old shards route through the
    new ring, relays for accounts on the shard currently in its cutover
    window park on that shard's gate (and are re-routed when
    :meth:`complete_shard` releases it), everyone else stays on the old
    ring.  The gate is the "brief per-shard cutover" the drill measures.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_pipeline: int = DEFAULT_MAX_PIPELINE,
        write_high_water: int = DEFAULT_WRITE_HIGH_WATER,
    ) -> None:
        super().__init__(
            host,
            port,
            max_request_bytes,
            max_pipeline,
            write_high_water,
            NULL_REGISTRY,
        )
        self._replicas = replicas
        self._upstreams: List[_Upstream] = []
        self._ring: Optional[ConsistentHashRing] = None
        # resharding state (None/empty outside a drill):
        self._next_upstreams: Optional[List[_Upstream]] = None
        self._next_ring: Optional[ConsistentHashRing] = None
        self._migrated: Set[int] = set()
        #: Relays parked per shard in its cutover window.
        self._parked: Dict[int, List[tuple]] = {}

    @property
    def worker_count(self) -> int:
        """Upstream workers currently routed to."""
        return len(self._upstreams)

    async def start(self, workers: Sequence[Tuple[str, int]]) -> "ClusterRouter":
        """Connect an upstream per worker, build the ring, bind the door."""
        if not workers:
            raise ClusterError("router needs at least one worker")
        self._upstreams = [
            _Upstream(index, host, port) for index, (host, port) in enumerate(workers)
        ]
        for upstream in self._upstreams:
            await upstream.connect()
        self._ring = ConsistentHashRing(len(self._upstreams), self._replicas)
        await self._listen()
        return self

    async def aclose(self) -> None:
        """Stop accepting clients and close every upstream connection."""
        await super().aclose()
        for upstream in list(self._upstreams) + list(self._next_upstreams or ()):
            await upstream.aclose()

    # -- routing -------------------------------------------------------------

    def _accept(self, connection: Connection, request: dict, line: bytes) -> None:
        op = request.get("op")
        if op != "login" and op != "enroll":
            super()._accept(connection, request, line)
            return
        client_id = _encode_id(request.get("id"))
        if b"\x00" in line:
            # UTF-16/32 JSON (every such encoding of "{" holds a NUL byte):
            # the id cannot be spliced into those bytes, so forward the
            # parsed frame as UTF-8 instead.
            line = json.dumps(request, separators=(",", ":")).encode()
        limit = self._max_request_bytes - _RELAY_ID_BYTES
        if len(line) > limit:
            # The worker frames with the same limit; with the upstream id
            # appended this line could overrun it and never be answered.
            self.oversize_rejected += 1
            message = f"request line exceeded {limit} bytes"
            reply = self._error_reply(None, "request_too_large", message)
            connection.send(encode_line(reply))
            connection.release()
            return
        self._relay(str(request.get("user")), (connection, client_id, line))

    def _relay(self, username: str, relay: tuple) -> None:
        """Forward one ``(connection, client id, frame)`` relay to the
        upstream owning *username*, or park it while its shard cuts over."""
        index = self._ring.index_for(username)
        if self._next_ring is None:
            self._upstreams[index].relay(*relay)
        elif index in self._migrated:
            upstream = self._next_upstreams[self._next_ring.index_for(username)]
            upstream.relay(*relay)
        elif index in self._parked:
            self._parked[index].append((username, relay))
        else:
            self._upstreams[index].relay(*relay)

    def _fanout_targets(self) -> List[_Upstream]:
        """Every upstream that currently owns any account."""
        if self._next_upstreams is None:
            return list(self._upstreams)
        old = [
            upstream
            for index, upstream in enumerate(self._upstreams)
            if index not in self._migrated
        ]
        return old + list(self._next_upstreams)

    # -- reshard cooperation (driven by ServingCluster) ----------------------

    async def begin_reshard(self, workers: Sequence[Tuple[str, int]]) -> None:
        """Connect upstreams to the new worker set; routing is unchanged
        until the first :meth:`cutover`."""
        if self._next_ring is not None:
            raise ClusterError("a reshard is already in progress")
        next_upstreams = [
            _Upstream(index, host, port) for index, (host, port) in enumerate(workers)
        ]
        for upstream in next_upstreams:
            await upstream.connect()
        self._next_upstreams = next_upstreams
        self._next_ring = ConsistentHashRing(len(next_upstreams), self._replicas)
        self._migrated = set()

    async def cutover(self, shard_index: int) -> None:
        """Open shard *shard_index*'s cutover window: park new requests
        for its accounts and wait until its in-flight requests drain —
        after this returns, the parent may migrate the shard's backend."""
        self._parked[shard_index] = []
        await self._upstreams[shard_index].drain_inflight()

    def complete_shard(self, shard_index: int) -> None:
        """Close the cutover window: the shard's accounts now route
        through the new ring; parked requests are forwarded there."""
        self._migrated.add(shard_index)
        for username, relay in self._parked.pop(shard_index):
            self._relay(username, relay)

    async def finish_reshard(self) -> None:
        """Swap the new ring in as current and drop the old upstreams."""
        old = self._upstreams
        self._upstreams = self._next_upstreams
        self._ring = self._next_ring
        self._next_upstreams = None
        self._next_ring = None
        self._migrated = set()
        for upstream in old:
            await upstream.aclose()

    # -- client handling -----------------------------------------------------

    async def _dispatch(self, request: dict) -> dict:
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "stats":
                replies = await self._fan_out({"op": "stats"})
                response = merge_stats(replies)
                response["id"] = request_id
                response["ok"] = True
                response["workers"] = len(replies)
                return response
            if op == "metrics":
                replies = await self._fan_out({"op": "metrics", "samples": True})
                registry = MetricsRegistry()
                for reply in replies:
                    registry.merge(reply.get("metrics") or {})
                return self._metrics_reply(request, registry)
            if op == "trace":
                limit = request.get("limit")
                frame: dict = {"op": "trace"}
                if isinstance(limit, int):
                    frame["limit"] = limit
                replies = await self._fan_out(frame)
                spans = [span for reply in replies for span in reply.get("spans", [])]
                spans.sort(key=lambda span: span.get("start") or 0.0)
                if isinstance(limit, int):
                    spans = spans[-limit:]
                return {"id": request_id, "ok": True, "spans": spans}
            if op == "ping":
                return {
                    "id": request_id,
                    "ok": True,
                    "status": "pong",
                    "workers": self.worker_count,
                }
            return self._error_reply(request_id, "protocol", f"unknown op {op!r}")
        except ClusterError as exc:
            return self._error_reply(request_id, "upstream", str(exc))

    async def _fan_out(self, payload: dict) -> List[dict]:
        """One request per live upstream; drops non-ok replies."""
        targets = self._fanout_targets()
        replies = await asyncio.gather(
            *(upstream.request(dict(payload)) for upstream in targets)
        )
        return [reply for reply in replies if reply.get("ok")]


@dataclass
class ReshardReport:
    """Outcome of one live reshard: what moved and how brief the windows were."""

    old_shards: int
    new_shards: int
    moved: List[int] = field(default_factory=list)
    cutover_seconds: List[float] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def accounts_moved(self) -> int:
        """Total accounts migrated across every old shard."""
        return sum(self.moved)

    @property
    def max_cutover_seconds(self) -> float:
        """The longest per-shard window during which its accounts parked."""
        return max(self.cutover_seconds, default=0.0)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"reshard {self.old_shards}->{self.new_shards}: "
            f"{self.accounts_moved} accounts in {self.total_seconds:.2f}s, "
            f"max cutover window {self.max_cutover_seconds * 1000.0:.1f}ms"
        )


def _copy_meta(template_uri: str, new_uris: Sequence[str]) -> None:
    """Stamp the deployment meta of *template_uri* onto each new shard.

    Runs before the new workers spawn: ``deployed_store`` refuses a
    backend without meta, and the workers open their (still empty) shards
    immediately.  Blocking; executor-run during a live reshard.
    """
    source = backend_from_uri(template_uri)
    try:
        items = source.meta_items()
    finally:
        source.close()
    for uri in new_uris:
        dest = backend_from_uri(uri)
        try:
            for key, value in items:
                dest.put_meta(key, value)
        finally:
            dest.close()


def _migrate_shard(old_uri: str, new_uris: Sequence[str], replicas: int) -> int:
    """Copy one gated old shard's accounts + throttles into the new layout.

    Opens its own connections (the old worker still holds the shard, but
    its traffic is drained and gated; SQLite WAL tolerates the second
    reader) and routes every account through a fresh
    :class:`~repro.passwords.storage.ShardedBackend` over the new shard
    files — ``rebalance(clear=False)`` because earlier shards' migrations
    already live there.  Blocking; executor-run.
    """
    source = backend_from_uri(old_uri)
    dest = ShardedBackend(
        [backend_from_uri(uri) for uri in new_uris], replicas=replicas
    )
    try:
        return rebalance(source, dest, clear=False)
    finally:
        source.close()
        dest.close()


class ServingCluster:
    """N shard-worker processes behind one :class:`ClusterRouter`.

    Two construction shapes:

    * ``ServingCluster(shard_uris=[...])`` — one worker per durable shard
      URI (each must carry deployment meta from ``repro store create``);
      this shape supports :meth:`reshard`.
    * ``ServingCluster(workers=4, users=1_000_000)`` — synthetic soak:
      each worker builds an in-memory store and enrolls its ring slice of
      the deterministic population (see :func:`synthetic_points`), so
      enrollment itself runs in parallel across processes.

    Async lifecycle: ``await start()``, talk to :attr:`address`, ``await
    aclose()``.  Blocking work (process spawn, SQLite migration) runs in
    the default executor so the router keeps serving during a live
    reshard.
    """

    def __init__(
        self,
        shard_uris: Optional[Sequence[str]] = None,
        *,
        workers: int = 0,
        users: int = 0,
        seed: int = 2008,
        scheme: str = "centered",
        tolerance_px: int = 9,
        lockout_failures: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        max_batch: int = 256,
        flush_interval: float = 0.0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_pipeline: int = DEFAULT_MAX_PIPELINE,
        write_high_water: int = DEFAULT_WRITE_HIGH_WATER,
    ) -> None:
        if (shard_uris is None) == (workers <= 0):
            raise ClusterError(
                "pass exactly one of shard_uris=[...] or workers=N (with users=M)"
            )
        self._shard_uris = list(shard_uris) if shard_uris is not None else None
        worker_count = len(self._shard_uris) if self._shard_uris else workers
        self._replicas = replicas
        self._host = host
        self._port = port
        self._write_high_water = write_high_water
        self._specs = [
            WorkerSpec(
                index=index,
                uri=self._shard_uris[index] if self._shard_uris else None,
                host=host,
                shard_count=worker_count,
                replicas=replicas,
                users=users,
                seed=seed,
                scheme=scheme,
                tolerance_px=tolerance_px,
                lockout_failures=lockout_failures,
                max_batch=max_batch,
                flush_interval=flush_interval,
                max_request_bytes=max_request_bytes,
                max_pipeline=max_pipeline,
            )
            for index in range(worker_count)
        ]
        self._handles: List[WorkerHandle] = []
        self._router: Optional[ClusterRouter] = None

    @property
    def worker_count(self) -> int:
        """Worker processes currently serving shards."""
        return len(self._handles) if self._handles else len(self._specs)

    @property
    def address(self) -> Tuple[str, int]:
        """The router's client-facing ``(host, port)``."""
        if self._router is None:
            raise ClusterError("cluster not started")
        return self._router.address

    @property
    def router(self) -> ClusterRouter:
        """The live router (valid after :meth:`start`)."""
        if self._router is None:
            raise ClusterError("cluster not started")
        return self._router

    async def start(self) -> "ServingCluster":
        """Spawn the workers (in parallel), then start the router."""
        # Built first: a bad knob raises before any worker is spawned.
        router = ClusterRouter(
            host=self._host,
            port=self._port,
            replicas=self._replicas,
            max_request_bytes=self._specs[0].max_request_bytes,
            max_pipeline=self._specs[0].max_pipeline,
            write_high_water=self._write_high_water,
        )
        loop = asyncio.get_event_loop()
        self._handles = await loop.run_in_executor(None, _spawn_workers, self._specs)
        try:
            await router.start([handle.address for handle in self._handles])
        except Exception:
            await loop.run_in_executor(None, _stop_workers, self._handles)
            raise
        self._router = router
        return self

    async def reshard(self, new_shard_uris: Sequence[str]) -> ReshardReport:
        """Grow onto *new_shard_uris* under live traffic, one shard at a time.

        Sequence per old shard: gate its accounts at the router, wait for
        in-flight requests to drain, ``rebalance(clear=False)`` its
        records + throttle state into the new layout, release the gate
        onto the new ring.  Every account has exactly one authoritative
        backend at every instant, so no lockout/throttle transition is
        lost — the drill in ``tests/test_cluster.py`` asserts this against
        a single-backend reference.  Returns a :class:`ReshardReport` with
        per-shard cutover windows.
        """
        if self._shard_uris is None:
            raise ClusterError(
                "resharding requires durable shard URIs (synthetic clusters "
                "have no portable state to migrate)"
            )
        if self._router is None:
            raise ClusterError("cluster not started")
        new_uris = list(new_shard_uris)
        if not new_uris:
            raise ClusterError("reshard needs at least one new shard URI")
        loop = asyncio.get_event_loop()
        begin = time.perf_counter()
        await loop.run_in_executor(None, _copy_meta, self._shard_uris[0], new_uris)
        base = self._specs[0]
        new_specs = [
            replace(base, index=index, uri=uri, shard_count=len(new_uris))
            for index, uri in enumerate(new_uris)
        ]
        new_handles = await loop.run_in_executor(None, _spawn_workers, new_specs)
        await self._router.begin_reshard([handle.address for handle in new_handles])
        report = ReshardReport(old_shards=len(self._shard_uris), new_shards=len(new_uris))
        for index, old_uri in enumerate(self._shard_uris):
            window_begin = time.perf_counter()
            await self._router.cutover(index)
            moved = await loop.run_in_executor(
                None, _migrate_shard, old_uri, new_uris, self._replicas
            )
            self._router.complete_shard(index)
            report.cutover_seconds.append(time.perf_counter() - window_begin)
            report.moved.append(moved)
        await self._router.finish_reshard()
        old_handles = self._handles
        self._handles = new_handles
        self._specs = new_specs
        self._shard_uris = new_uris
        await loop.run_in_executor(None, _stop_workers, old_handles)
        report.total_seconds = time.perf_counter() - begin
        return report

    async def aclose(self) -> None:
        """Close the router, then terminate and reap every worker."""
        if self._router is not None:
            await self._router.aclose()
            self._router = None
        if self._handles:
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(None, _stop_workers, self._handles)
            self._handles = []
