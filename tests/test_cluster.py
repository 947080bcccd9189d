"""Cluster-serving tests: ring routing, hardening, reshard correctness.

The ISSUE-9 acceptance criteria live here:

* the router's :class:`~repro.passwords.storage.ConsistentHashRing` places
  accounts exactly where :class:`~repro.passwords.storage.ShardedBackend`
  does, so a worker process and the backend agree on shard ownership;
* the hardening contracts hold — an oversize request line yields a
  structured ``request_too_large`` error on a *surviving* connection, deep
  pipelining hits the in-flight cap (counted), and a slow reader triggers
  write-buffer backpressure without stalling other connections;
* a live reshard (2→4 here; the 4→8 drill runs in
  ``benchmarks/test_bench_cluster.py``) under a concurrent closed-loop
  flood loses no decision and no lockout/throttle transition: every
  account's observed status sequence equals a single-backend scalar
  replay, and the migrated throttle counters match it exactly;
* ``rebalance(clear=False)`` interleaved with live logins (the in-process
  property test) never contradicts the single-backend reference and never
  moves a failure counter backwards;
* the router's relay is transparent — reply bytes equal a direct
  ``LoginServer``'s for a table of ids and frames — and its failure
  paths hold: a SIGKILLed worker answers each relay in flight to it with
  exactly one ``upstream`` error while the other shard decides like the
  scalar reference, and a half-closed client still gets every reply.

Spawned-worker tests use the real ``multiprocessing`` spawn path, so each
costs ~1–2 s of worker startup; they are kept few and load-bearing.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.centered import CenteredDiscretization
from repro.errors import ClusterError, LockoutError, ParameterError, StoreError
from repro.geometry.point import Point
from repro.obs import MetricsRegistry
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import LockoutPolicy
from repro.passwords.storage import (
    ConsistentHashRing,
    ShardedBackend,
    backend_from_uri,
    rebalance,
)
from repro.passwords.store import PasswordStore, deployed_store, scheme_named
from repro.serving import (
    ClusterRouter,
    LineReader,
    LoginServer,
    OVERSIZE,
    ServingCluster,
    cluster_username,
    merge_stats,
    synthetic_points,
)
from repro.study.image import cars_image


def _centered_system():
    return PassPointsSystem(
        image=cars_image(), scheme=CenteredDiscretization.for_pixel_tolerance(2, 9)
    )


def _wire(points):
    return [[int(p.x), int(p.y)] for p in points]


def _wrong(points):
    return [Point.xy(int(p.x) - 25, int(p.y) + 25) for p in points]


async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


# -- ring ---------------------------------------------------------------------


def test_ring_matches_sharded_backend():
    """Router-side ring placement == backend placement, key for key."""
    backend = ShardedBackend([backend_from_uri("memory:") for _ in range(5)])
    ring = ConsistentHashRing(5)
    for index in range(500):
        username = cluster_username(index)
        assert ring.index_for(username) == backend.shard_index_for(username)
    backend.close()


def test_ring_validates_shard_count():
    with pytest.raises(StoreError):
        ConsistentHashRing(0)


def test_synthetic_points_deterministic_and_in_bounds():
    image = cars_image()
    first = synthetic_points(7, 2008, image.width, image.height)
    again = synthetic_points(7, 2008, image.width, image.height)
    assert _wire(first) == _wire(again)
    for p in first:
        assert 0 <= int(p.x) < image.width and 0 <= int(p.y) < image.height
    other = synthetic_points(8, 2008, image.width, image.height)
    assert _wire(first) != _wire(other)


# -- LineReader framing -------------------------------------------------------


def _feed_reader(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


async def test_line_reader_splits_lines_across_chunks():
    reader = _feed_reader(b"alpha\nbe", b"ta\ngam", b"ma")
    lines = LineReader(reader, max_line_bytes=64)
    assert await lines.readline() == b"alpha"
    assert await lines.readline() == b"beta"
    # Unterminated final line is still delivered at EOF.
    assert await lines.readline() == b"gamma"
    assert await lines.readline() is None


async def test_line_reader_oversize_preserves_tail():
    """An oversize line is consumed through its newline; the next good
    line on the same connection parses cleanly."""
    big = b"x" * 100
    reader = _feed_reader(big + b"\n" + b'{"op":"ping"}\n')
    lines = LineReader(reader, max_line_bytes=16)
    assert (await lines.readline()) is OVERSIZE
    assert await lines.readline() == b'{"op":"ping"}'
    assert await lines.readline() is None


async def test_line_reader_limit_is_inclusive():
    exact = b"y" * 16
    reader = _feed_reader(exact + b"\n" + b"z" * 17 + b"\n")
    lines = LineReader(reader, max_line_bytes=16)
    assert await lines.readline() == exact
    assert (await lines.readline()) is OVERSIZE
    assert await lines.readline() is None


# -- server hardening ---------------------------------------------------------


def _server_store():
    store = PasswordStore(system=_centered_system())
    points = [Point.xy(40 + 60 * i, 50 + 40 * i) for i in range(5)]
    store.create_account("alice", points)
    return store, points


#: The two front doors share one connection core; every hardening test
#: runs against both.  ``router`` is a ClusterRouter in front of an
#: in-process LoginServer, so it needs no spawned workers.
DOORS = ("server", "router")


async def _start_door(kind, store, knobs=None, batching=None):
    """Start door *kind* over *store*: ``(door, backing server, close)``.

    *knobs* go to the door under test, *batching* to the LoginServer.
    """
    knobs, batching = knobs or {}, batching or {}
    if kind == "server":
        server = await LoginServer(store, **knobs, **batching).start()
        return server, server, server.aclose
    server = await LoginServer(store, **batching).start()
    router = await ClusterRouter(**knobs).start([server.address])

    async def close():
        await router.aclose()
        await server.aclose()

    return router, server, close


@pytest.mark.parametrize("door", DOORS)
async def test_server_oversize_gets_structured_error(door):
    """Oversize input is a per-request failure, not a dead connection."""
    store, points = _server_store()
    front, _, close = await _start_door(door, store, {"max_request_bytes": 256})
    reader, writer = await asyncio.open_connection(*front.address)

    writer.write(b"A" * 1000 + b"\n")
    await writer.drain()
    response = json.loads(await reader.readline())
    assert response["ok"] is False
    assert response["error"] == "request_too_large"
    assert "256" in response["message"]

    # The connection survived and serves the next request.
    response = await _request(
        reader, writer,
        {"op": "login", "id": 2, "user": "alice", "points": _wire(points)},
    )
    assert response == {"id": 2, "ok": True, "status": "accept"}
    assert front.oversize_rejected == 1
    writer.close()
    await close()


async def test_server_rejects_bad_hardening_knobs():
    store, _ = _server_store()
    for knob in ("max_request_bytes", "max_pipeline", "write_high_water"):
        with pytest.raises(ParameterError):
            LoginServer(store, **{knob: 0})
        with pytest.raises(ParameterError):
            ClusterRouter(**{knob: 0})
    # The cluster builds its router before spawning: nothing is left running.
    with pytest.raises(ParameterError):
        await ServingCluster(workers=1, write_high_water=0).start()


@pytest.mark.parametrize("door", DOORS)
async def test_server_pipeline_cap_applies_backpressure(door):
    """A deep pipelined burst crosses the in-flight cap: the reader
    pauses (counted) but every request is still answered."""
    store, points = _server_store()
    front, _, close = await _start_door(
        door, store, {"max_pipeline": 2}, {"max_batch": 4, "flush_interval": 0.005}
    )
    reader, writer = await asyncio.open_connection(*front.address)

    burst = b"".join(
        json.dumps(
            {"op": "login", "id": i, "user": "alice", "points": _wire(points)}
        ).encode() + b"\n"
        for i in range(20)
    )
    writer.write(burst)
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in range(20)]
    assert sorted(r["id"] for r in responses) == list(range(20))
    assert all(r["status"] == "accept" for r in responses)
    assert front.backpressure["pipeline"] > 0
    writer.close()
    await close()


@pytest.mark.parametrize("door", DOORS)
async def test_server_answers_every_hostile_frame(door):
    """Non-object frames, out-of-range coordinates and unmapped failures
    each get a structured reply on a surviving connection; through the
    router, no forwarded frame is left waiting upstream."""
    store, points = _server_store()
    front, server, close = await _start_door(door, store)
    reader, writer = await asyncio.open_connection(*front.address)

    async def send(frame: bytes) -> dict:
        writer.write(frame + b"\n")
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), timeout=5))

    for frame in (b"[1,2]", b'"x"', b"3", b"null"):
        response = await send(frame)
        assert response["id"] is None and response["ok"] is False
        assert response["error"] == "protocol"
        assert "JSON object" in response["message"]

    good = _wire(points)
    hostile = ("Infinity", "-Infinity", "1e400", "NaN", "true")
    for index, bad in enumerate(hostile):
        wire = json.dumps(
            {"op": "login", "id": index, "user": "alice",
             "points": [["BAD", good[0][1]]] + good[1:]}
        )
        response = await send(wire.replace('"BAD"', bad).encode())
        assert response["id"] == index and response["error"] == "protocol", bad

    async def boom(username, points):
        raise RuntimeError("boom")

    server.service.login = boom
    response = await send(
        json.dumps({"op": "login", "id": 9, "user": "alice", "points": good}).encode()
    )
    assert response == {
        "id": 9, "ok": False, "error": "internal", "message": "RuntimeError: boom"
    }

    # A lone surrogate is valid JSON but not UTF-8: the ring still routes it.
    response = await send(b'{"op":"login","id":11,"user":"\\ud800","points":[]}')
    assert response["id"] == 11 and response["error"] == "protocol"

    def sync_boom(connection, request, line):
        raise RuntimeError("sync boom")

    # A frame whose _accept raises is answered, and its slot freed.
    front._accept = sync_boom
    response = await send(b'{"op":"login","id":12,"user":"alice","points":[]}')
    del front._accept
    assert response == {
        "id": 12, "ok": False, "error": "internal", "message": "RuntimeError: sync boom"
    }

    assert (await send(b'{"op":"ping","id":10}'))["status"] == "pong"
    if door == "router":
        assert all(upstream.inflight == 0 for upstream in front._upstreams)
    writer.close()
    await close()


async def _exchange(address, frames):
    """Send *frames* one at a time on one connection; the raw reply lines."""
    reader, writer = await asyncio.open_connection(*address)
    replies = []
    for frame in frames:
        writer.write(frame + b"\n")
        await writer.drain()
        replies.append(await asyncio.wait_for(reader.readline(), timeout=5))
    writer.close()
    await writer.wait_closed()
    return replies


async def test_router_is_transparent():
    """The same frames straight to a LoginServer and through a router in
    front of an identical one get byte-identical replies."""
    _, points = _server_store()
    good = _wire(points)
    fresh = [[x + 5, y + 5] for x, y in good]

    def login(request_id, user="alice", pts=good, **extra):
        return json.dumps(
            {"op": "login", "id": request_id, "user": user, "points": pts, **extra}
        ).encode()

    frames = [login(request_id) for request_id in (1, "s-1", None, 1.5, [1, [2, "é"]])]
    frames += [
        # A repeated id key: the last one is the request's id.
        b'{"id":7,"op":"login","user":"alice","points":%s,"id":"last"}'
        % json.dumps(good).encode(),
        b'{"op": "login",  "user": "alice", "points": %s}' % json.dumps(good).encode(),
        login(8, pts=_wire(_wrong(points))),
        login(9, user="ghost"),
        login(10, user=None),
        login(11, pts=[[good[0][0], "BAD"]] + good[1:]).replace(b'"BAD"', b"1e400"),
        login(12, pts=[["BAD", good[0][1]]] + good[1:]).replace(b'"BAD"', b"true"),
        login(13, pts="nope"),
        json.dumps({"op": "enroll", "id": 14, "user": "bob", "points": fresh}).encode(),
        login(15, user="bob", pts=fresh),
        json.dumps({"op": "enroll", "id": 16, "user": "bob", "points": fresh}).encode(),
        json.dumps({"op": "warp", "id": 17}).encode(),
        b'{"id": 18}',
        # UTF-16 JSON parses too; the router forwards it re-encoded.
        login(19).decode().encode("utf-16-le"),
        b"[1,2]",
        b"\xff\xfe\xfd",
        b"[" * 5000,
        b'{"op":"login","id":20,',
        login(21, user="\ud800"),
        login(22, user="\ud800", pts=[]),
    ]

    direct = await LoginServer(_server_store()[0]).start()
    behind = await LoginServer(_server_store()[0]).start()
    router = await ClusterRouter().start([behind.address])
    try:
        expected = await _exchange(direct.address, frames)
        relayed = await _exchange(router.address, frames)
        assert relayed == expected
        decoded = [json.loads(line) for line in expected]
        assert [reply["id"] for reply in decoded[:6]] == [
            1, "s-1", None, 1.5, [1, [2, "é"]], "last",
        ]
        assert decoded[0]["status"] == "accept" and decoded[-7]["status"] == "accept"
        # Not JSON objects (bad UTF-8, parser recursion, truncation too).
        assert [reply["error"] for reply in decoded[-6:-2]] == ["protocol"] * 4
        # A lone-surrogate user is routed like any other.
        assert [reply["error"] for reply in decoded[-2:]] == ["StoreError", "protocol"]
        assert all(upstream.inflight == 0 for upstream in router._upstreams)
    finally:
        await router.aclose()
        await behind.aclose()
        await direct.aclose()


async def test_router_leaves_room_for_the_upstream_id():
    """A frame with no room left for the appended upstream id is refused
    at the router instead of overrunning the worker's equal size limit
    (where its reply could not be matched and its slot would never
    free); a frame that fits is relayed."""
    store, points = _server_store()
    server = await LoginServer(store, max_request_bytes=256).start()
    router = await ClusterRouter(max_request_bytes=256).start([server.address])

    def padded(request_id, size):
        frame = json.dumps(
            {"op": "login", "id": request_id, "user": "alice",
             "points": _wire(points), "pad": ""}
        ).encode()
        pad = b"x" * (size - len(frame))
        return frame.replace(b'"pad": ""', b'"pad": "' + pad + b'"')

    try:
        too_big, fits = padded(1, 256), padded(2, 232)
        assert (len(too_big), len(fits)) == (256, 232)
        lines = await _exchange(router.address, [too_big, fits])
        replies = [json.loads(line) for line in lines]
        assert replies[0]["error"] == "request_too_large" and replies[0]["id"] is None
        assert replies[1] == {"id": 2, "ok": True, "status": "accept"}
        assert router.oversize_rejected == 1
        assert all(upstream.inflight == 0 for upstream in router._upstreams)
    finally:
        await router.aclose()
        await server.aclose()


async def test_worker_reply_without_id_prefix_drops_the_worker():
    """A worker reply that does not start with the server's compact
    ``{"id":N,`` prefix breaks the protocol: the router drops that
    upstream, and each relay still gets one ``upstream`` error under its
    client id."""

    async def rogue(reader, writer):
        while line := await reader.readline():
            writer.write(b'{"ok":true,"id":%d}\n' % json.loads(line)["id"])
        writer.close()

    worker = await asyncio.start_server(rogue, "127.0.0.1", 0)
    router = await ClusterRouter().start([worker.sockets[0].getsockname()[:2]])
    _, points = _server_store()
    frames = [
        json.dumps(
            {"op": "login", "id": cid, "user": "alice", "points": _wire(points)}
        ).encode()
        for cid in ("first", "second")
    ]
    try:
        lines = await _exchange(router.address, frames + [b'{"op":"stats","id":3}'])
        replies = [json.loads(line) for line in lines]
        assert [(r["id"], r["error"]) for r in replies] == [
            ("first", "upstream"), ("second", "upstream"), (3, "upstream"),
        ]
        assert replies[0]["message"] == "worker 0 connection lost"
        assert all(upstream.inflight == 0 for upstream in router._upstreams)
    finally:
        await router.aclose()
        worker.close()
        await worker.wait_closed()


@pytest.mark.parametrize("door", DOORS)
async def test_half_closed_client_gets_every_reply(door):
    """A client that pipelines K logins and then half-closes its side
    still receives all K replies before the door closes the connection."""
    store, points = _server_store()
    front, _, close = await _start_door(door, store)
    reader, writer = await asyncio.open_connection(*front.address)
    count = 60
    writer.write(
        b"".join(
            json.dumps(
                {"op": "login", "id": i, "user": "alice", "points": _wire(points)}
            ).encode() + b"\n"
            for i in range(count)
        )
    )
    writer.write_eof()
    lines = []
    while line := await asyncio.wait_for(reader.readline(), timeout=10):
        lines.append(json.loads(line))
    assert sorted(reply["id"] for reply in lines) == list(range(count))
    assert all(reply["status"] == "accept" for reply in lines)
    if door == "router":
        assert all(upstream.inflight == 0 for upstream in front._upstreams)
    writer.close()
    await close()


async def test_server_write_buffer_backpressure_scoped_to_slow_client():
    """A reader that stops consuming fills its write buffer: the server
    pauses that connection (counted) while other connections stay live."""
    registry = MetricsRegistry()
    histogram = registry.histogram("probe_seconds", op="probe")
    histogram.observe_many(np.linspace(0.0, 2.0, 8192))
    store, _ = _server_store()
    server = await LoginServer(
        store, registry=registry, write_high_water=4096
    ).start()
    host, port = server.address

    slow_reader, slow_writer = await asyncio.open_connection(
        host, port, limit=2 ** 22
    )
    frame = b'{"op":"metrics","id":1,"samples":true}\n'

    async def trickle():
        # One frame per pass, never reading: responses (large: 8192 raw
        # samples each) pile into the kernel/transport buffers until the
        # server's write-buffer check trips between reads.
        for _ in range(400):
            if server.backpressure["write_buffer"] > 0:
                return
            slow_writer.write(frame)
            await slow_writer.drain()
            await asyncio.sleep(0.005)

    await asyncio.wait_for(trickle(), timeout=30)
    assert server.backpressure["write_buffer"] > 0

    # A second connection is unaffected by the slow one.
    fast_reader, fast_writer = await asyncio.open_connection(host, port)
    pong = await asyncio.wait_for(
        _request(fast_reader, fast_writer, {"op": "ping", "id": 9}), timeout=5
    )
    assert pong["status"] == "pong"
    fast_writer.close()

    # Draining the slow client releases the parked responses.
    async def drain_slow():
        while True:
            line = await slow_reader.readline()
            if not line:
                return

    slow_writer.close()
    await asyncio.wait_for(drain_slow(), timeout=30)
    await server.aclose()


# -- merged stats -------------------------------------------------------------


def test_merge_stats_sums_and_recomputes_mean():
    merged = merge_stats(
        [
            {"submitted": 10, "decided": 10, "flushes": 5, "largest_batch": 4,
             "accounts": 3, "defense": {"pepper": False}},
            {"submitted": 30, "decided": 30, "flushes": 5, "largest_batch": 9,
             "accounts": 5, "defense": {"pepper": False}},
        ]
    )
    assert merged["submitted"] == 40
    assert merged["accounts"] == 8
    assert merged["largest_batch"] == 9
    # 40 decided over 10 flushes — not the mean of per-worker means.
    assert merged["mean_batch"] == 4.0
    assert merged["defense"] == {"pepper": False}
    assert merge_stats([])["mean_batch"] == 0.0


# -- router end-to-end (spawned workers) --------------------------------------


async def test_router_routes_merges_and_hardens(tmp_path):
    """One synthetic 2-worker cluster exercises the whole router surface:
    ring routing, enroll-then-login, merged stats/metrics, error
    forwarding, and the router's own oversize handling."""
    image = cars_image()
    cluster = ServingCluster(workers=2, users=30, seed=11, max_request_bytes=512)
    await cluster.start()
    try:
        host, port = cluster.address
        reader, writer = await asyncio.open_connection(host, port)

        pong = await _request(reader, writer, {"op": "ping", "id": 1})
        assert pong["status"] == "pong" and pong["workers"] == 2

        # Logins route by ring: correct and wrong attempts for accounts
        # that live on different shards.
        ring = ConsistentHashRing(2)
        chosen = {}
        for index in range(30):
            chosen.setdefault(ring.index_for(cluster_username(index)), index)
        assert len(chosen) == 2  # the population really spans both shards
        for index in chosen.values():
            points = synthetic_points(index, 11, image.width, image.height)
            response = await _request(
                reader, writer,
                {"op": "login", "id": 2, "user": cluster_username(index),
                 "points": _wire(points)},
            )
            assert response == {"id": 2, "ok": True, "status": "accept"}
            response = await _request(
                reader, writer,
                {"op": "login", "id": 3, "user": cluster_username(index),
                 "points": _wire(_wrong(points))},
            )
            assert response["status"] == "reject"

        # Enroll through the router lands on the owning worker.
        fresh = synthetic_points(999, 11, image.width, image.height)
        response = await _request(
            reader, writer,
            {"op": "enroll", "id": 4, "user": "newcomer", "points": _wire(fresh)},
        )
        assert response["ok"] and response["status"] == "enrolled"
        response = await _request(
            reader, writer,
            {"op": "login", "id": 5, "user": "newcomer", "points": _wire(fresh)},
        )
        assert response["status"] == "accept"

        # Worker-side failures come back unchanged (id restored).
        response = await _request(
            reader, writer,
            {"op": "login", "id": 6, "user": "ghost", "points": _wire(fresh)},
        )
        assert response["id"] == 6 and response["error"] == "StoreError"
        response = await _request(reader, writer, {"op": "warp", "id": 7})
        assert not response["ok"] and "unknown op" in response["message"]

        # Merged stats see the union of both workers' accounts.
        stats = await _request(reader, writer, {"op": "stats", "id": 8})
        assert stats["ok"] and stats["workers"] == 2
        assert stats["accounts"] == 31
        assert stats["decided"] >= 5

        # Merged metrics: per-worker counters sum across the fan-out.
        metrics = await _request(reader, writer, {"op": "metrics", "id": 9})
        counters = metrics["metrics"]["counters"]
        logins = sum(
            value for key, value in counters.items()
            if key.startswith("server_requests_total") and 'op="login"' in key
        )
        assert logins >= 5
        prom = await _request(
            reader, writer, {"op": "metrics", "id": 10, "format": "prom"}
        )
        assert "server_requests_total" in prom["prom"]

        # The router applies the same size limit as the workers.
        writer.write(b"B" * 2048 + b"\n")
        await writer.drain()
        response = json.loads(await reader.readline())
        assert response["error"] == "request_too_large"
        pong = await _request(reader, writer, {"op": "ping", "id": 11})
        assert pong["status"] == "pong"
        assert cluster.router.oversize_rejected == 1

        writer.close()
        await writer.wait_closed()
    finally:
        await cluster.aclose()


async def test_killed_worker_fails_only_its_relays():
    """SIGKILL one shard worker mid-flood: every login relayed to it gets
    exactly one ``upstream`` error under the client's id, the client
    connection survives, and the other shard keeps deciding exactly like
    the scalar reference."""
    image = cars_image()
    seed, users = 5, 40
    cluster = ServingCluster(workers=2, users=users, seed=seed)
    await cluster.start()
    try:
        ring = ConsistentHashRing(2)
        passwords = {
            cluster_username(index): synthetic_points(
                index, seed, image.width, image.height
            )
            for index in range(users)
        }
        names = sorted(passwords)
        shard_of = {username: ring.index_for(username) for username in names}
        frames = {}
        for i in range(600):
            username = names[i % users]
            attempt = passwords[username] if i % 3 else _wrong(passwords[username])
            frames[f"c{i}"] = (username, attempt)
        reader, writer = await asyncio.open_connection(*cluster.address)
        writer.write(
            b"".join(
                json.dumps(
                    {"op": "login", "id": cid, "user": user, "points": _wire(att)}
                ).encode() + b"\n"
                for cid, (user, att) in frames.items()
            )
        )
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(50)]
        cluster._handles[0].process.kill()
        while len(replies) < len(frames):
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            replies.append(json.loads(line))
        # The connection survives and the surviving shard still serves it.
        pong = await _request(reader, writer, {"op": "ping", "id": "p"})
        assert pong["status"] == "pong"
        survivor = [name for name in names if shard_of[name] == 1][0]
        after = await _request(
            reader, writer,
            {"op": "login", "id": "after", "user": survivor,
             "points": _wire(passwords[survivor])},
        )
        assert after == {"id": "after", "ok": True, "status": "accept"}
        writer.close()
        await writer.wait_closed()
        assert all(upstream.inflight == 0 for upstream in cluster.router._upstreams)
    finally:
        await cluster.aclose()

    assert sorted(reply["id"] for reply in replies) == sorted(frames)
    reference = PasswordStore(
        system=PassPointsSystem(image=image, scheme=scheme_named("centered", 9)),
        policy=LockoutPolicy(max_failures=None),
    )
    for username, points in passwords.items():
        reference.create_account(username, points)
    failed = 0
    for reply in replies:
        username, attempt = frames[reply["id"]]
        if reply["ok"]:
            expected = "accept" if reference.login(username, attempt) else "reject"
            assert reply["status"] == expected, reply
            continue
        failed += 1
        assert shard_of[username] == 0, reply
        assert reply["error"] == "upstream" and "worker 0" in reply["message"]
        assert set(reply) == {"id", "ok", "error", "message"}
    assert failed > 0
    # Some relays were in flight when the worker died (not merely sent
    # after its connection had closed).
    assert any(
        reply["message"].endswith("connection lost")
        for reply in replies if not reply["ok"]
    )


def test_cluster_constructor_validates_shape():
    with pytest.raises(ClusterError):
        ServingCluster()
    with pytest.raises(ClusterError):
        ServingCluster(shard_uris=["memory:"], workers=2)


# -- live reshard drill (spawned workers) -------------------------------------


async def test_live_reshard_drill_matches_reference(tmp_path):
    """Grow 2→4 shards under a live closed-loop flood.

    Every account keeps exactly one authoritative home throughout, so the
    full status stream (accepts, rejects, lockouts) must equal a scalar
    single-backend replay of the same per-account attempt sequences, and
    the migrated failure counters must survive bit-for-bit.
    """
    accounts = 16
    seed = 7
    old_uris = [f"sqlite:{tmp_path / f'old{i}.db'}" for i in range(2)]
    new_uris = [f"sqlite:{tmp_path / f'new{i}.db'}" for i in range(4)]

    backend = ShardedBackend([backend_from_uri(uri) for uri in old_uris])
    backend.put_meta("scheme", "centered")
    backend.put_meta("tolerance_px", "9")
    backend.put_meta("image", "cars")
    store = deployed_store(backend)
    image = store.system.image
    passwords = {
        cluster_username(index): synthetic_points(
            index, seed, image.width, image.height
        )
        for index in range(accounts)
    }
    for username, points in passwords.items():
        store.create_account(username, points)
    backend.close()

    cluster = ServingCluster(shard_uris=old_uris)
    await cluster.start()
    try:
        host, port = cluster.address
        rng = np.random.default_rng(99)
        plans = {
            username: [bool(w) for w in rng.random(6) < 0.4]
            for username in passwords
        }
        executed = {username: [] for username in passwords}
        statuses = {username: [] for username in passwords}
        stop = asyncio.Event()

        async def drive(username):
            # Closed loop (one in-flight attempt per account) so the
            # account's decision order is exactly its send order; cycles
            # its plan until the drill completes, keeping traffic live
            # through every cutover window.
            points = passwords[username]
            plan = plans[username]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                step = 0
                while not stop.is_set() or step < len(plan):
                    wrong = plan[step % len(plan)]
                    attempt = _wrong(points) if wrong else points
                    response = await _request(
                        reader, writer,
                        {"op": "login", "id": step, "user": username,
                         "points": _wire(attempt)},
                    )
                    assert response.get("status") in (
                        "accept", "reject", "locked",
                    ), response
                    executed[username].append(attempt)
                    statuses[username].append(response["status"])
                    step += 1
                    await asyncio.sleep(0.01)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass

        drivers = [
            asyncio.ensure_future(drive(username)) for username in passwords
        ]
        await asyncio.sleep(0.1)  # the flood is live before the drill starts
        report = await cluster.reshard(new_uris)
        stop.set()
        await asyncio.gather(*drivers)

        # Zero-loss: every enrolled account moved exactly once.
        assert report.old_shards == 2 and report.new_shards == 4
        assert sum(report.moved) == accounts
        assert len(report.cutover_seconds) == 2
        assert report.max_cutover_seconds > 0.0
        assert "reshard 2->4" in report.summary()

        # The grown cluster still serves the full population.
        reader, writer = await asyncio.open_connection(host, port)
        stats = await _request(reader, writer, {"op": "stats", "id": 0})
        assert stats["workers"] == 4 and stats["accounts"] == accounts
        writer.close()
        await writer.wait_closed()
    finally:
        await cluster.aclose()

    # Scalar single-backend replay: per-account streams must be identical
    # (throttle state is per-account and each driver was closed-loop, so
    # cross-account interleaving cannot change any decision).
    reference = PasswordStore(system=_centered_system())
    for username, points in passwords.items():
        reference.create_account(username, points)
    for username, attempts in executed.items():
        expected = []
        for attempt in attempts:
            try:
                expected.append(
                    "accept" if reference.login(username, attempt) else "reject"
                )
            except LockoutError:
                expected.append("locked")
        assert statuses[username] == expected, username

    # The migrated throttle counters match the reference exactly.
    final = ShardedBackend([backend_from_uri(uri) for uri in new_uris])
    try:
        for username in passwords:
            moved_state = final.get_throttle(username)
            ref_state = reference.backend.get_throttle(username)
            assert moved_state is not None, username
            assert moved_state["failures"] == ref_state["failures"]
            assert moved_state["locked"] == ref_state["locked"]
    finally:
        final.close()


# -- rebalance under concurrent writes (in-process property test) -------------


def test_rebalance_under_interleaved_writes_matches_reference():
    """Incremental ``rebalance(clear=False)`` migration interleaved with
    login bursts: decisions always match a single-backend reference and
    no failure counter ever moves backwards across a migration step."""
    system = _centered_system()
    image = system.image
    accounts = 32
    old = ShardedBackend([backend_from_uri("memory:") for _ in range(4)])
    new = ShardedBackend([backend_from_uri("memory:") for _ in range(8)])
    old_store = PasswordStore(system=_centered_system(), backend=old)
    new_store = PasswordStore(system=_centered_system(), backend=new)
    reference = PasswordStore(system=_centered_system())

    passwords = {
        cluster_username(index): synthetic_points(
            index, 21, image.width, image.height
        )
        for index in range(accounts)
    }
    for username, points in passwords.items():
        old_store.create_account(username, points)
        reference.create_account(username, points)

    migrated = set()

    def authoritative(username):
        return (
            new_store if old.shard_index_for(username) in migrated else old_store
        )

    def backend_failures(username):
        backend = new if old.shard_index_for(username) in migrated else old
        state = backend.get_throttle(username)
        return state["failures"] if state else 0

    def replay(store, username, attempt):
        try:
            return "accept" if store.login(username, attempt) else "reject"
        except LockoutError:
            return "locked"

    rng = np.random.default_rng(123)
    names = sorted(passwords)

    def burst(size):
        for _ in range(size):
            username = names[int(rng.integers(accounts))]
            wrong = bool(rng.random() < 0.35)
            attempt = (
                _wrong(passwords[username]) if wrong else passwords[username]
            )
            live = replay(authoritative(username), username, attempt)
            assert live == replay(reference, username, attempt), username

    burst(40)
    for shard_index in range(4):
        before = {username: backend_failures(username) for username in names}
        rebalance(old.shards[shard_index], new, clear=False)
        migrated.add(shard_index)
        # Migration alone moves no counter — backwards or forwards.
        for username in names:
            assert backend_failures(username) == before[username], username
        burst(40)

    # End state: every account lives in the new layout with reference
    # throttle state.
    for username in names:
        assert new.get(username) is not None
        state = new.get_throttle(username)
        ref_state = reference.backend.get_throttle(username)
        ref_failures = ref_state["failures"] if ref_state else 0
        assert (state["failures"] if state else 0) == ref_failures
        assert new_store.is_locked(username) == reference.is_locked(username)
    old.close()
    new.close()
