"""Serving-layer tests: async front-end equivalence, protocol, flood.

The ISSUE-3 acceptance criterion: for randomized interleavings of
concurrent logins, :class:`~repro.serving.AsyncVerificationService` must
produce decision/lockout sequences identical to the scalar
``PasswordStore.login`` loop — for all three schemes, on both ``memory:``
and ``shards:sqlite:`` backends.  The scalar reference replays the
*observed enqueue order* (recorded atomically at submit), which is the
order the async layer guarantees decisions happen in.

Async tests are plain ``async def`` functions executed by the stdlib
``asyncio.run`` harness in ``tests/conftest.py``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sqlite3

import numpy as np
import pytest

from repro.core.centered import CenteredDiscretization
from repro.core.robust import RobustDiscretization
from repro.core.static import StaticGridScheme
from repro.errors import (
    DomainError,
    LockoutError,
    ParameterError,
    StoreError,
    VerificationError,
)
from repro.geometry.point import Point
from repro.obs.metrics import quantile
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import LockoutPolicy
from repro.passwords.storage import backend_from_uri
from repro.passwords.store import PasswordStore
from repro.serving import (
    AsyncVerificationService,
    LoginServer,
    flood_server,
    flood_service,
    mixed_stream,
)
from repro.study.image import cars_image

SCHEMES = {
    "centered": lambda: CenteredDiscretization.for_pixel_tolerance(2, 9),
    "robust": lambda: RobustDiscretization.for_pixel_tolerance(2, 9),
    "static": lambda: StaticGridScheme(dim=2, cell_size=19),
}

#: The acceptance-criterion backend matrix: in-process and sharded-durable.
BACKENDS = ["memory", "shards"]


def make_backend(kind: str, tmp_path, tag: str):
    if kind == "memory":
        return backend_from_uri("memory:")
    return backend_from_uri(f"shards:sqlite:{tmp_path / tag}-s{{0..2}}.db")


def build_store(scheme_name, backend, policy):
    system = PassPointsSystem(image=cars_image(), scheme=SCHEMES[scheme_name]())
    return PasswordStore(system=system, policy=policy, backend=backend)


def random_password(rng, image):
    return [
        Point.xy(int(x), int(y))
        for x, y in zip(
            rng.integers(30, image.width - 30, size=5),
            rng.integers(30, image.height - 30, size=5),
        )
    ]


def random_stream(rng, accounts, image, length):
    """A mixed attempt stream: exact, within-tolerance, wrong, random."""
    names = list(accounts)
    stream = []
    for _ in range(length):
        username = names[int(rng.integers(len(names)))]
        points = accounts[username]
        kind = int(rng.integers(4))
        if kind == 0:
            attempt = list(points)
        elif kind == 1:
            attempt = [
                Point.xy(int(p.x) + int(rng.integers(-4, 5)),
                         int(p.y) + int(rng.integers(-4, 5)))
                for p in points
            ]
        elif kind == 2:
            attempt = [Point.xy(int(p.x) - 25, int(p.y) + 25) for p in points]
        else:
            attempt = random_password(rng, image)
        stream.append((username, attempt))
    return stream


def scalar_reference(store, stream):
    """The accept/reject/lockout sequence of the scalar login loop."""
    statuses = []
    for username, attempt in stream:
        try:
            statuses.append(
                "accept" if store.login(username, attempt) else "reject"
            )
        except LockoutError:
            statuses.append("locked")
    return statuses


def _fixture_store(tmp_path, tag="svc", policy=None, backend_kind="memory"):
    policy = policy or LockoutPolicy(max_failures=3)
    store = build_store("centered", make_backend(backend_kind, tmp_path, tag), policy)
    points = [Point.xy(40 + 60 * i, 50 + 40 * i) for i in range(5)]
    store.create_account("alice", points)
    return store, points


# -- the acceptance-criterion property test ---------------------------------


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("backend_kind", BACKENDS)
async def test_async_service_matches_scalar_store(
    scheme_name, backend_kind, tmp_path
):
    """Randomized concurrent interleavings == scalar decision sequence."""
    image = cars_image()
    for seed in (2008, 1387):
        rng = np.random.default_rng(seed)
        accounts = {f"user{i}": random_password(rng, image) for i in range(5)}
        clients = 4
        streams = [random_stream(rng, accounts, image, 30) for _ in range(clients)]
        # Pre-drawn randomness: which submissions yield the loop first,
        # and which run as pipelined submit_many bursts.
        yield_plan = [
            [float(x) < 0.4 for x in rng.random(len(stream))]
            for stream in streams
        ]
        burst_plan = [
            [int(x) for x in rng.integers(1, 4, len(stream))] for stream in streams
        ]
        policy = LockoutPolicy(max_failures=3)

        backend = make_backend(backend_kind, tmp_path, f"{scheme_name}-{seed}")
        store = build_store(scheme_name, backend, policy)
        for username, points in accounts.items():
            store.create_account(username, points)
        # Small max_batch so the run crosses size triggers, deadline
        # triggers, and multiple micro-batches.
        service = AsyncVerificationService(store, max_batch=8)

        order = []  # (username, attempt) in true enqueue order
        statuses = {}  # enqueue index -> decided status

        async def client(stream, yields, bursts):
            position = 0
            while position < len(stream):
                if yields[position]:
                    await asyncio.sleep(0)
                size = min(bursts[position], len(stream) - position)
                chunk = stream[position : position + size]
                if size == 1:
                    future = service.submit(*chunk[0])
                    indices = [len(order)]
                    order.extend(chunk)
                    outcomes = [await future]
                else:
                    future = service.submit_many(chunk)
                    indices = list(range(len(order), len(order) + size))
                    order.extend(chunk)
                    outcomes = await future
                for index, outcome in zip(indices, outcomes):
                    statuses[index] = outcome.status
                position += size

        await asyncio.gather(
            *(client(s, y, b) for s, y, b in zip(streams, yield_plan, burst_plan))
        )

        total = sum(len(stream) for stream in streams)
        assert len(order) == len(statuses) == total
        decided = [statuses[index] for index in range(total)]

        reference_store = build_store(
            scheme_name, make_backend("memory", tmp_path, "ref"), policy
        )
        for username, points in accounts.items():
            reference_store.create_account(username, points)
        assert decided == scalar_reference(reference_store, order)
        for username in accounts:
            assert store.is_locked(username) == reference_store.is_locked(username)
        backend.close()


async def test_lockout_ordering_across_flushes(tmp_path):
    """A lockout in one batch refuses attempts parked for the next."""
    store, points = _fixture_store(
        tmp_path, policy=LockoutPolicy(max_failures=2)
    )
    wrong = [Point.xy(int(p.x) + 30, int(p.y) + 30) for p in points]
    service = AsyncVerificationService(store, max_batch=2)
    outcomes = await asyncio.gather(
        service.submit("alice", wrong),
        service.submit("alice", wrong),
        service.submit("alice", points),
        service.submit("alice", points),
    )
    assert [o.status for o in outcomes] == ["reject", "reject", "locked", "locked"]
    assert store.is_locked("alice")


async def test_scalar_and_async_share_throttle_state(tmp_path):
    """Scalar logins and the async service read/write the same throttles."""
    store, points = _fixture_store(
        tmp_path, policy=LockoutPolicy(max_failures=3)
    )
    wrong = [Point.xy(int(p.x) + 30, int(p.y) + 30) for p in points]
    service = AsyncVerificationService(store)
    assert not store.login("alice", wrong)  # scalar failure #1
    assert (await service.login("alice", wrong)).status == "reject"  # #2
    assert not store.login("alice", wrong)  # #3 -> lock
    assert (await service.login("alice", points)).status == "locked"


# -- validation and flush mechanics ------------------------------------------


async def test_unknown_account_raises_at_submit(tmp_path):
    service = AsyncVerificationService(_fixture_store(tmp_path)[0])
    with pytest.raises(StoreError):
        service.submit("ghost", [Point.xy(1, 1)] * 5)
    assert service.pending_count == 0


async def test_wrong_click_count_raises_at_submit(tmp_path):
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store)
    with pytest.raises(VerificationError):
        service.submit("alice", points[:3])
    assert service.pending_count == 0


async def test_out_of_image_raises_at_submit_not_flush(tmp_path):
    """A bad point fails its own request; the shared batch survives."""
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store)
    good = service.submit("alice", points)
    bad = list(points)
    bad[2] = Point.xy(9999, 10)
    with pytest.raises(DomainError):
        service.submit("alice", bad)
    assert (await good).status == "accept"


async def test_submit_many_is_atomic(tmp_path):
    """A failing burst leaves no partial state behind."""
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store)
    with pytest.raises(StoreError):
        service.submit_many([("alice", points), ("ghost", points)])
    assert service.pending_count == 0
    assert service.service.pending_count == 0
    outcomes = await service.submit_many([("alice", points), ("alice", points)])
    assert [o.status for o in outcomes] == ["accept", "accept"]


async def test_size_trigger_flushes_synchronously(tmp_path):
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store, max_batch=3)
    futures = [service.submit("alice", points) for _ in range(3)]
    # The third submit crossed max_batch: decided without yielding.
    assert all(future.done() for future in futures)
    assert service.stats.size_flushes == 1
    assert service.stats.largest_batch == 3
    await asyncio.gather(*futures)


async def test_deadline_trigger_flushes_without_size(tmp_path):
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store, max_batch=1000, flush_interval=0.01)
    future = service.submit("alice", points)
    assert not future.done()
    outcome = await asyncio.wait_for(future, timeout=5)
    assert outcome.status == "accept"
    assert service.stats.flushes == 1
    assert service.stats.size_flushes == 0


async def test_same_tick_submissions_share_one_flush(tmp_path):
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store, max_batch=1000)
    futures = [service.submit("alice", points) for _ in range(5)]
    await asyncio.gather(*futures)
    assert service.stats.flushes == 1
    assert service.stats.largest_batch == 5
    assert math.isclose(service.stats.mean_batch, 5.0)


async def test_drain_decides_pending(tmp_path):
    store, points = _fixture_store(tmp_path)
    service = AsyncVerificationService(store, max_batch=1000, flush_interval=60.0)
    future = service.submit("alice", points)
    await service.drain()
    assert future.done() and future.result().status == "accept"
    assert service.pending_count == 0


async def test_failed_commit_fails_every_parked_caller(tmp_path, monkeypatch):
    """A flush whose throttle commit raises fails all of its callers.

    The in-memory throttle keeps the failure it already counted (a
    counted failure is never uncounted), and the next flush decides and
    persists normally.
    """
    backend = backend_from_uri(f"sqlite:{tmp_path / 'locked.db'}")
    store = build_store("centered", backend, LockoutPolicy(max_failures=3))
    points = [Point.xy(40 + 60 * i, 50 + 40 * i) for i in range(5)]
    wrong = [Point.xy(int(p.x) + 30, int(p.y) + 30) for p in points]
    store.create_account("alice", points)
    store.create_account("bob", points)
    commit = backend.put_throttle_many
    commits = []

    def locked_once(items):
        commits.append(list(items))
        if len(commits) == 1:
            raise sqlite3.OperationalError("database is locked")
        commit(commits[-1])

    monkeypatch.setattr(backend, "put_throttle_many", locked_once)
    service = AsyncVerificationService(store, max_batch=1000)
    results = await asyncio.gather(
        service.submit("alice", wrong),
        service.submit_many([("bob", wrong), ("bob", points)]),
        return_exceptions=True,
    )
    assert len(commits) == 1
    for result in results:
        assert isinstance(result, sqlite3.OperationalError)
        assert str(result) == "database is locked"
    assert service.stats.flushes == 1
    assert service.stats.decided == 0
    assert service.pending_count == 0
    assert store.throttle_for("alice").failures == 1

    outcomes = await asyncio.gather(
        service.submit("alice", wrong), service.submit("bob", points)
    )
    assert [o.status for o in outcomes] == ["reject", "accept"]
    assert len(commits) == 2
    assert store.throttle_for("alice").failures == 2
    assert backend.get_throttle("alice")["failures"] == 2
    assert service.stats.decided == 2
    backend.close()


def test_flush_interval_validated(tmp_path):
    store, _ = _fixture_store(tmp_path)
    with pytest.raises(ParameterError):
        AsyncVerificationService(store, flush_interval=-1.0)


# -- TCP server / protocol ---------------------------------------------------


async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def test_server_protocol_roundtrip(tmp_path):
    store, points = _fixture_store(tmp_path)
    wire_points = [[int(p.x), int(p.y)] for p in points]
    server = await LoginServer(store).start()
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)

    assert await _request(reader, writer, {"op": "ping", "id": 1}) == {
        "id": 1, "ok": True, "status": "pong",
    }
    response = await _request(
        reader, writer,
        {"op": "login", "id": 2, "user": "alice", "points": wire_points},
    )
    assert response == {"id": 2, "ok": True, "status": "accept"}
    response = await _request(
        reader, writer,
        {"op": "enroll", "id": 3, "user": "bob",
         "points": [[p[0] + 1, p[1]] for p in wire_points]},
    )
    assert response["ok"] and response["status"] == "enrolled"
    response = await _request(
        reader, writer,
        {"op": "login", "id": 4, "user": "bob",
         "points": [[p[0] + 1, p[1]] for p in wire_points]},
    )
    assert response["status"] == "accept"
    stats = await _request(reader, writer, {"op": "stats", "id": 5})
    assert stats["ok"] and stats["accounts"] == 2 and stats["decided"] == 2

    writer.close()
    await server.aclose()


async def test_server_failures_scoped_to_request(tmp_path):
    store, points = _fixture_store(tmp_path)
    wire_points = [[int(p.x), int(p.y)] for p in points]
    server = await LoginServer(store).start()
    reader, writer = await asyncio.open_connection(*server.address)

    response = await _request(
        reader, writer,
        {"op": "login", "id": 1, "user": "ghost", "points": wire_points},
    )
    assert not response["ok"] and response["error"] == "StoreError"
    response = await _request(
        reader, writer,
        {"op": "login", "id": 2, "user": "alice", "points": [[1, 2], [3]]},
    )
    assert not response["ok"] and response["error"] == "protocol"
    response = await _request(reader, writer, {"op": "warp", "id": 3})
    assert not response["ok"] and "unknown op" in response["message"]

    writer.write(b"this is not json\n")
    await writer.drain()
    response = json.loads(await reader.readline())
    assert not response["ok"] and response["error"] == "protocol"

    # The connection (and the account) survived all of the above.
    response = await _request(
        reader, writer,
        {"op": "login", "id": 4, "user": "alice", "points": wire_points},
    )
    assert response == {"id": 4, "ok": True, "status": "accept"}
    writer.close()
    await server.aclose()


async def test_concurrent_connections_share_batches(tmp_path):
    """Logins from different connections are amortized into one flush."""
    store, points = _fixture_store(tmp_path)
    wire_points = [[int(p.x), int(p.y)] for p in points]
    server = await LoginServer(store, max_batch=1000).start()
    host, port = server.address

    async def one_login(request_id):
        reader, writer = await asyncio.open_connection(host, port)
        response = await _request(
            reader, writer,
            {"op": "login", "id": request_id, "user": "alice",
             "points": wire_points},
        )
        writer.close()
        return response["status"]

    statuses = await asyncio.gather(*(one_login(i) for i in range(8)))
    assert statuses == ["accept"] * 8
    assert server.service.stats.largest_batch > 1
    await server.aclose()


# -- flood helpers ------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert quantile(samples, 0.0) == 1.0
    assert quantile(samples, 0.5) == 3.0
    assert quantile(samples, 1.0) == 5.0
    assert quantile([], 0.5) is None
    with pytest.raises(ValueError):
        quantile(samples, 1.5)


def test_mixed_stream_deterministic_and_clamped():
    accounts = {"edge": [Point.xy(3, 3)] * 5}
    stream_a = mixed_stream(accounts, 50, wrong_fraction=1.0, bounds=(451, 331))
    stream_b = mixed_stream(accounts, 50, wrong_fraction=1.0, bounds=(451, 331))
    assert [
        [(int(p.x), int(p.y)) for p in points] for _, points in stream_a
    ] == [[(int(p.x), int(p.y)) for p in points] for _, points in stream_b]
    for _, points in stream_a:
        for p in points:
            assert 0 <= int(p.x) < 451 and 0 <= int(p.y) < 331
    with pytest.raises(ValueError):
        mixed_stream({}, 5)
    with pytest.raises(ValueError):
        mixed_stream(accounts, 5, wrong_fraction=2.0)


@pytest.mark.parametrize("window", [1, 4])
async def test_flood_service_report(tmp_path, window):
    store, points = _fixture_store(
        tmp_path, policy=LockoutPolicy(max_failures=None)
    )
    accounts = {"alice": points}
    stream = mixed_stream(accounts, 120, wrong_fraction=0.25, bounds=(451, 331))
    service = AsyncVerificationService(store)
    report = await flood_service(service, stream, clients=6, window=window)
    assert report.attempts == 120 and report.clients == 6
    assert sum(report.tally.values()) == 120
    assert report.tally.get("locked", 0) == 0
    assert len(report.latencies_ms) == 120
    assert report.throughput > 0
    assert report.p50_ms <= report.p95_ms <= report.p99_ms
    assert "logins/s" in report.summary()


async def test_flood_server_report(tmp_path):
    store, points = _fixture_store(tmp_path)
    accounts = {"alice": points}
    stream = mixed_stream(accounts, 60, wrong_fraction=0.0, bounds=(451, 331))
    server = await LoginServer(store).start()
    host, port = server.address
    report = await flood_server(host, port, stream, clients=4)
    await server.aclose()
    assert report.attempts == 60
    assert sum(report.tally.values()) == 60
    assert report.tally.get("error", 0) == 0
    assert server.service.stats.decided == 60
