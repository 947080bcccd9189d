"""Tests for the pluggable storage backends and store serialization.

Covers the ISSUE-2 round-trip matrix (StoredPassword/VerificationRecord
JSON with Fraction publics, dump->load equality across backends, throttle
and lockout state survival across durable reopens) plus the ISSUE-3
additions: the consistent-hash ``ShardedBackend`` (``shards:`` URIs,
merged dumps, replicated meta), WAL-mode SQLite with non-blocking
read-only readers, and lockout persistence across shard rebalancing.
"""

from __future__ import annotations

import sqlite3
from fractions import Fraction

import pytest

from repro.core.centered import CenteredDiscretization
from repro.crypto.encoding import scalar_from_json, scalar_to_json
from repro.crypto.records import VerificationRecord, make_record
from repro.errors import LockoutError, StoreError
from repro.geometry.point import Point
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import AccountThrottle, LockoutPolicy
from repro.passwords.storage import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
    backend_from_uri,
    rebalance,
)
from repro.passwords.store import PasswordStore
from repro.passwords.system import enroll_password
from repro.study.image import cars_image

POINTS = [
    Point.xy(42, 61),
    Point.xy(130, 88),
    Point.xy(227, 154),
    Point.xy(318, 222),
    Point.xy(401, 290),
]


def shifted(points, dx, dy=0):
    return [Point.xy(int(p.x) + dx, int(p.y) + dy) for p in points]


def make_backend(kind: str, tmp_path):
    if kind == "memory":
        return backend_from_uri("memory:")
    if kind == "sqlite":
        return backend_from_uri(f"sqlite:{tmp_path / 'store.db'}")
    if kind == "shards":
        return backend_from_uri(f"shards:sqlite:{tmp_path / 'shard'}{{0..2}}.db")
    raise ValueError(kind)


BACKENDS = ["memory", "sqlite", "shards"]


@pytest.fixture
def scheme():
    return CenteredDiscretization.for_pixel_tolerance(2, 9)


@pytest.fixture
def system(scheme):
    return PassPointsSystem(image=cars_image(), scheme=scheme)


class TestScalarJson:
    def test_fraction_round_trip(self):
        value = Fraction(19, 2)
        assert scalar_from_json(scalar_to_json(value)) == value

    def test_passthrough_types(self):
        for value in (7, 2.5, "salt"):
            assert scalar_from_json(scalar_to_json(value)) == value

    def test_record_json_with_fraction_publics(self):
        record = make_record([Fraction(19, 2), Fraction(1, 3), 4], [0, 1])
        restored = VerificationRecord.from_json(record.to_json())
        assert restored == record
        assert restored.matches([0, 1])
        assert not restored.matches([1, 0])

    def test_stored_password_fraction_publics_roundtrip(self, scheme):
        stored = enroll_password(scheme, POINTS)
        # Centered publics are exact rationals with .5 parts.
        assert any(
            isinstance(v, Fraction) for per in stored.publics for v in per
        )
        restored = type(stored).from_json(stored.to_json())
        assert restored == stored


class TestBackendUri:
    def test_memory(self):
        assert backend_from_uri("memory:").uri == "memory:"

    def test_sqlite(self, tmp_path):
        sqlite = backend_from_uri(f"sqlite:{tmp_path / 'a.db'}")
        assert isinstance(sqlite, SQLiteBackend)
        sqlite.close()

    def test_missing_path_rejected(self):
        with pytest.raises(StoreError):
            backend_from_uri("sqlite:")

    def test_unknown_scheme_rejected(self, tmp_path, monkeypatch):
        # "jsonl" names the retired append-only log backend: its old URIs
        # get the same refusal as any other unknown scheme, and no file.
        monkeypatch.chdir(tmp_path)
        for scheme in ("redis", "jsonl"):
            for location in ("somewhere", "x", ""):
                with pytest.raises(StoreError) as excinfo:
                    backend_from_uri(f"{scheme}:{location}")
                assert "(expected memory:, sqlite:PATH, or shards:TEMPLATE)" in str(
                    excinfo.value
                )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", BACKENDS)
class TestBackendContract:
    def test_put_get_delete(self, kind, tmp_path, scheme):
        backend = make_backend(kind, tmp_path)
        stored = enroll_password(scheme, POINTS)
        backend.put("alice", stored)
        assert backend.get("alice") == stored
        assert "alice" in backend
        assert len(backend) == 1
        assert backend.usernames() == ("alice",)
        backend.delete("alice")
        assert backend.get("alice") is None
        with pytest.raises(StoreError):
            backend.delete("alice")
        backend.close()

    def test_throttle_state(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        backend.put_throttle("alice", {"failures": 2, "locked": False, "accumulated_delay": 1.5})
        assert backend.get_throttle("alice")["failures"] == 2
        assert backend.get_throttle("ghost") is None
        backend.close()

    def test_meta(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        assert backend.get_meta("scheme") is None
        backend.put_meta("scheme", "centered")
        assert backend.get_meta("scheme") == "centered"
        backend.close()

    def test_dump_load_round_trip(self, kind, tmp_path, scheme):
        backend = make_backend(kind, tmp_path)
        backend.put("alice", enroll_password(scheme, POINTS))
        backend.put("bob", enroll_password(scheme, shifted(POINTS, 7)))
        payload = backend.dump()
        fresh = MemoryBackend()
        fresh.load(payload)
        assert fresh.usernames() == ("alice", "bob")
        # The password file is backend-agnostic: reloading it anywhere
        # reproduces the identical artifact byte-for-byte.
        assert fresh.dump() == payload
        backend.close()

    def test_load_replaces_existing(self, kind, tmp_path, scheme):
        backend = make_backend(kind, tmp_path)
        backend.put("old", enroll_password(scheme, POINTS))
        donor = MemoryBackend()
        donor.put("new", enroll_password(scheme, shifted(POINTS, 3)))
        backend.load(donor.dump())
        assert backend.usernames() == ("new",)
        backend.close()

    def test_load_rejects_garbage(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        with pytest.raises(StoreError):
            backend.load("{not json")
        backend.close()


@pytest.mark.parametrize("kind", ["sqlite", "shards"])
class TestDurability:
    def test_records_survive_reopen(self, kind, tmp_path, system):
        backend = make_backend(kind, tmp_path)
        store = PasswordStore(system=system, backend=backend)
        store.create_account("alice", POINTS)
        backend.close()

        reopened = make_backend(kind, tmp_path)
        store2 = PasswordStore(system=system, backend=reopened)
        assert store2.usernames == ("alice",)
        assert store2.login("alice", POINTS)
        assert store2.login("alice", shifted(POINTS, 3))
        reopened.close()

    def test_lockout_survives_reopen(self, kind, tmp_path, system):
        backend = make_backend(kind, tmp_path)
        store = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=2), backend=backend
        )
        store.create_account("alice", POINTS)
        for _ in range(2):
            assert not store.login("alice", shifted(POINTS, 30, 30))
        assert store.is_locked("alice")
        backend.close()

        reopened = make_backend(kind, tmp_path)
        store2 = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=2), backend=reopened
        )
        assert store2.is_locked("alice")
        with pytest.raises(LockoutError):
            store2.login("alice", POINTS)
        reopened.close()

    def test_partial_failures_survive_reopen(self, kind, tmp_path, system):
        backend = make_backend(kind, tmp_path)
        store = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=3), backend=backend
        )
        store.create_account("alice", POINTS)
        assert not store.login("alice", shifted(POINTS, 30, 30))
        backend.close()

        reopened = make_backend(kind, tmp_path)
        store2 = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=3), backend=reopened
        )
        assert store2.throttle_for("alice").failures == 1
        # Two more failures complete the persisted streak.
        assert not store2.login("alice", shifted(POINTS, 30, 30))
        assert not store2.login("alice", shifted(POINTS, 30, 30))
        assert store2.is_locked("alice")
        reopened.close()


class TestSQLiteConcurrency:
    def test_wal_journal_mode_enabled(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "wal.db"))
        assert backend.journal_mode == "wal"
        backend.close()

    def test_busy_timeout_configured(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "wal.db"))
        timeout = backend._conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert timeout == SQLiteBackend.BUSY_TIMEOUT_MS
        backend.close()

    def test_reader_not_blocked_by_open_write_transaction(self, tmp_path, scheme):
        """iter_records snapshots committed state while a writer holds the lock."""
        backend = SQLiteBackend(str(tmp_path / "wal.db"))
        backend.put("alice", enroll_password(scheme, POINTS))
        # Hold the write lock with an uncommitted row: a rollback-journal
        # reader would block (then fail); the WAL read-only reader sees
        # the last committed snapshot immediately.
        backend._conn.execute("BEGIN IMMEDIATE")
        backend._conn.execute(
            "INSERT INTO records (username, payload) VALUES ('bob', '{}')"
        )
        try:
            names = [username for username, _ in backend.iter_records()]
        finally:
            backend._conn.execute("ROLLBACK")
        assert names == ["alice"]
        backend.close()

    def test_dump_uses_read_only_connection(self, tmp_path, scheme, monkeypatch):
        backend = SQLiteBackend(str(tmp_path / "wal.db"))
        backend.put("alice", enroll_password(scheme, POINTS))
        reader = backend._reader()
        assert reader is not None
        with pytest.raises(sqlite3.OperationalError):
            reader.execute("DELETE FROM records")
        reader.close()
        # And iter_records falls back to the writer connection when no
        # read-only connection can be opened.
        monkeypatch.setattr(backend, "_reader", lambda: None)
        assert [username for username, _ in backend.iter_records()] == ["alice"]
        backend.close()

    def test_two_instances_share_one_live_store(self, tmp_path, system):
        """A second process (modelled as a second backend) grinds the live
        store while the first keeps serving logins."""
        path = str(tmp_path / "live.db")
        server_side = SQLiteBackend(path)
        store = PasswordStore(system=system, backend=server_side)
        store.create_account("alice", POINTS)

        attacker_side = SQLiteBackend(path)
        stolen = attacker_side.dump()
        assert "alice" in stolen
        store.create_account("bob", shifted(POINTS, 7))  # server still writes
        assert sorted(attacker_side.usernames()) == ["alice", "bob"]
        attacker_side.close()
        server_side.close()


class TestShardedBackend:
    def test_uri_round_trip_and_shard_count(self, tmp_path):
        backend = backend_from_uri(f"shards:sqlite:{tmp_path / 's'}{{0..3}}.db")
        assert isinstance(backend, ShardedBackend)
        assert len(backend.shards) == 4
        assert all(isinstance(shard, SQLiteBackend) for shard in backend.shards)
        backend.close()

    def test_template_validation(self, tmp_path):
        with pytest.raises(StoreError):
            backend_from_uri("shards:")
        with pytest.raises(StoreError):  # no {A..B} range
            backend_from_uri(f"shards:sqlite:{tmp_path / 'x.db'}")
        with pytest.raises(StoreError):  # empty range
            backend_from_uri(f"shards:sqlite:{tmp_path / 's'}{{3..1}}.db")
        with pytest.raises(StoreError):  # two ranges
            backend_from_uri(f"shards:sqlite:{tmp_path / 's'}{{0..1}}{{0..1}}.db")
        with pytest.raises(StoreError):
            ShardedBackend([])

    def test_routing_is_deterministic_across_instances(self, tmp_path):
        first = backend_from_uri(f"shards:memory:{{0..3}}")
        second = backend_from_uri(f"shards:memory:{{0..3}}")
        names = [f"user{i}" for i in range(64)]
        assert [first.shard_index_for(n) for n in names] == [
            second.shard_index_for(n) for n in names
        ]

    def test_population_spreads_over_shards(self, tmp_path, scheme):
        backend = backend_from_uri("shards:memory:{0..3}")
        record = enroll_password(scheme, POINTS)
        for i in range(60):
            backend.put(f"user{i}", record)
        sizes = [len(shard) for shard in backend.shards]
        assert sum(sizes) == 60
        assert all(size > 0 for size in sizes)  # no empty shard at n=60
        # Each record lives on exactly the shard the router names.
        for i in range(60):
            username = f"user{i}"
            owner = backend.shard_index_for(username)
            for index, shard in enumerate(backend.shards):
                assert (username in shard) == (index == owner)

    def test_merged_dump_matches_unsharded(self, tmp_path, scheme):
        sharded = backend_from_uri(f"shards:sqlite:{tmp_path / 'm'}{{0..2}}.db")
        flat = MemoryBackend()
        for i in range(12):
            record = enroll_password(scheme, shifted(POINTS, i))
            sharded.put(f"user{i}", record)
            flat.put(f"user{i}", record)
        # One stolen artifact: merging the shards equals the flat file.
        assert sharded.dump() == flat.dump()
        sharded.close()

    def test_meta_replicates_to_every_shard(self, tmp_path):
        backend = backend_from_uri("shards:memory:{0..2}")
        backend.put_meta("scheme", "centered")
        for shard in backend.shards:
            assert shard.get_meta("scheme") == "centered"
        assert backend.get_meta("scheme") == "centered"
        assert backend.meta_items() == (("scheme", "centered"),)

    def test_load_routes_through_hash_ring(self, tmp_path, scheme):
        donor = MemoryBackend()
        for i in range(10):
            donor.put(f"user{i}", enroll_password(scheme, shifted(POINTS, i)))
        backend = backend_from_uri("shards:memory:{0..2}")
        backend.load(donor.dump())
        assert backend.usernames() == donor.usernames()
        for i in range(10):
            username = f"user{i}"
            assert username in backend.shards[backend.shard_index_for(username)]


class TestRebalance:
    def _locked_store(self, backend, system, max_failures=2):
        store = PasswordStore(
            system=system,
            policy=LockoutPolicy(max_failures=max_failures),
            backend=backend,
        )
        store.create_account("alice", POINTS)
        store.create_account("bob", shifted(POINTS, 7))
        for _ in range(max_failures):
            assert not store.login("alice", shifted(POINTS, 30, 30))
        assert store.is_locked("alice")
        return store

    def test_lockout_survives_shard_rebalancing(self, tmp_path, system):
        """4 shards -> 2 shards: records, partial streaks and lockouts move."""
        old = backend_from_uri(f"shards:sqlite:{tmp_path / 'old'}{{0..3}}.db")
        old.put_meta("scheme", "centered")
        store = self._locked_store(old, system)
        assert not store.login("bob", shifted(POINTS, 30, 30))  # partial streak

        new = backend_from_uri(f"shards:sqlite:{tmp_path / 'new'}{{0..1}}.db")
        moved = rebalance(old, new)
        assert moved == 2
        assert new.dump() == old.dump()
        assert new.meta_items() == old.meta_items()
        old.close()

        restored = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=2), backend=new
        )
        assert restored.is_locked("alice")
        with pytest.raises(LockoutError):
            restored.login("alice", POINTS)
        # Bob's one-failure streak also moved: one more failure locks him.
        assert restored.throttle_for("bob").failures == 1
        assert not restored.login("bob", shifted(POINTS, 30, 30))
        assert restored.is_locked("bob")
        new.close()

    def test_lockout_survives_rebalanced_reopen(self, tmp_path, system):
        """Rebalance, close everything, reopen the new layout from disk."""
        old = backend_from_uri(f"shards:sqlite:{tmp_path / 'a'}{{0..2}}.db")
        self._locked_store(old, system)
        new = backend_from_uri(f"shards:sqlite:{tmp_path / 'b'}{{0..4}}.db")
        rebalance(old, new)
        old.close()
        new.close()

        reopened = backend_from_uri(f"shards:sqlite:{tmp_path / 'b'}{{0..4}}.db")
        store = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=2), backend=reopened
        )
        assert store.usernames == ("alice", "bob")
        assert store.is_locked("alice")
        assert store.login("bob", shifted(POINTS, 7))
        reopened.close()

    def test_rebalance_into_unsharded_backend(self, tmp_path, system):
        """Sharded -> single file is just another rebalance."""
        old = backend_from_uri(f"shards:sqlite:{tmp_path / 'c'}{{0..2}}.db")
        self._locked_store(old, system)
        flat = SQLiteBackend(str(tmp_path / "flat.db"))
        assert rebalance(old, flat) == 2
        store = PasswordStore(
            system=system, policy=LockoutPolicy(max_failures=2), backend=flat
        )
        assert store.is_locked("alice")
        assert store.login("bob", shifted(POINTS, 7))
        old.close()
        flat.close()


class TestThrottleState:
    def test_state_round_trip(self):
        policy = LockoutPolicy(max_failures=3, delay_base_seconds=1)
        throttle = AccountThrottle(policy)
        throttle.record(False)
        throttle.record(False)
        restored = AccountThrottle.from_state(policy, throttle.state())
        assert restored.failures == 2
        assert restored.accumulated_delay == throttle.accumulated_delay
        assert not restored.locked

    def test_store_dump_identical_across_backends(self, tmp_path, system):
        dumps = []
        for kind in BACKENDS:
            (tmp_path / kind).mkdir(exist_ok=True)
            backend = make_backend(kind, tmp_path / kind)
            store = PasswordStore(system=system, backend=backend)
            store.create_account("alice", POINTS)
            store.create_account("bob", shifted(POINTS, 7))
            dumps.append(store.dump_records())
            backend.close()
        assert len(set(dumps)) == 1
