"""Property tests for the group-commit write path (ISSUE-10).

The batched write path — ``put_many`` / ``put_throttle_many`` /
``write_batch`` plus the flush-end throttle persist and ``enroll_many``
— is a pure durability optimization: for any attempt stream it must
produce the identical accept/reject/lockout sequence, identical persisted
throttle state, and byte-identical ``dump()`` password files as the
historical per-record-commit path, across all three schemes and all three
backends.  On top of the equivalence property this file pins the
per-backend atomicity contracts (SQLite all-or-nothing rollback, sharded
per-shard atomicity), ``enroll_many`` validation, and the base-class
fallbacks a minimal third-party backend inherits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.centered import CenteredDiscretization
from repro.core.robust import RobustDiscretization
from repro.core.static import StaticGridScheme
from repro.errors import StoreError
from repro.geometry.point import Point
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import LockoutPolicy
from repro.passwords.service import VerificationService
from repro.passwords.storage import (
    SQLiteBackend,
    StorageBackend,
    backend_from_uri,
    commit_mode,
)
from repro.passwords.store import PasswordStore
from repro.passwords.system import enroll_password
from repro.study.image import cars_image

SCHEMES = {
    "centered": lambda: CenteredDiscretization.for_pixel_tolerance(2, 9),
    "robust": lambda: RobustDiscretization.for_pixel_tolerance(2, 9),
    "static": lambda: StaticGridScheme(dim=2, cell_size=19),
}

BACKENDS = ["memory", "sqlite", "shards"]

POINTS = [
    Point.xy(42, 61),
    Point.xy(130, 88),
    Point.xy(227, 154),
    Point.xy(318, 222),
    Point.xy(401, 290),
]


def make_backend(kind: str, tmp_path, tag: str):
    if kind == "memory":
        return backend_from_uri("memory:")
    if kind == "sqlite":
        return backend_from_uri(f"sqlite:{tmp_path / f'{tag}.db'}")
    if kind == "shards":
        return backend_from_uri(
            f"shards:sqlite:{tmp_path / f'{tag}-shard'}{{0..2}}.db"
        )
    raise ValueError(kind)


def random_password(rng, image):
    return [
        Point.xy(int(x), int(y))
        for x, y in zip(
            rng.integers(30, image.width - 30, size=5),
            rng.integers(30, image.height - 30, size=5),
        )
    ]


def random_stream(rng, accounts, image, length):
    """A mixed attempt stream: exact, within-tolerance, wrong, repeated."""
    names = list(accounts)
    stream = []
    for _ in range(length):
        username = names[int(rng.integers(len(names)))]
        points = accounts[username]
        kind = int(rng.integers(4))
        if kind == 0:  # exact
            attempt = list(points)
        elif kind == 1:  # small jitter (often within tolerance)
            attempt = [
                Point.xy(int(p.x) + int(rng.integers(-4, 5)),
                         int(p.y) + int(rng.integers(-4, 5)))
                for p in points
            ]
        elif kind == 2:  # clearly wrong
            attempt = [Point.xy(int(p.x) - 25, int(p.y) + 25) for p in points]
        else:  # fresh random guess
            attempt = random_password(rng, image)
        stream.append((username, attempt))
    return stream


def build_store(scheme_name, backend, policy, group_commit):
    system = PassPointsSystem(image=cars_image(), scheme=SCHEMES[scheme_name]())
    return PasswordStore(
        system=system, policy=policy, backend=backend, group_commit=group_commit
    )


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("backend_kind", BACKENDS)
def test_batched_path_identical_to_per_record(scheme_name, backend_kind, tmp_path):
    """Decisions, lockouts, throttle bytes, dump() — identical both modes."""
    image = cars_image()
    for seed in (2008, 1387):
        rng = np.random.default_rng(seed)
        accounts = {f"user{i}": random_password(rng, image) for i in range(6)}
        stream = random_stream(rng, accounts, image, 120)
        # Randomized interleaving: submit in bursts of random size, flush
        # between bursts — both modes replay the identical schedule.
        bursts = []
        remaining = len(stream)
        while remaining:
            size = int(rng.integers(1, 33))
            bursts.append(min(size, remaining))
            remaining -= bursts[-1]

        stores = {}
        for mode, group_commit in (("group", True), ("record", False)):
            backend = make_backend(
                backend_kind, tmp_path, f"{scheme_name}-{seed}-{mode}"
            )
            store = build_store(
                scheme_name, backend, LockoutPolicy(max_failures=3), group_commit
            )
            if group_commit:  # bulk path on one side, scalar loop on the other
                store.enroll_many(list(accounts.items()))
            else:
                for username, points in accounts.items():
                    store.create_account(username, points)
            stores[mode] = store

        statuses = {}
        for mode, store in stores.items():
            service = VerificationService(store, max_batch=16)
            decided = []
            cursor = 0
            for size in bursts:
                for username, attempt in stream[cursor : cursor + size]:
                    service.submit(username, attempt)
                cursor += size
                decided.extend(outcome.status for outcome in service.flush())
            statuses[mode] = decided

        assert statuses["group"] == statuses["record"]
        assert "locked" in statuses["group"]  # the stream exercises lockouts
        group, record = stores["group"], stores["record"]
        assert group.backend.dump() == record.backend.dump()
        for username in accounts:
            assert group.backend.get_throttle(
                username
            ) == record.backend.get_throttle(username), username
            assert group.is_locked(username) == record.is_locked(username)
        group.backend.close()
        record.backend.close()


class TestSQLiteAtomicity:
    def _record(self, shift=0):
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        return enroll_password(
            scheme, [Point.xy(int(p.x) + shift, int(p.y)) for p in POINTS]
        )

    def test_failing_write_rolls_back_whole_batch(self, tmp_path):
        """A StoreError inside write_batch leaves no trace of the batch."""
        path = str(tmp_path / "atomic.db")
        backend = SQLiteBackend(path)
        backend.put("existing", self._record())
        with pytest.raises(StoreError):
            with backend.write_batch():
                backend.put("alice", self._record(3))
                backend.put_throttle("alice", {"failures": 1, "locked": False})
                backend.put_meta("scheme", "centered")
                backend.delete("ghost")  # unknown account -> StoreError
        assert backend.usernames() == ("existing",)
        assert backend.get("alice") is None
        assert backend.get_throttle("alice") is None
        assert backend.get_meta("scheme") is None
        backend.close()
        # The rollback is durable too: a reopen sees only the pre-batch row.
        reopened = SQLiteBackend(path)
        assert reopened.usernames() == ("existing",)
        reopened.close()

    def test_raise_inside_batch_discards_bulk_writes(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "bulk.db"))
        with pytest.raises(RuntimeError):
            with backend.write_batch():
                backend.put_many(
                    [(f"user{i}", self._record(i)) for i in range(5)]
                )
                backend.put_throttle_many(
                    [(f"user{i}", {"failures": i}) for i in range(5)]
                )
                raise RuntimeError("abort the batch")
        assert backend.usernames() == ()
        assert backend.get_throttle("user0") is None
        backend.close()

    def test_point_reads_see_batch_snapshot_scans_do_not(self, tmp_path):
        """Writer-connection reads observe the open batch; the read-only
        snapshot (iter_records / usernames / dump) stays pre-batch until
        commit."""
        backend = SQLiteBackend(str(tmp_path / "snap.db"))
        backend.put("alice", self._record())
        with backend.write_batch():
            backend.put("bob", self._record(7))
            assert backend.get("bob") is not None  # the batch's own write
            assert [u for u, _ in backend.iter_records()] == ["alice"]
            assert backend.usernames() == ("alice",)
        assert backend.usernames() == ("alice", "bob")
        backend.close()

    def test_nested_batches_join_the_outer_commit(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "nested.db"))
        with backend.write_batch():
            backend.put("a", self._record())
            with backend.write_batch():
                backend.put("b", self._record(3))
            # The inner exit must not commit: still invisible to snapshots.
            assert backend.usernames() == ()
        assert backend.usernames() == ("a", "b")
        backend.close()


class TestShardedBatching:
    def test_put_many_routes_by_hash_ring(self, tmp_path):
        backend = backend_from_uri("shards:memory:{0..2}")
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        records = [
            (
                f"user{i}",
                enroll_password(
                    scheme, [Point.xy(int(p.x) + i, int(p.y)) for p in POINTS]
                ),
            )
            for i in range(20)
        ]
        backend.put_many(records)
        backend.put_throttle_many(
            [(username, {"failures": 1}) for username, _ in records]
        )
        for username, _ in records:
            owner = backend.shard_index_for(username)
            for index, shard in enumerate(backend.shards):
                assert (username in shard) == (index == owner)
                assert (shard.get_throttle(username) is not None) == (
                    index == owner
                )

    def test_batch_failure_rolls_back_every_sqlite_shard(self, tmp_path):
        backend = backend_from_uri(f"shards:sqlite:{tmp_path / 's'}{{0..2}}.db")
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        with pytest.raises(RuntimeError):
            with backend.write_batch():
                backend.put_many(
                    [
                        (
                            f"user{i}",
                            enroll_password(
                                scheme,
                                [Point.xy(int(p.x) + i, int(p.y)) for p in POINTS],
                            ),
                        )
                        for i in range(9)
                    ]
                )
                raise RuntimeError("abort")
        # Homogeneous sqlite shards: each child batch rolled back, so the
        # failed batch left no partial shard behind.
        assert backend.usernames() == ()
        assert all(len(shard) == 0 for shard in backend.shards)
        backend.close()


class TestEnrollManyValidation:
    def _store(self, tmp_path, tag):
        backend = make_backend("sqlite", tmp_path, tag)
        system = PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, 9),
        )
        return PasswordStore(system=system, backend=backend, group_commit=True)

    def test_duplicate_in_batch_writes_nothing(self, tmp_path):
        store = self._store(tmp_path, "dup")
        with pytest.raises(StoreError, match="duplicate"):
            store.enroll_many([("alice", POINTS), ("alice", POINTS)])
        assert store.usernames == ()
        store.backend.close()

    def test_existing_account_refuses_whole_batch(self, tmp_path):
        store = self._store(tmp_path, "exists")
        store.create_account("alice", POINTS)
        shifted = [Point.xy(int(p.x) + 5, int(p.y)) for p in POINTS]
        with pytest.raises(StoreError, match="already exists"):
            store.enroll_many([("bob", shifted), ("alice", POINTS)])
        # Validation ran before any write: bob was not half-enrolled.
        assert store.usernames == ("alice",)
        assert store.backend.get_throttle("bob") is None
        store.backend.close()

    def test_enrolled_accounts_serve_logins(self, tmp_path):
        store = self._store(tmp_path, "serve")
        shifted = [Point.xy(int(p.x) + 5, int(p.y)) for p in POINTS]
        assert store.enroll_many([("alice", POINTS), ("bob", shifted)]) == 2
        assert store.usernames == ("alice", "bob")
        assert store.login("alice", POINTS)
        assert store.login("bob", shifted)
        wrong = [Point.xy(int(p.x) + 30, int(p.y) + 30) for p in POINTS]
        assert not store.login("alice", wrong)
        store.backend.close()


class MinimalBackend(StorageBackend):
    """The smallest legal third-party backend: abstract methods only.

    Inherits the base-class group-commit fallbacks — ``put_many`` /
    ``put_throttle_many`` loop per record and ``write_batch`` applies
    writes immediately — so code written against the batched API keeps
    working on backends that predate it.
    """

    def __init__(self):
        self.uri = "minimal:"
        self._records = {}
        self._throttles = {}
        self._meta = {}

    def put(self, username, stored):
        """Insert or replace one record."""
        self._records[username] = stored

    def get(self, username):
        """One record or ``None``."""
        return self._records.get(username)

    def delete(self, username):
        """Drop one account."""
        if username not in self._records:
            raise StoreError(f"unknown account {username!r}")
        del self._records[username]
        self._throttles.pop(username, None)

    def usernames(self):
        """Sorted account names."""
        return tuple(sorted(self._records))

    def clear(self):
        """Drop all records and throttles."""
        self._records.clear()
        self._throttles.clear()

    def put_throttle(self, username, state):
        """Persist one throttle state."""
        self._throttles[username] = dict(state)

    def get_throttle(self, username):
        """One throttle state or ``None``."""
        state = self._throttles.get(username)
        return dict(state) if state is not None else None

    def put_meta(self, key, value):
        """Persist one metadata string."""
        self._meta[key] = value

    def get_meta(self, key):
        """One metadata string or ``None``."""
        return self._meta.get(key)


class TestBaseClassFallbacks:
    def test_minimal_backend_supports_the_batched_api(self, tmp_path):
        backend = MinimalBackend()
        system = PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, 9),
        )
        store = PasswordStore(system=system, backend=backend, group_commit=True)
        shifted = [Point.xy(int(p.x) + 5, int(p.y)) for p in POINTS]
        assert store.enroll_many([("alice", POINTS), ("bob", shifted)]) == 2
        assert backend.usernames() == ("alice", "bob")
        assert store.login("alice", POINTS)
        store.persist_throttles(["alice", "bob"])
        assert backend.get_throttle("alice") is not None

    def test_base_write_batch_applies_immediately(self):
        backend = MinimalBackend()
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        with backend.write_batch() as inner:
            assert inner is backend
            backend.put("alice", enroll_password(scheme, POINTS))
            assert backend.get("alice") is not None  # no deferral


class TestCommitMode:
    def test_default_and_env_spellings(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_COMMIT", raising=False)
        assert commit_mode() == "group"
        for spelling in ("per-record", "per_record", "record", " Per-Record "):
            monkeypatch.setenv("REPRO_STORE_COMMIT", spelling)
            assert commit_mode() == "per-record"
        monkeypatch.setenv("REPRO_STORE_COMMIT", "group")
        assert commit_mode() == "group"
        monkeypatch.setenv("REPRO_STORE_COMMIT", "frobnicate")
        assert commit_mode() == "group"  # unknown values fail open

    def test_store_override_beats_environment(self, monkeypatch):
        system = PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, 9),
        )
        monkeypatch.setenv("REPRO_STORE_COMMIT", "per-record")
        from repro.passwords.storage import MemoryBackend

        assert not PasswordStore(
            system=system, backend=MemoryBackend()
        ).batched_writes
        assert PasswordStore(
            system=system, backend=MemoryBackend(), group_commit=True
        ).batched_writes
        monkeypatch.setenv("REPRO_STORE_COMMIT", "group")
        assert PasswordStore(
            system=system, backend=MemoryBackend()
        ).batched_writes
        assert not PasswordStore(
            system=system, backend=MemoryBackend(), group_commit=False
        ).batched_writes
