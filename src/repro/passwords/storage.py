"""Pluggable storage backends for the password store.

The paper's deployment story (§3.1–3.2, §5.1) is a server holding salted
hash records and throttling logins.  This module makes that server state a
real, swappable subsystem: a :class:`StorageBackend` holds, per account,

* the :class:`~repro.passwords.system.StoredPassword` record (clear public
  material + salted digest — exactly what an offline attacker steals), and
* the account's throttle state (§5.1 lockout counters), persisted so that
  lockout survives a process restart.

Four implementations ship:

* :class:`MemoryBackend` — the original in-process dict (tests, simulations);
* :class:`SQLiteBackend` — a durable single-file database in WAL journal
  mode, so enrolled populations survive across attack/experiment runs and
  concurrent readers (attack grinds against a live store) never block the
  login writer;
* :class:`JsonlBackend` — an append-only JSON-lines log replayed at open,
  the "flat password file" deployment shape;
* :class:`ShardedBackend` — a consistent-hash router spreading usernames
  across N child backends, the multi-process serving shape.

Backends are addressed by URI — ``memory:``, ``sqlite:PATH``,
``jsonl:PATH``, ``shards:CHILD{A..B}`` — via :func:`backend_from_uri`; the
CLI ``repro store`` / ``repro serve`` / ``repro flood`` subcommands operate
on these URIs.

Every backend also speaks the **group-commit** protocol —
:meth:`~StorageBackend.put_many`, :meth:`~StorageBackend.put_throttle_many`
and the :meth:`~StorageBackend.write_batch` context — which coalesces many
writes into one durable commit (one SQLite transaction, one buffered JSONL
write + flush, a per-ring-slice fan-out for shards).  The serving hot
paths (``VerificationService.flush`` throttle persists, bulk enrollment)
ride this protocol; :func:`commit_mode` / ``$REPRO_STORE_COMMIT`` can
force them back to one commit per record, which is what the durable
benchmark compares against.  A backend's :meth:`~StorageBackend.dump` is the portable
password-file artifact (same JSON for every backend, shards merged): the
offline attacks in :mod:`repro.attacks.offline` consume it directly, so
stealing a sharded deployment still yields one file.
"""

from __future__ import annotations

import abc
import bisect
import contextlib
import hashlib
import heapq
import json
import os
import re
import sqlite3
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.passwords.system import StoredPassword

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "JsonlBackend",
    "ShardedBackend",
    "backend_from_uri",
    "commit_mode",
    "rebalance",
]


def commit_mode() -> str:
    """The process-wide storage commit mode: ``"group"`` or ``"per-record"``.

    Controlled by ``$REPRO_STORE_COMMIT``.  ``"group"`` (the default) lets
    the hot paths — :meth:`~repro.passwords.service.VerificationService.flush`
    throttle persists, :meth:`~repro.passwords.store.PasswordStore.enroll_many`
    — coalesce their durable writes through :meth:`StorageBackend.put_many`
    / :meth:`StorageBackend.put_throttle_many` /
    :meth:`StorageBackend.write_batch`; ``"per-record"`` forces one commit
    per write, the pre-group-commit behaviour the durable benchmark gates
    against.  An explicit ``PasswordStore(group_commit=...)`` overrides
    this for that store.
    """
    value = os.environ.get("REPRO_STORE_COMMIT", "group").strip().lower()
    if value in ("per-record", "per_record", "record"):
        return "per-record"
    return "group"


class StorageBackend(abc.ABC):
    """Persistence contract between :class:`~repro.passwords.store.PasswordStore`
    and its storage medium.

    Implementations store three kinds of state:

    * **records** — ``username -> StoredPassword`` (the password file);
    * **throttle state** — ``username -> dict`` (§5.1 lockout counters,
      shaped by :meth:`~repro.passwords.policy.AccountThrottle.state`);
    * **meta** — small string key/values describing the deployment
      (scheme, image, tolerance) so a reopened backend can reconstruct
      its verifier.

    All usernames are unicode strings; all writes must be visible to a
    subsequent read through the same backend instance, and — for durable
    backends — through a new instance opened on the same location.
    """

    #: The URI this backend was constructed from (for display/round-trips).
    uri: str = "memory:"

    # -- records ------------------------------------------------------------

    @abc.abstractmethod
    def put(self, username: str, stored: StoredPassword) -> None:
        """Insert or replace the record for *username*."""

    @abc.abstractmethod
    def get(self, username: str) -> Optional[StoredPassword]:
        """The record for *username*, or ``None`` when unknown."""

    @abc.abstractmethod
    def delete(self, username: str) -> None:
        """Remove an account's record and throttle state.

        Raises :class:`~repro.errors.StoreError` for unknown accounts.
        """

    @abc.abstractmethod
    def usernames(self) -> Tuple[str, ...]:
        """All account names, sorted for determinism."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every record and all throttle state (meta survives)."""

    def iter_records(self) -> Iterator[Tuple[str, StoredPassword]]:
        """Yield ``(username, record)`` pairs in sorted username order."""
        for username in self.usernames():
            record = self.get(username)
            if record is not None:
                yield username, record

    def __contains__(self, username: str) -> bool:
        return self.get(username) is not None

    def __len__(self) -> int:
        return len(self.usernames())

    # -- throttle state -----------------------------------------------------

    @abc.abstractmethod
    def put_throttle(self, username: str, state: dict) -> None:
        """Persist an account's throttle state (JSON-serializable dict)."""

    @abc.abstractmethod
    def get_throttle(self, username: str) -> Optional[dict]:
        """The persisted throttle state, or ``None`` when never recorded."""

    # -- group commit -------------------------------------------------------

    def put_many(self, items: Iterable[Tuple[str, StoredPassword]]) -> None:
        """Insert or replace many records in one group commit.

        Equivalent to calling :meth:`put` per pair — same final state,
        same read-back bytes — but durable backends coalesce the batch
        into a single commit (one SQLite transaction, one buffered JSONL
        write + flush).  This base implementation loops per-record, so
        minimal third-party backends keep working unchanged.
        """
        for username, stored in items:
            self.put(username, stored)

    def put_throttle_many(self, items: Iterable[Tuple[str, dict]]) -> None:
        """Persist many accounts' throttle states in one group commit.

        The batched counterpart of :meth:`put_throttle`, with the same
        per-backend coalescing contract as :meth:`put_many`; the base
        implementation loops per-record.
        """
        for username, state in items:
            self.put_throttle(username, state)

    @contextlib.contextmanager
    def write_batch(self) -> Iterator["StorageBackend"]:
        """Coalesce mixed record/throttle/meta writes into one commit.

        Inside the ``with`` block every mutation through this backend —
        ``put``, ``put_throttle``, ``put_meta``, ``delete``, ``clear``,
        and the ``*_many`` bulk forms — is deferred into a single commit
        applied at successful exit.  Atomicity on failure is per-backend
        (see each implementation's docstring and the batching-contract
        table in ``docs/architecture.md``): SQLite and JSONL roll the
        whole batch back, memory applies writes immediately, a sharded
        batch is atomic per shard only.  Reads of a single account
        (``get`` / ``get_throttle`` / ``get_meta``) observe the batch's
        own writes; population scans may not until it commits.

        This base implementation applies writes immediately (the
        per-record path), so third-party backends inherit correct —
        just uncoalesced — behaviour.
        """
        yield self

    # -- meta ---------------------------------------------------------------

    @abc.abstractmethod
    def put_meta(self, key: str, value: str) -> None:
        """Persist one deployment-metadata string."""

    @abc.abstractmethod
    def get_meta(self, key: str) -> Optional[str]:
        """Read one deployment-metadata string, or ``None``."""

    def meta_items(self) -> Tuple[Tuple[str, str], ...]:
        """All persisted metadata pairs, sorted by key.

        Used by :func:`rebalance` to carry the deployment description to a
        new shard layout; the base implementation returns nothing, so
        minimal third-party backends stay valid.
        """
        return ()

    # -- password file ------------------------------------------------------

    def dump(self) -> str:
        """Serialize the *password file* (records only) to JSON.

        This is the artifact offline attacks assume stolen: public
        material, digests, salts and hashing parameters — no throttle
        state and, of course, no click-points.  The format is identical
        across backends, so a population enrolled into SQLite can be
        attacked from a JSONL steal and vice versa.
        """
        payload = {
            username: stored.to_json() for username, stored in self.iter_records()
        }
        return json.dumps(payload, sort_keys=True)

    def load(self, payload: str) -> None:
        """Replace all records with a password file produced by :meth:`dump`.

        Existing accounts are dropped; throttle states reset.
        """
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise StoreError(f"malformed password file: {exc}") from exc
        records = {
            username: StoredPassword.from_json(stored)
            for username, stored in data.items()
        }
        self.clear()
        self.put_many(records.items())

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release any underlying resources (no-op for memory)."""


class MemoryBackend(StorageBackend):
    """The original in-process dict backend (nothing survives the process)."""

    def __init__(self) -> None:
        self.uri = "memory:"
        self._records: Dict[str, StoredPassword] = {}
        self._throttles: Dict[str, dict] = {}
        self._meta: Dict[str, str] = {}

    def put(self, username: str, stored: StoredPassword) -> None:
        """Insert or replace the record for *username*."""
        self._records[username] = stored

    def get(self, username: str) -> Optional[StoredPassword]:
        """The record for *username*, or ``None`` when unknown."""
        return self._records.get(username)

    def delete(self, username: str) -> None:
        """Remove an account's record and throttle state."""
        if username not in self._records:
            raise StoreError(f"unknown account {username!r}")
        del self._records[username]
        self._throttles.pop(username, None)

    def usernames(self) -> Tuple[str, ...]:
        """All account names, sorted."""
        return tuple(sorted(self._records))

    def clear(self) -> None:
        """Drop every record and all throttle state."""
        self._records.clear()
        self._throttles.clear()

    def put_many(self, items: Iterable[Tuple[str, StoredPassword]]) -> None:
        """Insert or replace many records (one dict update)."""
        self._records.update(items)

    def put_throttle(self, username: str, state: dict) -> None:
        """Persist an account's throttle state."""
        self._throttles[username] = dict(state)

    def put_throttle_many(self, items: Iterable[Tuple[str, dict]]) -> None:
        """Persist many accounts' throttle states (one dict update)."""
        self._throttles.update((username, dict(state)) for username, state in items)

    def get_throttle(self, username: str) -> Optional[dict]:
        """The persisted throttle state, or ``None``."""
        state = self._throttles.get(username)
        return dict(state) if state is not None else None

    def put_meta(self, key: str, value: str) -> None:
        """Persist one metadata string."""
        self._meta[key] = value

    def get_meta(self, key: str) -> Optional[str]:
        """Read one metadata string, or ``None``."""
        return self._meta.get(key)

    def meta_items(self) -> Tuple[Tuple[str, str], ...]:
        """All persisted metadata pairs, sorted by key."""
        return tuple(sorted(self._meta.items()))


class SQLiteBackend(StorageBackend):
    """Durable single-file backend on the stdlib :mod:`sqlite3`.

    Three tables — ``records``, ``throttles``, ``meta`` — each keyed by
    name with a JSON payload column.  Every write commits, so enrolled
    populations and lockout state survive process restarts; the database
    file *is* the stolen password file of the paper's offline-attack
    model (modulo the throttle/meta tables, which :meth:`dump` excludes).

    The connection runs in WAL journal mode with a busy timeout, and
    :meth:`dump` / :meth:`iter_records` / :meth:`usernames` read through
    a *fresh read-only connection*: an offline attack grinding a live
    store snapshots the password file without ever blocking the login
    writer (and cannot mutate it — the reader connection is opened
    ``mode=ro``).

    Group commit: :meth:`put_many` / :meth:`put_throttle_many` are one
    ``executemany`` transaction each, and :meth:`write_batch` wraps all
    enclosed writes in a single transaction that commits at exit — or
    rolls back *entirely* if any write inside it raises, which is the
    strongest atomicity in the backend family.
    """

    #: Milliseconds a connection waits on a locked database before failing.
    BUSY_TIMEOUT_MS = 5_000

    #: Rows fetched per cursor step while streaming :meth:`iter_records`.
    READ_CHUNK_ROWS = 1_024

    def __init__(self, path: str) -> None:
        self._path = str(path)
        self._batch_depth = 0
        self.uri = f"sqlite:{self._path}"
        self._conn = sqlite3.connect(self._path)
        self._conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
        # WAL lets readers proceed against a committed snapshot while a
        # writer holds the write lock; some filesystems refuse it, in
        # which case SQLite stays on its default rollback journal.
        row = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
        self._journal_mode = str(row[0]).lower() if row else "unknown"
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS records "
                "(username TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS throttles "
                "(username TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )

    @property
    def path(self) -> str:
        """Filesystem location of the database."""
        return self._path

    @property
    def journal_mode(self) -> str:
        """The journal mode actually in effect (``"wal"`` when supported)."""
        return self._journal_mode

    def _reader(self) -> Optional[sqlite3.Connection]:
        """A fresh read-only connection, or ``None`` when unavailable.

        Opened with SQLite's URI ``mode=ro``, so bulk reads (password-file
        theft, shard scans) run on their own snapshot and cannot write.
        """
        try:
            conn = sqlite3.connect(f"file:{self._path}?mode=ro", uri=True)
            conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            return conn
        except sqlite3.Error:
            return None

    def _txn(self):
        """The commit scope for one write: a transaction, or the open batch.

        Outside a :meth:`write_batch` this is the connection itself
        (``with conn:`` commits on exit, rolls back on exception — the
        historical one-commit-per-write behaviour).  Inside a batch the
        enclosing ``write_batch`` transaction owns the commit, so writes
        just execute into it.
        """
        if self._batch_depth:
            return contextlib.nullcontext(self._conn)
        return self._conn

    def iter_records(self) -> Iterator[Tuple[str, StoredPassword]]:
        """Yield ``(username, record)`` pairs in sorted username order.

        Streams through a dedicated read-only connection in
        ``fetchmany`` chunks of :data:`READ_CHUNK_ROWS` rows, so a
        10⁶-account dump or reshard scan never materializes the whole
        table and never blocks a concurrent writer; falls back to the
        writer connection if a reader cannot be opened.
        """
        reader = self._reader()
        conn = reader if reader is not None else self._conn
        try:
            cursor = conn.execute(
                "SELECT username, payload FROM records ORDER BY username"
            )
            while True:
                rows = cursor.fetchmany(self.READ_CHUNK_ROWS)
                if not rows:
                    break
                for username, payload in rows:
                    yield username, StoredPassword.from_json(json.loads(payload))
        finally:
            if reader is not None:
                reader.close()

    def put(self, username: str, stored: StoredPassword) -> None:
        """Insert or replace the record for *username* (committed)."""
        with self._txn():
            self._conn.execute(
                "INSERT OR REPLACE INTO records (username, payload) VALUES (?, ?)",
                (username, json.dumps(stored.to_json(), sort_keys=True)),
            )

    def put_many(self, items: Iterable[Tuple[str, StoredPassword]]) -> None:
        """Insert or replace many records in one ``executemany`` transaction."""
        rows = [
            (username, json.dumps(stored.to_json(), sort_keys=True))
            for username, stored in items
        ]
        with self._txn():
            self._conn.executemany(
                "INSERT OR REPLACE INTO records (username, payload) VALUES (?, ?)",
                rows,
            )

    def get(self, username: str) -> Optional[StoredPassword]:
        """The record for *username*, or ``None`` when unknown."""
        row = self._conn.execute(
            "SELECT payload FROM records WHERE username = ?", (username,)
        ).fetchone()
        if row is None:
            return None
        return StoredPassword.from_json(json.loads(row[0]))

    def delete(self, username: str) -> None:
        """Remove an account's record and throttle state (committed)."""
        with self._txn():
            cursor = self._conn.execute(
                "DELETE FROM records WHERE username = ?", (username,)
            )
            self._conn.execute(
                "DELETE FROM throttles WHERE username = ?", (username,)
            )
            if cursor.rowcount == 0:
                raise StoreError(f"unknown account {username!r}")

    def usernames(self) -> Tuple[str, ...]:
        """All account names, sorted (read off a snapshot connection).

        Routed through the same read-only reader as :meth:`iter_records`
        so a population listing during a login flood never contends with
        the writer; falls back to the writer connection when a reader
        cannot be opened (e.g. the database file does not exist yet).
        """
        reader = self._reader()
        conn = reader if reader is not None else self._conn
        try:
            rows = conn.execute(
                "SELECT username FROM records ORDER BY username"
            ).fetchall()
        finally:
            if reader is not None:
                reader.close()
        return tuple(row[0] for row in rows)

    def clear(self) -> None:
        """Drop every record and all throttle state (committed)."""
        with self._txn():
            self._conn.execute("DELETE FROM records")
            self._conn.execute("DELETE FROM throttles")

    def put_throttle(self, username: str, state: dict) -> None:
        """Persist an account's throttle state (committed)."""
        with self._txn():
            self._conn.execute(
                "INSERT OR REPLACE INTO throttles (username, payload) VALUES (?, ?)",
                (username, json.dumps(state, sort_keys=True)),
            )

    def put_throttle_many(self, items: Iterable[Tuple[str, dict]]) -> None:
        """Persist many throttle states in one ``executemany`` transaction."""
        rows = [
            (username, json.dumps(state, sort_keys=True))
            for username, state in items
        ]
        with self._txn():
            self._conn.executemany(
                "INSERT OR REPLACE INTO throttles (username, payload) VALUES (?, ?)",
                rows,
            )

    @contextlib.contextmanager
    def write_batch(self) -> Iterator["SQLiteBackend"]:
        """One transaction over every enclosed write — all or nothing.

        Commits at successful exit; any exception inside the block rolls
        the *whole* batch back (the atomicity test in
        ``tests/test_group_commit.py`` pins this down).  Nested batches
        join the outermost transaction.  Point reads through the writer
        connection (``get`` / ``get_throttle`` / ``get_meta``) see the
        batch's own uncommitted writes; snapshot reads
        (``iter_records`` / ``usernames`` / ``dump``) see the pre-batch
        state until commit.
        """
        if self._batch_depth:
            self._batch_depth += 1
            try:
                yield self
            finally:
                self._batch_depth -= 1
            return
        self._batch_depth = 1
        try:
            with self._conn:
                yield self
        finally:
            self._batch_depth = 0

    def get_throttle(self, username: str) -> Optional[dict]:
        """The persisted throttle state, or ``None``."""
        row = self._conn.execute(
            "SELECT payload FROM throttles WHERE username = ?", (username,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def put_meta(self, key: str, value: str) -> None:
        """Persist one metadata string (committed)."""
        with self._txn():
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, value),
            )

    def get_meta(self, key: str) -> Optional[str]:
        """Read one metadata string, or ``None``."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None else None

    def meta_items(self) -> Tuple[Tuple[str, str], ...]:
        """All persisted metadata pairs, sorted by key."""
        rows = self._conn.execute(
            "SELECT key, value FROM meta ORDER BY key"
        ).fetchall()
        return tuple((key, value) for key, value in rows)

    def close(self) -> None:
        """Close the database connection."""
        self._conn.close()


class JsonlBackend(StorageBackend):
    """Append-only JSON-lines event log, replayed into memory at open.

    Every mutation appends one event line — ``put``, ``delete``,
    ``throttle``, ``meta``, ``clear`` — and flushes, so the file on disk
    is always a valid history and the latest state is recovered by a
    linear replay.  This is the "flat password file" deployment shape,
    and doubles as an audit log of the account lifecycle.

    Group commit: :meth:`put_many` / :meth:`put_throttle_many` buffer
    their event lines and issue **one** multi-line write + one flush;
    :meth:`write_batch` extends that to mixed writes, and keeps an undo
    log so an exception inside the batch restores the in-memory state
    and writes nothing — the log never diverges from memory.  Because a
    log grows one event per mutation forever, :meth:`compact` rewrites
    it down to one event per live fact.
    """

    #: Live instances per absolute log path — the refuse-on-live-handle
    #: guard :meth:`compact` checks before swapping the file out from
    #: under a concurrent writer.  Weak references, so leaked (never
    #: closed, garbage-collected) backends do not pin the guard forever.
    _open_logs: Dict[str, "weakref.WeakSet"] = {}

    def __init__(self, path: str) -> None:
        self._path = str(path)
        self.uri = f"jsonl:{self._path}"
        self._records: Dict[str, StoredPassword] = {}
        self._throttles: Dict[str, dict] = {}
        self._meta: Dict[str, str] = {}
        self._buffer: Optional[List[str]] = None
        self._undo: List[tuple] = []
        if os.path.exists(self._path):
            self._replay()
        self._handle = open(self._path, "a", encoding="utf-8")
        self._abspath = os.path.abspath(self._path)
        self._open_logs.setdefault(self._abspath, weakref.WeakSet()).add(self)

    @property
    def path(self) -> str:
        """Filesystem location of the log."""
        return self._path

    def _replay(self) -> None:
        with open(self._path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                    self._apply(event)
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise StoreError(
                        f"{self._path}:{line_number}: malformed log event: {exc}"
                    ) from exc

    def _apply(self, event: dict) -> None:
        op = event["op"]
        if op == "put":
            self._records[event["username"]] = StoredPassword.from_json(
                event["record"]
            )
        elif op == "delete":
            self._records.pop(event["username"], None)
            self._throttles.pop(event["username"], None)
        elif op == "throttle":
            self._throttles[event["username"]] = event["state"]
        elif op == "meta":
            self._meta[event["key"]] = event["value"]
        elif op == "clear":
            self._records.clear()
            self._throttles.clear()
        else:
            raise StoreError(f"unknown log op {op!r}")

    def _emit(self, events: Sequence[dict]) -> None:
        """Write *events* as one buffered multi-line write + one flush.

        Inside an open :meth:`write_batch` the lines are deferred into
        the batch buffer instead, to be written at commit.
        """
        lines = [json.dumps(event, sort_keys=True) + "\n" for event in events]
        if self._buffer is not None:
            self._buffer.extend(lines)
            return
        self._handle.write("".join(lines))
        self._handle.flush()

    def _append(self, event: dict) -> None:
        self._emit((event,))

    def _note_record(self, username: str) -> None:
        """Record the undo entry for an imminent record mutation."""
        if self._buffer is not None:
            self._undo.append(("record", username, self._records.get(username)))

    def _note_throttle(self, username: str) -> None:
        """Record the undo entry for an imminent throttle mutation."""
        if self._buffer is not None:
            self._undo.append(("throttle", username, self._throttles.get(username)))

    def put(self, username: str, stored: StoredPassword) -> None:
        """Insert or replace the record for *username* (appended + flushed)."""
        self._note_record(username)
        self._records[username] = stored
        self._append({"op": "put", "username": username, "record": stored.to_json()})

    def put_many(self, items: Iterable[Tuple[str, StoredPassword]]) -> None:
        """Insert or replace many records: one buffered write, one flush."""
        events = []
        for username, stored in items:
            self._note_record(username)
            self._records[username] = stored
            events.append(
                {"op": "put", "username": username, "record": stored.to_json()}
            )
        if events:
            self._emit(events)

    def get(self, username: str) -> Optional[StoredPassword]:
        """The record for *username*, or ``None`` when unknown."""
        return self._records.get(username)

    def delete(self, username: str) -> None:
        """Remove an account (a ``delete`` event; the log keeps history)."""
        if username not in self._records:
            raise StoreError(f"unknown account {username!r}")
        self._note_record(username)
        self._note_throttle(username)
        del self._records[username]
        self._throttles.pop(username, None)
        self._append({"op": "delete", "username": username})

    def usernames(self) -> Tuple[str, ...]:
        """All account names, sorted."""
        return tuple(sorted(self._records))

    def clear(self) -> None:
        """Drop every record and all throttle state (a ``clear`` event)."""
        if self._buffer is not None:
            self._undo.append(
                ("snapshot", dict(self._records), dict(self._throttles))
            )
        self._records.clear()
        self._throttles.clear()
        self._append({"op": "clear"})

    def put_throttle(self, username: str, state: dict) -> None:
        """Persist an account's throttle state (appended + flushed)."""
        self._note_throttle(username)
        self._throttles[username] = dict(state)
        self._append({"op": "throttle", "username": username, "state": dict(state)})

    def put_throttle_many(self, items: Iterable[Tuple[str, dict]]) -> None:
        """Persist many throttle states: one buffered write, one flush."""
        events = []
        for username, state in items:
            self._note_throttle(username)
            state = dict(state)
            self._throttles[username] = state
            events.append({"op": "throttle", "username": username, "state": state})
        if events:
            self._emit(events)

    def get_throttle(self, username: str) -> Optional[dict]:
        """The persisted throttle state, or ``None``."""
        state = self._throttles.get(username)
        return dict(state) if state is not None else None

    def put_meta(self, key: str, value: str) -> None:
        """Persist one metadata string (appended + flushed)."""
        if self._buffer is not None:
            self._undo.append(("meta", key, self._meta.get(key)))
        self._meta[key] = value
        self._append({"op": "meta", "key": key, "value": value})

    def get_meta(self, key: str) -> Optional[str]:
        """Read one metadata string, or ``None``."""
        return self._meta.get(key)

    def meta_items(self) -> Tuple[Tuple[str, str], ...]:
        """All persisted metadata pairs, sorted by key."""
        return tuple(sorted(self._meta.items()))

    def _rollback(self, undo: Sequence[tuple]) -> None:
        """Rewind the in-memory state of an abandoned :meth:`write_batch`."""
        for entry in reversed(undo):
            kind = entry[0]
            if kind == "record":
                _, username, previous = entry
                if previous is None:
                    self._records.pop(username, None)
                else:
                    self._records[username] = previous
            elif kind == "throttle":
                _, username, previous = entry
                if previous is None:
                    self._throttles.pop(username, None)
                else:
                    self._throttles[username] = previous
            elif kind == "meta":
                _, key, previous = entry
                if previous is None:
                    self._meta.pop(key, None)
                else:
                    self._meta[key] = previous
            else:  # snapshot (clear inside a batch)
                _, records, throttles = entry
                self._records = records
                self._throttles = throttles

    @contextlib.contextmanager
    def write_batch(self) -> Iterator["JsonlBackend"]:
        """Defer every enclosed event into one multi-line write + flush.

        On success the buffered lines hit the log in one write; on
        failure *nothing* is written and the in-memory dicts are rewound
        through the undo log, so replaying the file still reconstructs
        exactly the live state.  Nested batches join the outer one.
        """
        if self._buffer is not None:
            yield self
            return
        self._buffer = []
        self._undo = []
        try:
            yield self
        except BaseException:
            self._buffer = None
            self._rollback(self._undo)
            self._undo = []
            raise
        buffer, self._buffer = self._buffer, None
        self._undo = []
        if buffer:
            self._handle.write("".join(buffer))
            self._handle.flush()

    def compact(self) -> Tuple[int, int]:
        """Rewrite the append-only log to one event per live fact.

        A served log accrues one ``throttle`` event per login forever;
        compaction rewrites it to the current state — every ``meta``
        pair, then one ``put`` and (when present) one ``throttle`` event
        per live account, in sorted order — via an atomic
        ``os.replace`` of a sibling temp file.  Returns ``(before,
        after)`` sizes in bytes.

        Refuses (:class:`~repro.errors.StoreError`) while a write batch
        is open or while any *other* live :class:`JsonlBackend` in this
        process holds the same log open — swapping the inode under a
        concurrent writer would silently fork the history.
        """
        if self._buffer is not None:
            raise StoreError(
                f"cannot compact {self._path!r} inside an open write_batch"
            )
        others = [
            backend
            for backend in self._open_logs.get(self._abspath, ())
            if backend is not self
        ]
        if others:
            raise StoreError(
                f"refusing to compact {self._path!r}: "
                f"{len(others)} other live handle(s) hold this log open"
            )
        self._handle.flush()
        before = os.path.getsize(self._path)
        events: List[dict] = [
            {"op": "meta", "key": key, "value": value}
            for key, value in sorted(self._meta.items())
        ]
        for username in sorted(self._records):
            events.append(
                {
                    "op": "put",
                    "username": username,
                    "record": self._records[username].to_json(),
                }
            )
        for username in sorted(self._throttles):
            events.append(
                {
                    "op": "throttle",
                    "username": username,
                    "state": self._throttles[username],
                }
            )
        temp_path = self._path + ".compact"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(
                "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
            )
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(temp_path, self._path)
        self._handle = open(self._path, "a", encoding="utf-8")
        return before, os.path.getsize(self._path)

    def close(self) -> None:
        """Close the log file handle (and drop the live-handle guard entry)."""
        open_set = self._open_logs.get(self._abspath)
        if open_set is not None:
            open_set.discard(self)
        self._handle.close()


def _ring_position(key: str) -> int:
    """Deterministic 64-bit position of *key* on the consistent-hash ring.

    Python's builtin ``hash`` is salted per process, so routing is pinned
    to a keyed-less blake2b instead: the same username lands on the same
    shard in every process that opens the store.  ``surrogatepass`` keeps
    the ring total over every ``str`` (a JSON frame can carry a lone
    surrogate); any other key encodes exactly as plain UTF-8.
    """
    digest = hashlib.blake2b(
        key.encode("utf-8", "surrogatepass"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Blake2b consistent-hash ring mapping string keys to shard indices.

    This is the routing brain shared by :class:`ShardedBackend` and the
    multi-process serving cluster's router: both sides build the ring from
    ``(shard_count, replicas)`` alone, so a router process and a backend
    opened elsewhere agree on every username's shard without exchanging
    any state.  Each shard contributes ``replicas`` virtual nodes at
    positions ``_ring_position(f"shard:{index}:{replica}")``; a key is
    owned by the first virtual node clockwise from its own position.
    """

    def __init__(self, shard_count: int, replicas: int = 64) -> None:
        if shard_count < 1:
            raise StoreError(f"ring needs at least one shard, got {shard_count}")
        if replicas < 1:
            raise StoreError(f"replicas must be >= 1, got {replicas}")
        self.shard_count = shard_count
        self.replicas = replicas
        ring = sorted(
            (_ring_position(f"shard:{index}:{replica}"), index)
            for index in range(shard_count)
            for replica in range(replicas)
        )
        self._keys = [position for position, _ in ring]
        self._values = [index for _, index in ring]

    def index_for(self, key: str) -> int:
        """The shard index that owns *key*."""
        position = _ring_position(key)
        slot = bisect.bisect_right(self._keys, position)
        return self._values[slot % len(self._values)]


class ShardedBackend(StorageBackend):
    """Consistent-hash router over N child backends.

    Usernames are routed to shards through a hash ring with
    ``replicas`` virtual nodes per shard, so the assignment is stable,
    deterministic across processes (blake2b, not the salted builtin
    ``hash``), and roughly balanced.  Per-account operations touch
    exactly one child; population-level operations (``usernames``,
    ``iter_records``, ``dump``, ``load``, ``clear``) merge or fan out
    across all of them, so a sharded deployment still produces the single
    portable password file the offline attacks consume — stealing the
    shards is stealing one artifact.

    Metadata writes replicate to every shard (each child must be able to
    describe the deployment on its own); reads take the first answer.
    """

    def __init__(
        self, shards: Sequence[StorageBackend], uri: Optional[str] = None,
        replicas: int = 64,
    ) -> None:
        if not shards:
            raise StoreError("ShardedBackend needs at least one child backend")
        if replicas < 1:
            raise StoreError(f"replicas must be >= 1, got {replicas}")
        self._shards: List[StorageBackend] = list(shards)
        self.uri = uri or f"shards[{','.join(s.uri for s in self._shards)}]"
        self._ring = ConsistentHashRing(len(self._shards), replicas)

    @property
    def shards(self) -> Tuple[StorageBackend, ...]:
        """The child backends, in shard-index order."""
        return tuple(self._shards)

    @property
    def ring(self) -> ConsistentHashRing:
        """The consistent-hash ring that routes usernames to shards."""
        return self._ring

    def shard_index_for(self, username: str) -> int:
        """The index of the child backend that owns *username*."""
        return self._ring.index_for(username)

    def shard_for(self, username: str) -> StorageBackend:
        """The child backend that owns *username*."""
        return self._shards[self.shard_index_for(username)]

    def _group_by_shard(self, items: Iterable[Tuple[str, object]]) -> Dict[int, list]:
        """Split ``(username, payload)`` pairs into per-shard slices."""
        grouped: Dict[int, list] = {}
        index_for = self._ring.index_for
        for username, payload in items:
            grouped.setdefault(index_for(username), []).append((username, payload))
        return grouped

    def put(self, username: str, stored: StoredPassword) -> None:
        """Insert or replace the record on the owning shard."""
        self.shard_for(username).put(username, stored)

    def put_many(self, items: Iterable[Tuple[str, StoredPassword]]) -> None:
        """Group records by ring slice; one batched put per touched shard."""
        for index, group in self._group_by_shard(items).items():
            self._shards[index].put_many(group)

    def get(self, username: str) -> Optional[StoredPassword]:
        """The record from the owning shard, or ``None`` when unknown."""
        return self.shard_for(username).get(username)

    def delete(self, username: str) -> None:
        """Remove an account from its owning shard."""
        self.shard_for(username).delete(username)

    def usernames(self) -> Tuple[str, ...]:
        """All account names across every shard, sorted."""
        merged: List[str] = []
        for shard in self._shards:
            merged.extend(shard.usernames())
        return tuple(sorted(merged))

    def clear(self) -> None:
        """Drop every record and all throttle state on every shard."""
        for shard in self._shards:
            shard.clear()

    def iter_records(self) -> Iterator[Tuple[str, StoredPassword]]:
        """Yield ``(username, record)`` pairs merged across shards, sorted.

        Each shard already yields in sorted username order (and shards are
        disjoint by routing), so this is a streaming k-way merge — S table
        scans, not one routed point query per account.
        """
        return heapq.merge(
            *(shard.iter_records() for shard in self._shards),
            key=lambda pair: pair[0],
        )

    def put_throttle(self, username: str, state: dict) -> None:
        """Persist throttle state on the owning shard."""
        self.shard_for(username).put_throttle(username, state)

    def put_throttle_many(self, items: Iterable[Tuple[str, dict]]) -> None:
        """Group throttle states by ring slice; one batched put per shard."""
        for index, group in self._group_by_shard(items).items():
            self._shards[index].put_throttle_many(group)

    @contextlib.contextmanager
    def write_batch(self) -> Iterator["ShardedBackend"]:
        """Open every child's write batch and fan enclosed writes out.

        Atomicity is **per shard**: each child commits (or rolls back)
        its own slice of the batch, and the commits land sequentially at
        exit — an exception raised while one shard commits can leave
        earlier shards committed.  Cross-shard writes are disjoint by
        routing, so this is the same consistency a per-record fan-out
        gives, minus N-1 commits per shard.
        """
        with contextlib.ExitStack() as stack:
            for shard in self._shards:
                stack.enter_context(shard.write_batch())
            yield self

    def get_throttle(self, username: str) -> Optional[dict]:
        """Throttle state from the owning shard, or ``None``."""
        return self.shard_for(username).get_throttle(username)

    def put_meta(self, key: str, value: str) -> None:
        """Replicate one metadata string to every shard."""
        for shard in self._shards:
            shard.put_meta(key, value)

    def get_meta(self, key: str) -> Optional[str]:
        """Read one metadata string (first shard that has it)."""
        for shard in self._shards:
            value = shard.get_meta(key)
            if value is not None:
                return value
        return None

    def meta_items(self) -> Tuple[Tuple[str, str], ...]:
        """Metadata pairs merged across shards (first writer wins per key)."""
        merged: Dict[str, str] = {}
        for shard in self._shards:
            for key, value in shard.meta_items():
                merged.setdefault(key, value)
        return tuple(sorted(merged.items()))

    def close(self) -> None:
        """Close every child backend."""
        for shard in self._shards:
            shard.close()


#: Accounts moved per batched commit while rebalancing between layouts —
#: bounds both the destination's transaction size and the JSONL batch
#: buffer, so migrating 10⁶ accounts never builds a 10⁶-line buffer.
REBALANCE_CHUNK = 1_024


def rebalance(source: StorageBackend, dest: StorageBackend, clear: bool = True) -> int:
    """Copy every account — record, throttle state, meta — into *dest*.

    By default *dest* is cleared first, then repopulated through its own
    routing, so moving a population between shard layouts (4 shards → 2,
    single file → sharded, …) preserves lockout state: an account locked
    on the old layout is still locked on the new one.  Pass
    ``clear=False`` for *incremental* migration — the online reshard drill
    drains one old shard at a time into an already-live destination
    layout, and clearing would drop the shards migrated earlier.  Returns
    the number of accounts moved.

    Writes land through the destination's group-commit path in chunks of
    :data:`REBALANCE_CHUNK` accounts — one batched commit per chunk
    instead of one per record — which is what keeps the live reshard
    drill's per-shard cutover window short on durable destinations.
    """
    if clear:
        dest.clear()
    moved = 0
    records: List[Tuple[str, StoredPassword]] = []
    throttles: List[Tuple[str, dict]] = []

    def _flush_chunk() -> None:
        nonlocal records, throttles
        with dest.write_batch():
            dest.put_many(records)
            dest.put_throttle_many(throttles)
        records = []
        throttles = []

    for username, record in source.iter_records():
        records.append((username, record))
        state = source.get_throttle(username)
        if state is not None:
            throttles.append((username, state))
        moved += 1
        if len(records) >= REBALANCE_CHUNK:
            _flush_chunk()
    if records or throttles:
        _flush_chunk()
    for key, value in source.meta_items():
        dest.put_meta(key, value)
    return moved


#: ``{A..B}`` range template inside a ``shards:`` URI.
_SHARD_RANGE = re.compile(r"\{(\d+)\.\.(\d+)\}")


def _expand_shard_uris(template: str) -> List[str]:
    """Expand one ``{A..B}`` range in a child-URI template.

    >>> _expand_shard_uris("sqlite:/tmp/s{0..2}.db")
    ['sqlite:/tmp/s0.db', 'sqlite:/tmp/s1.db', 'sqlite:/tmp/s2.db']
    """
    matches = list(_SHARD_RANGE.finditer(template))
    if len(matches) != 1:
        raise StoreError(
            f"shards: template needs exactly one {{A..B}} range, got {template!r}"
        )
    match = matches[0]
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise StoreError(f"empty shard range {match.group(0)!r} in {template!r}")
    return [
        template[: match.start()] + str(index) + template[match.end() :]
        for index in range(lo, hi + 1)
    ]


def backend_from_uri(uri: str) -> StorageBackend:
    """Construct a backend from a ``scheme:location`` URI.

    Supported schemes: ``memory:`` (location ignored), ``sqlite:PATH``,
    ``jsonl:PATH``, and ``shards:TEMPLATE`` where TEMPLATE is any other
    backend URI containing one ``{A..B}`` range — e.g.
    ``shards:sqlite:/tmp/s{0..3}.db`` routes usernames across four SQLite
    files by consistent hashing.

    >>> backend_from_uri("memory:").uri
    'memory:'
    """
    scheme, _, location = uri.partition(":")
    if scheme == "memory":
        return MemoryBackend()
    if scheme == "sqlite":
        if not location:
            raise StoreError(f"sqlite backend needs a path: {uri!r}")
        return SQLiteBackend(location)
    if scheme == "jsonl":
        if not location:
            raise StoreError(f"jsonl backend needs a path: {uri!r}")
        return JsonlBackend(location)
    if scheme == "shards":
        if not location:
            raise StoreError(f"shards backend needs a child template: {uri!r}")
        children = [backend_from_uri(child) for child in _expand_shard_uris(location)]
        return ShardedBackend(children, uri=uri)
    raise StoreError(
        f"unknown storage backend URI {uri!r} "
        "(expected memory:, sqlite:PATH, jsonl:PATH, or shards:TEMPLATE)"
    )
