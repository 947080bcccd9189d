"""Batched verification service: the "millions of users" login front-end.

:class:`~repro.passwords.store.PasswordStore` verifies one click-point at a
time through the scalar schemes — exact, never fast.  This module is the
serving shape the ROADMAP calls for: a :class:`VerificationService` accepts
enrollment and login attempts, groups pending logins into micro-batches,
and verifies each micro-batch through the NumPy batch engine
(:meth:`~repro.core.scheme.DiscretizationScheme.batch`) — one vectorized
``locate`` call answers the geometric half of every pending attempt at
once, and a per-account precomputed hash prefix reduces the crypto half to
one digest per attempt.

Semantics are preserved bit-for-bit relative to the scalar path:

* **decisions** — the batch kernels agree with the exact-rational scalar
  schemes on integer-pixel click-points (the float-exactness argument in
  :mod:`repro.core.batch`), and the digest bytes hashed here are
  byte-identical to :meth:`~repro.crypto.records.VerificationRecord.matches`;
* **lockout ordering** (§5.1) — attempts are *decided* sequentially in
  submission order against the same
  :class:`~repro.passwords.policy.AccountThrottle` objects the store uses,
  so a failure streak inside one micro-batch locks the account for the
  very next attempt, exactly as scalar :meth:`PasswordStore.login` would.
  ``tests/test_verification_service.py`` property-tests this equivalence
  across all three schemes and all three storage backends.

The one intentional divergence: structural validation happens in bulk —
unknown accounts and wrong click counts raise at :meth:`submit`,
out-of-image points raise when their micro-batch is converted (before any
of that batch's decisions) — rather than interleaved attempt-by-attempt.

Throughput is gated in ``benchmarks/test_bench_store.py``: the service
must beat the scalar login loop by ≥10x on a 10,000-attempt stream for
every scheme (see ``benchmarks/reports/store_throughput.txt``).
"""

from __future__ import annotations

import hashlib
import hmac
import time
from collections import Counter as _TallyCounter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import as_point_array
from repro.crypto.encoding import encode_scalar
from repro.errors import DomainError, ParameterError, VerificationError
from repro.geometry.point import Point
from repro.obs import LATENCY_BUCKETS, SIZE_BUCKETS, MetricsRegistry, get_registry
from repro.passwords.store import PasswordStore

__all__ = ["LoginOutcome", "VerificationService"]

#: Attempt statuses, in the vocabulary of the scalar path: ``accept`` /
#: ``reject`` mirror ``PasswordStore.login`` returning True/False;
#: ``locked`` mirrors it raising ``LockoutError``; ``throttled`` mirrors
#: it raising ``RateLimitError`` (refused by the defense's rate-limit
#: window, not evaluated, no slot consumed).
ACCEPT, REJECT, LOCKED, THROTTLED = "accept", "reject", "locked", "throttled"

#: Cache of canonical byte encodings for small secret indices (cell
#: indices are tiny ints, so the hit rate in a login flood is ~100%).
_INT_ENCODINGS: Dict[int, bytes] = {}


def _encode_int(value: int) -> bytes:
    """Cached :func:`~repro.crypto.encoding.encode_scalar` for an int."""
    cached = _INT_ENCODINGS.get(value)
    if cached is None:
        cached = encode_scalar(value)
        _INT_ENCODINGS[value] = cached
    return cached


@dataclass(frozen=True, slots=True)
class LoginOutcome:
    """Decision for one submitted login attempt.

    Attributes
    ----------
    username:
        The account the attempt targeted.
    status:
        ``"accept"``, ``"reject"``, ``"locked"`` (refused without being
        evaluated, as the scalar path's
        :class:`~repro.errors.LockoutError`), or ``"throttled"`` (refused
        by the defense rate limit, as the scalar path's
        :class:`~repro.errors.RateLimitError`).
    captcha:
        Whether the attempt was CAPTCHA-challenged — the account had
        accrued ``captcha_after`` consecutive failures *before* this
        attempt (see :class:`~repro.passwords.defense.DefenseConfig`).
        Advisory for human clients; a hard wall for the automated
        attackers in :mod:`repro.attacks.online`.
    """

    username: str
    status: str
    captcha: bool = False

    @property
    def accepted(self) -> bool:
        """Whether the attempt was verified successfully."""
        return self.status == ACCEPT

    @property
    def locked(self) -> bool:
        """Whether the attempt was refused because the account is locked."""
        return self.status == LOCKED

    @property
    def throttled(self) -> bool:
        """Whether the attempt was refused by the rate-limit window."""
        return self.status == THROTTLED


@dataclass(frozen=True)
class _AccountMaterial:
    """Per-account precomputation shared by every attempt on the account.

    ``prefix`` is the exact byte prefix of
    :func:`~repro.crypto.encoding.encode_scalars` over the record's hash
    material — count header plus encoded public scalars — so each attempt
    only encodes its candidate secret indices and hashes once.  ``rounds``
    and ``hash_new`` replicate
    :meth:`~repro.crypto.hashing.Hasher.digest` with the algorithm
    constructor resolved once instead of per call.
    """

    public_rows: np.ndarray
    prefix: bytes
    salt: bytes
    hash_new: Callable
    rounds: int
    digest: str
    clicks: int


class VerificationService:
    """Micro-batching front-end over a :class:`PasswordStore`.

    Parameters
    ----------
    store:
        The store to serve (its system, policy, and storage backend all
        apply unchanged; throttle state written by the service is the
        same state scalar logins read, and vice versa).
    max_batch:
        Micro-batch size: pending attempts are verified through the batch
        engine in groups of at most this many attempts per vectorized
        ``locate`` call.
    registry:
        :class:`~repro.obs.MetricsRegistry` receiving the service's
        telemetry — per-micro-batch kernel and hash/decision timings
        (``service_kernel_seconds`` / ``service_hash_seconds`` /
        ``service_flush_seconds``), batch-size histogram, per-status
        decision counters and defense-knob counters.  ``None`` (default)
        publishes into the process registry
        (:func:`repro.obs.get_registry`); pass
        :data:`~repro.obs.NULL_REGISTRY` for the uninstrumented no-op
        path (gated within 5% in ``benchmarks/test_bench_obs.py``).

    >>> # end-to-end usage lives in examples/storage_backends.py
    """

    def __init__(
        self,
        store: PasswordStore,
        max_batch: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self._store = store
        self._max_batch = max_batch
        self._pending: List[Tuple[str, Sequence[Point], _AccountMaterial]] = []
        self._materials: Dict[str, _AccountMaterial] = {}
        self._kernel = store.system.scheme.batch()
        # Instruments are resolved once; on a disabled registry they are
        # shared no-ops and the timed branches below are skipped outright.
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._obs_enabled = registry.enabled
        self._obs_kernel = registry.histogram(
            "service_kernel_seconds",
            help="vectorized locate() time per micro-batch",
        )
        self._obs_hash = registry.histogram(
            "service_hash_seconds",
            help="decision-loop (hash + throttle) time per micro-batch",
        )
        self._obs_flush = registry.histogram(
            "service_flush_seconds", help="whole flush() call time",
        )
        self._obs_batch = registry.histogram(
            "service_batch_size",
            help="attempts per micro-batch",
            buckets=SIZE_BUCKETS,
        )
        self._obs_status = {
            status: registry.counter(
                "service_logins_total",
                help="batched login decisions by status",
                status=status,
            )
            for status in (ACCEPT, REJECT, LOCKED, THROTTLED)
        }
        self._obs_defense = {
            LOCKED: registry.counter(
                "defense_refusals_total",
                help="attempts refused by a defense knob",
                knob="lockout",
            ),
            THROTTLED: registry.counter(
                "defense_refusals_total", knob="rate_limit",
            ),
        }
        self._obs_captcha = registry.counter(
            "defense_challenges_total",
            help="attempts carrying a CAPTCHA challenge",
            knob="captcha",
        )

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this service publishes into."""
        return self._registry

    @property
    def last_flush_timings(self) -> Optional[dict]:
        """Timing breakdown of the most recent flush (``None`` when the
        registry is disabled or before the first flush).

        Keys: ``kernel_seconds``, ``hash_seconds``, ``batches``,
        ``attempts`` — the numbers the async front-end copies onto its
        per-flush trace span.
        """
        return self.__dict__.get("_last_flush_timings")

    @property
    def store(self) -> PasswordStore:
        """The underlying password store."""
        return self._store

    @property
    def pending_count(self) -> int:
        """Number of submitted attempts not yet flushed."""
        return len(self._pending)

    # -- enrollment ---------------------------------------------------------

    def enroll(self, username: str, points: Sequence[Point]) -> None:
        """Register an account (delegates to the store's scalar path).

        Enrollment is rare and correctness-critical, so it stays on the
        exact-rational scalar scheme; only the login flood is batched.
        """
        self._store.create_account(username, points)

    # -- login intake -------------------------------------------------------

    def _material_for(self, username: str) -> _AccountMaterial:
        material = self._materials.get(username)
        stored = self._store.record_for(username)
        if material is not None and material.digest == stored.record.digest:
            return material
        record = stored.record
        hasher = record.hasher
        scalar_count = len(record.public) + stored.clicks * self._kernel.dim
        prefix = f"n:{scalar_count};".encode("ascii") + b"".join(
            encode_scalar(value) for value in record.public
        )
        material = _AccountMaterial(
            public_rows=self._kernel.public_rows(stored.publics),
            prefix=prefix,
            salt=hasher.salt,
            hash_new=getattr(hashlib, hasher.algorithm, None)
            or (lambda data, _name=hasher.algorithm: hashlib.new(_name, data)),
            rounds=hasher.iterations,
            digest=record.digest,
            clicks=stored.clicks,
        )
        self._materials[username] = material
        return material

    def submit(self, username: str, points: Sequence[Point]) -> int:
        """Queue one login attempt; returns its position in the queue.

        Unknown accounts (:class:`~repro.errors.StoreError`) and wrong
        click counts (:class:`~repro.errors.VerificationError`) raise
        here; out-of-image points raise from :meth:`flush` when their
        micro-batch is converted.
        """
        material = self._material_for(username)
        if len(points) != material.clicks:
            raise VerificationError(
                f"expected {material.clicks} click-points, got {len(points)}"
            )
        self._pending.append((username, points, material))
        return len(self._pending) - 1

    def submit_all(self, attempts: Sequence[Tuple[str, Sequence[Point]]]) -> int:
        """Queue a burst of ``(username, points)`` attempts atomically.

        Every attempt is validated (unknown account, wrong click count)
        **before** any of them is enqueued, so a failing burst leaves the
        pending queue untouched.  Returns the queue position of the first
        attempt; the burst occupies consecutive positions, and
        :meth:`flush` returns their outcomes at exactly those positions.
        """
        prepared = []
        for username, points in attempts:
            material = self._material_for(username)
            if len(points) != material.clicks:
                raise VerificationError(
                    f"expected {material.clicks} click-points, got {len(points)}"
                )
            prepared.append((username, points, material))
        start = len(self._pending)
        self._pending.extend(prepared)
        return start

    # -- batched decision ---------------------------------------------------

    def _chunk_points(self, chunk: Sequence[Tuple]) -> np.ndarray:
        """Stack a micro-batch's click-points into one ``(M, dim)`` array.

        Fast path: one ``np.array`` over the raw coordinate tuples
        (integer-pixel clicks, the flood case); points with exact-rational
        coordinates fall back to the general converter.  Domain checking
        is vectorized against the system's image and raises
        :class:`~repro.errors.DomainError` before any of this batch's
        decisions, mirroring the scalar path's pre-verification check.
        """
        flat = [point.coords for _, points, _ in chunk for point in points]
        try:
            array = np.array(flat, dtype=np.float64)
            if array.ndim != 2 or array.shape[1] != self._kernel.dim:
                raise ValueError(array.shape)
        except (TypeError, ValueError):
            array = as_point_array(
                [point for _, points, _ in chunk for point in points],
                self._kernel.dim,
            )
        image = getattr(self._store.system, "image", None)
        if image is not None and array.shape[1] == 2:
            inside = (
                (array[:, 0] >= 0)
                & (array[:, 0] < image.width)
                & (array[:, 1] >= 0)
                & (array[:, 1] < image.height)
            )
            if not inside.all():
                bad = int(np.argmin(inside))
                raise DomainError(
                    f"click-point {flat[bad]!r} outside image "
                    f"{image.name!r} ({image.width}x{image.height})"
                )
        return array

    def flush(self) -> List[LoginOutcome]:
        """Decide every pending attempt; outcomes in submission order.

        **Ordering guarantee**: ``flush()[i]`` is the outcome of the
        ``i``-th :meth:`submit` since the previous flush — one outcome per
        submitted attempt, in exactly the order attempts were submitted,
        across micro-batch boundaries.  The async front-end
        (:class:`repro.serving.AsyncVerificationService`) resolves the
        futures of parked coroutines by position against this list, so
        the guarantee is part of the public contract, not an
        implementation detail.

        Pending attempts are grouped into micro-batches; each micro-batch
        resolves its geometry in **one** vectorized ``locate`` call over
        the concatenated click-points of all its attempts (per-point
        public rows are stacked alongside, so attempts on different
        accounts — even with different click counts — share the call).
        Decisions then replay sequentially so per-account lockout
        ordering is preserved bit-for-bit.

        Durability is batched the same way the kernel work is: under the
        store's group-commit mode (the default; see
        :attr:`~repro.passwords.store.PasswordStore.batched_writes`)
        every throttle the flush changed is persisted in **one**
        :meth:`~repro.passwords.store.PasswordStore.persist_throttles`
        group commit at the end of the flush, instead of one durable
        commit per changed attempt.  The persisted end state is
        byte-identical — the in-memory throttles are authoritative
        during the flush — so decisions and lockout sequences cannot
        differ between modes.
        """
        pending, self._pending = self._pending, []
        outcomes: List[LoginOutcome] = []
        store = self._store
        throttles: Dict[str, object] = {}  # local cache of the store's objects
        encodings = _INT_ENCODINGS
        compare_digest = hmac.compare_digest
        # Defense knobs, hoisted: with the neutral DefenseConfig every
        # branch below is pre-decided False and the loop body is the same
        # instruction stream as the undefended service.
        defense = store.defense
        pepper = defense.pepper
        captcha_after = defense.captcha_after
        rate_limited = defense.rate_limited
        # Group commit, hoisted: under batched writes every throttle that
        # changes during this flush is collected (an insertion-ordered
        # dict doubles as the dedup set) and persisted in ONE
        # put_throttle_many at the end — the in-memory throttles already
        # hold post-flush state, so only durability batching changes.
        # Per-record mode keeps the historical commit-per-change loop.
        batched_persist = store.batched_writes
        dirty: Dict[str, None] = {}
        # Telemetry, hoisted likewise: `obs` is False on a disabled
        # registry and every timed branch below disappears — the
        # per-attempt loop body is never touched either way.
        obs = self._obs_enabled
        perf = time.perf_counter
        kernel_seconds = hash_seconds = 0.0
        batches = 0
        flush_started = perf() if obs else 0.0
        for start in range(0, len(pending), self._max_batch):
            chunk = pending[start : start + self._max_batch]
            points = self._chunk_points(chunk)
            public = np.concatenate(
                [material.public_rows for _, _, material in chunk], axis=0
            )
            if obs:
                batches += 1
                kernel_started = perf()
                located = self._kernel.locate(points, public)
                chunk_started = perf()
                kernel_seconds += chunk_started - kernel_started
                self._obs_kernel.observe(chunk_started - kernel_started)
                self._obs_batch.observe(len(chunk))
            else:
                located = self._kernel.locate(points, public)
            offset = 0
            for username, _, material in chunk:
                clicks = material.clicks
                secrets = located[offset : offset + clicks].ravel().tolist()
                offset += clicks
                throttle = throttles.get(username)
                if throttle is None:
                    throttle = throttles[username] = store.throttle_for(username)
                # Challenge state is read *before* this attempt is decided,
                # matching the scalar store.captcha_required() query order.
                captcha = (
                    captcha_after is not None
                    and throttle.failures >= captcha_after
                )
                if throttle.locked:
                    outcomes.append(
                        LoginOutcome(username=username, status=LOCKED, captcha=captcha)
                    )
                    continue
                if rate_limited and store.rate_limit_admit(username) is not None:
                    outcomes.append(
                        LoginOutcome(
                            username=username, status=THROTTLED, captcha=captcha
                        )
                    )
                    continue
                data = material.prefix + b"".join(
                    [encodings.get(v) or _encode_int(v) for v in secrets]
                )
                current = material.hash_new(material.salt + data).digest()
                for _ in range(material.rounds - 1):
                    current = material.hash_new(current).digest()
                if pepper:
                    # The outer keyed form of peppered_record: the stored
                    # digest is H(pepper || inner), and `current` here is
                    # exactly the inner digest bytes.
                    current = material.hash_new(pepper + current).digest()
                ok = compare_digest(current.hex(), material.digest)
                before = (throttle.failures, throttle.locked)
                throttle.record(ok)
                if (throttle.failures, throttle.locked) != before:
                    if batched_persist:
                        dirty[username] = None
                    else:
                        store._persist_throttle(username)
                outcomes.append(
                    LoginOutcome(
                        username=username,
                        status=ACCEPT if ok else REJECT,
                        captcha=captcha,
                    )
                )
            if obs:
                chunk_seconds = perf() - chunk_started
                hash_seconds += chunk_seconds
                self._obs_hash.observe(chunk_seconds)
        if dirty:
            store.persist_throttles(list(dirty))
        if obs and outcomes:
            # One registry touch per status per flush, not per attempt:
            # tally at C speed, then publish.  The captcha pass only runs
            # when the knob is armed — an undefended flush never looks at
            # the flag.
            for status, count in _TallyCounter(
                [outcome.status for outcome in outcomes]
            ).items():
                self._obs_status[status].inc(count)
                refusal = self._obs_defense.get(status)
                if refusal is not None:
                    refusal.inc(count)
            if captcha_after is not None:
                captchas = sum(1 for outcome in outcomes if outcome.captcha)
                if captchas:
                    self._obs_captcha.inc(captchas)
            self._obs_flush.observe(perf() - flush_started)
            self.__dict__["_last_flush_timings"] = {
                "kernel_seconds": kernel_seconds,
                "hash_seconds": hash_seconds,
                "batches": batches,
                "attempts": len(outcomes),
            }
        return outcomes

    def login_many(
        self, attempts: Sequence[Tuple[str, Sequence[Point]]]
    ) -> List[LoginOutcome]:
        """Submit a whole attempt stream and flush it in micro-batches."""
        for username, points in attempts:
            self.submit(username, points)
        return self.flush()
