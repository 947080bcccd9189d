"""Server-side password store: accounts, salted records, throttled login.

Binds together everything the paper says about deployment:

* each account stores clear public material + one salted hash
  (§2.2, §3.1–3.2) — the store is exactly what an offline attacker steals;
* per-user salts ("a user identifier could be added to the hash … stored in
  clear-text, essentially serving as a salt", §3.2);
* online login throttling (§5.1).

The store is scheme-agnostic: it is constructed around a
:class:`~repro.passwords.passpoints.PassPointsSystem` (or any object with
``enroll``/``verify`` and ``with_salt``), and storage-agnostic: records and
throttle state live in a pluggable
:class:`~repro.passwords.storage.StorageBackend` (in-memory dict, durable
SQLite, or shards over either), so enrolled populations can survive
across attack/experiment runs.  The batched counterpart of :meth:`login`
is :class:`~repro.passwords.service.VerificationService`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence

from repro.crypto.hashing import Hasher
from repro.errors import LockoutError, RateLimitError, StoreError
from repro.geometry.point import Point
from repro.obs import SIZE_BUCKETS, MetricsRegistry, get_registry
from repro.passwords.defense import DefenseConfig, RateLimiter, apply_pepper
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import AccountThrottle, LockoutPolicy
from repro.passwords.storage import MemoryBackend, StorageBackend, commit_mode
from repro.passwords.system import StoredPassword

__all__ = ["PasswordStore", "deployed_store", "scheme_named"]


def scheme_named(name: str, tolerance: int):
    """Construct a 2-D scheme from its deployment name and pixel tolerance.

    The inverse of the ``scheme`` metadata string a created store
    persists: ``"centered"``, ``"robust"``, or anything else for the
    static-grid baseline.  Imports lazily so the storage layer stays
    importable without the scheme modules.
    """
    from repro.core.centered import CenteredDiscretization
    from repro.core.robust import RobustDiscretization
    from repro.core.static import StaticGridScheme

    if name == "centered":
        return CenteredDiscretization.for_pixel_tolerance(2, tolerance)
    if name == "robust":
        return RobustDiscretization.for_pixel_tolerance(2, tolerance)
    return StaticGridScheme(dim=2, cell_size=2 * tolerance + 1)


def deployed_store(
    backend: StorageBackend,
    defense_spec: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> "PasswordStore":
    """Reconstruct the deployed store from a backend's persisted meta.

    Every process that opens a durable backend — the CLI, a cluster
    worker owning one shard — must resume it under the deployment it was
    created with (scheme, tolerance, image, defense), so that machinery
    lives here rather than in any one front end.  The persisted
    ``defense`` spec (if any) is re-applied so records enrolled under a
    pepper / slow-hash deployment verify correctly; a non-``None``
    *defense_spec* overrides it for this process.
    """
    from repro.study.image import cars_image, pool_image

    scheme_name = backend.get_meta("scheme")
    if scheme_name is None:
        raise StoreError(
            f"backend {backend.uri!r} holds no deployment meta; "
            "run 'repro store create' first"
        )
    scheme = scheme_named(scheme_name, int(backend.get_meta("tolerance_px")))
    image = {"cars": cars_image, "pool": pool_image}[backend.get_meta("image")]()
    if defense_spec is None:
        defense_spec = backend.get_meta("defense") or ""
    defense = DefenseConfig.from_spec(defense_spec)
    system = PassPointsSystem(image=image, scheme=scheme)
    return PasswordStore(
        system=system, backend=backend, defense=defense, registry=registry
    )


@dataclass
class PasswordStore:
    """A multi-account graphical-password service.

    Parameters
    ----------
    system:
        The (unsalted) deployment; each account gets a per-user salted copy.
    policy:
        Online throttling policy applied to every account.
    backend:
        Where records and throttle state live (default: in-memory dict).
        Pass a :class:`~repro.passwords.storage.SQLiteBackend` — or
        anything from :func:`~repro.passwords.storage.backend_from_uri` —
        for a store that survives the process; accounts already present
        in a reopened backend are served immediately, lockout state
        included.
    """

    system: PassPointsSystem
    policy: LockoutPolicy = LockoutPolicy()
    backend: StorageBackend = field(default_factory=MemoryBackend)
    # Deployment countermeasures; DefenseConfig() is the neutral cell
    # (bit-identical to the undefended store, property-tested in
    # tests/test_defense_matrix.py).  The clock feeds the rate-limit
    # windows only — inject a VirtualClock for deterministic simulation.
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    clock: Callable[[], float] = time.monotonic
    # Telemetry: scalar login decisions, verification timing and
    # defense-knob refusals publish here (None = the process default
    # registry; a disabled registry makes every publish a no-op).  The
    # batched VerificationService uses the *same* counter names, so both
    # paths fold into one vocabulary.
    registry: Optional[MetricsRegistry] = field(default=None, repr=False)
    # Group-commit switch for the bulk write paths (enroll_many, the
    # verification service's flush-coalesced throttle persists).  None
    # (default) follows the process-wide storage commit mode
    # ($REPRO_STORE_COMMIT via repro.passwords.storage.commit_mode);
    # True/False pins this store — the durable benchmark pins one store
    # per mode to measure the batching win in isolation.  Decisions,
    # lockout sequences and dump() bytes are identical either way
    # (property-tested in tests/test_group_commit.py); only how many
    # durable commits carry them differs.
    group_commit: Optional[bool] = None
    # In-process caches over the backend.  The store assumes it is the
    # sole writer of its backend while open (same assumption the
    # throttle cache already makes); durable backends are re-read only
    # on first access after open, so a login flood against SQLite
    # does not re-parse records per attempt.
    _throttles: Dict[str, AccountThrottle] = field(default_factory=dict)
    _record_cache: Dict[str, StoredPassword] = field(default_factory=dict)
    _rate_limiters: Dict[str, RateLimiter] = field(default_factory=dict)
    _hardened_cache: Optional[PassPointsSystem] = field(default=None, repr=False)

    # -- telemetry -----------------------------------------------------------

    def _obs(self) -> Optional[dict]:
        """Cached scalar-login instruments, or ``None`` when disabled.

        Resolved on first use (stores are built in bulk by tests and
        experiments that never log in); a disabled registry resolves to
        ``None`` so :meth:`login` skips every telemetry branch with one
        cheap identity check.
        """
        cached = self.__dict__.get("_obs_instruments", False)
        if cached is not False:
            return cached
        registry = self.registry if self.registry is not None else get_registry()
        if not registry.enabled:
            instruments = None
        else:
            instruments = {
                "accept": registry.counter(
                    "store_logins_total",
                    help="scalar login decisions by status",
                    status="accept",
                ),
                "reject": registry.counter("store_logins_total", status="reject"),
                "locked": registry.counter("store_logins_total", status="locked"),
                "throttled": registry.counter(
                    "store_logins_total", status="throttled"
                ),
                "lockout_refusals": registry.counter(
                    "defense_refusals_total",
                    help="attempts refused by a defense knob",
                    knob="lockout",
                ),
                "rate_limit_refusals": registry.counter(
                    "defense_refusals_total", knob="rate_limit"
                ),
                "captcha": registry.counter(
                    "defense_challenges_total",
                    help="attempts carrying a CAPTCHA challenge",
                    knob="captcha",
                ),
                "verify_seconds": registry.histogram(
                    "store_verify_seconds",
                    help="scalar per-login verification (hash) time",
                ),
            }
        self.__dict__["_obs_instruments"] = instruments
        return instruments

    # -- defense -------------------------------------------------------------

    @property
    def effective_policy(self) -> LockoutPolicy:
        """The lockout policy in force: the defense override, else the store's."""
        return self.defense.lockout_policy or self.policy

    def _hardened_system(self) -> PassPointsSystem:
        """The system with the slow-hash cost factor applied (cached).

        ``hash_cost_factor`` multiplies the hasher's iteration count at
        enrollment time, so the stored record self-describes its cost
        (like a bcrypt cost prefix) and every verification *and* attacker
        guess pays the factor.  Factor 1 returns the system untouched —
        the neutral path allocates nothing.
        """
        factor = self.defense.hash_cost_factor
        if factor == 1:
            return self.system
        if self._hardened_cache is None:
            hasher = self.system.hasher
            self._hardened_cache = replace(
                self.system,
                hasher=Hasher(
                    hasher.algorithm, hasher.iterations * factor, hasher.salt
                ),
            )
        return self._hardened_cache

    def rate_limit_admit(self, username: str) -> Optional[float]:
        """Consume one rate-limit slot, or report the wait until one frees.

        Returns ``None`` when the attempt is admitted (or the deployment
        has no rate limit); otherwise the ``retry_after`` seconds.  Shared
        by the scalar :meth:`login` path and the batched
        :class:`~repro.passwords.service.VerificationService`, so both
        enforce the identical sliding window.
        """
        defense = self.defense
        if defense.rate_limit_window is None:
            return None
        limiter = self._rate_limiters.get(username)
        if limiter is None:
            limiter = self._rate_limiters[username] = RateLimiter(
                defense.rate_limit_window, defense.rate_limit_max
            )
        return limiter.admit(self.clock())

    def captcha_required(self, username: str) -> bool:
        """Whether the account's next attempt is CAPTCHA-challenged.

        True once ``captcha_after`` consecutive failures have accrued (and
        the knob is enabled).  The store still evaluates challenged
        attempts — a human solves the CAPTCHA and proceeds — but automated
        attackers stall here (see :mod:`repro.attacks.online`).
        """
        after = self.defense.captcha_after
        if after is None:
            return False
        return self.throttle_for(username).failures >= after

    # -- accounts -----------------------------------------------------------

    @staticmethod
    def salt_for(username: str) -> bytes:
        """The per-user salt: the user identifier itself (paper §3.2)."""
        return username.encode("utf-8")

    def _salted_system(self, username: str) -> PassPointsSystem:
        return self._hardened_system().with_salt(self.salt_for(username))

    def create_account(self, username: str, points: Sequence[Point]) -> None:
        """Register an account with a graphical password."""
        if username in self.backend:
            raise StoreError(f"account {username!r} already exists")
        stored = self._salted_system(username).enroll(points)
        if self.defense.pepper:
            stored = apply_pepper(stored, self.defense.pepper)
        self.backend.put(username, stored)
        self._record_cache[username] = stored
        throttle = AccountThrottle(self.effective_policy)
        self._throttles[username] = throttle
        self.backend.put_throttle(username, throttle.state())

    def delete_account(self, username: str) -> None:
        """Remove an account."""
        self.backend.delete(username)
        self._throttles.pop(username, None)
        self._record_cache.pop(username, None)
        self._rate_limiters.pop(username, None)

    @property
    def usernames(self) -> tuple:
        """All registered account names (sorted for determinism)."""
        return tuple(self.backend.usernames())

    def record_for(self, username: str) -> StoredPassword:
        """The stored record — what an offline attacker exfiltrates."""
        stored = self._record_cache.get(username)
        if stored is None:
            stored = self.backend.get(username)
            if stored is None:
                raise StoreError(f"unknown account {username!r}")
            self._record_cache[username] = stored
        return stored

    def throttle_for(self, username: str) -> AccountThrottle:
        """The account's throttle state (for inspection and attacks).

        Hydrated from the backend on first access, so lockout persisted
        by a previous process (durable backends) is still enforced.
        """
        throttle = self._throttles.get(username)
        if throttle is not None:
            return throttle
        if username not in self.backend:
            raise StoreError(f"unknown account {username!r}")
        state = self.backend.get_throttle(username)
        if state is None:
            throttle = AccountThrottle(self.effective_policy)
        else:
            throttle = AccountThrottle.from_state(self.effective_policy, state)
        self._throttles[username] = throttle
        return throttle

    def _persist_throttle(self, username: str) -> None:
        """Write an account's current throttle state through the backend."""
        self.backend.put_throttle(username, self.throttle_for(username).state())

    # -- group commit --------------------------------------------------------

    @property
    def batched_writes(self) -> bool:
        """Whether bulk paths group-commit (vs. one commit per record).

        The explicit ``group_commit`` field wins; otherwise the
        process-wide :func:`~repro.passwords.storage.commit_mode`
        (``$REPRO_STORE_COMMIT``) decides.
        """
        if self.group_commit is not None:
            return self.group_commit
        return commit_mode() == "group"

    def _batch_obs(self) -> Optional[dict]:
        """Cached group-commit instruments, or ``None`` when disabled.

        ``store_write_batch_size`` (writes coalesced per commit) and
        ``store_write_batch_seconds`` (wall time of the commit) — the
        registry surface that shows whether serving durability is riding
        the batched path or degrading to per-record commits.
        """
        cached = self.__dict__.get("_batch_instruments", False)
        if cached is not False:
            return cached
        registry = self.registry if self.registry is not None else get_registry()
        if not registry.enabled:
            instruments = None
        else:
            instruments = {
                "size": registry.histogram(
                    "store_write_batch_size",
                    help="records+throttles coalesced into one group commit",
                    buckets=SIZE_BUCKETS,
                ),
                "seconds": registry.histogram(
                    "store_write_batch_seconds",
                    help="wall time of one group commit",
                ),
            }
        self.__dict__["_batch_instruments"] = instruments
        return instruments

    def persist_throttles(self, usernames: Sequence[str]) -> None:
        """Group-commit the current throttle state of many accounts.

        The batched counterpart of :meth:`_persist_throttle`: one
        :meth:`~repro.passwords.storage.StorageBackend.put_throttle_many`
        call (one SQLite transaction, one per owning shard when sharded)
        instead of one commit per account.  The in-memory throttle
        objects are authoritative — this only batches durability, which
        is why :meth:`~repro.passwords.service.VerificationService.flush`
        can defer all of a flush's persists to its end without changing
        a single decision.
        """
        items = [
            (username, self.throttle_for(username).state())
            for username in usernames
        ]
        if not items:
            return
        obs = self._batch_obs()
        if obs is None:
            self.backend.put_throttle_many(items)
            return
        started = time.perf_counter()
        self.backend.put_throttle_many(items)
        obs["seconds"].observe(time.perf_counter() - started)
        obs["size"].observe(len(items))

    def enroll_many(
        self, accounts: Sequence[tuple]
    ) -> int:
        """Bulk-enroll ``(username, points)`` accounts through ``put_many``.

        Semantically a loop of :meth:`create_account` — same records,
        same salts, same fresh throttle per account — but all durable
        writes land as **one** group commit: every record through
        :meth:`~repro.passwords.storage.StorageBackend.put_many` and
        every initial throttle state through ``put_throttle_many``,
        inside one ``write_batch``.  Validation (duplicate within the
        batch, already enrolled) raises *before* any write, so a refused
        batch leaves the backend untouched.  Returns the number of
        accounts enrolled.

        With :attr:`batched_writes` off this degrades to the per-record
        loop, which is exactly what the durable benchmark's bulk
        enrollment gate compares against.
        """
        accounts = list(accounts)
        seen = set()
        for username, _ in accounts:
            if username in seen:
                raise StoreError(
                    f"duplicate account {username!r} in enrollment batch"
                )
            seen.add(username)
            if username in self.backend:
                raise StoreError(f"account {username!r} already exists")
        pepper = self.defense.pepper
        policy = self.effective_policy
        records = []
        throttles = []
        for username, points in accounts:
            stored = self._salted_system(username).enroll(points)
            if pepper:
                stored = apply_pepper(stored, pepper)
            records.append((username, stored))
            throttles.append((username, AccountThrottle(policy)))
        if not self.batched_writes:
            for (username, stored), (_, throttle) in zip(records, throttles):
                self.backend.put(username, stored)
                self.backend.put_throttle(username, throttle.state())
        else:
            obs = self._batch_obs()
            started = time.perf_counter() if obs is not None else 0.0
            with self.backend.write_batch():
                self.backend.put_many(records)
                self.backend.put_throttle_many(
                    [(username, throttle.state()) for username, throttle in throttles]
                )
            if obs is not None:
                obs["seconds"].observe(time.perf_counter() - started)
                obs["size"].observe(2 * len(records))
        for username, stored in records:
            self._record_cache[username] = stored
        for username, throttle in throttles:
            self._throttles[username] = throttle
        return len(records)

    # -- login ---------------------------------------------------------------

    def login(self, username: str, points: Sequence[Point]) -> bool:
        """One throttled login attempt.

        Raises :class:`~repro.errors.LockoutError` when the account is
        locked and :class:`~repro.errors.RateLimitError` when the defense's
        rate-limit window is exhausted (a refused attempt consumes no slot
        and is never evaluated); otherwise records the outcome with the
        throttle and returns the verification result.
        """
        stored = self.record_for(username)
        throttle = self.throttle_for(username)
        obs = self._obs()
        if obs is not None and self.captcha_required(username):
            obs["captcha"].inc()
        try:
            throttle.check()
        except LockoutError:
            if obs is not None:
                obs["locked"].inc()
                obs["lockout_refusals"].inc()
            raise
        retry = self.rate_limit_admit(username)
        if retry is not None:
            if obs is not None:
                obs["throttled"].inc()
                obs["rate_limit_refusals"].inc()
            raise RateLimitError(
                f"account {username!r} rate-limited", retry_after=retry
            )
        if obs is None:
            ok = self._verify(username, stored, points)
        else:
            started = time.perf_counter()
            ok = self._verify(username, stored, points)
            obs["verify_seconds"].observe(time.perf_counter() - started)
            obs["accept" if ok else "reject"].inc()
        throttle.record(ok)
        self._persist_throttle(username)
        return ok

    def _verify(
        self, username: str, stored: StoredPassword, points: Sequence[Point]
    ) -> bool:
        """Pepper-aware verification against one account's record."""
        system = self._salted_system(username)
        if self.defense.pepper:
            return system.verify(stored, points, pepper=self.defense.pepper)
        return system.verify(stored, points)

    def is_locked(self, username: str) -> bool:
        """Whether the account is currently locked out."""
        return self.throttle_for(username).locked

    # -- serialization ----------------------------------------------------------

    def dump_records(self) -> str:
        """Serialize the *password file* (records only) to JSON.

        This is the artifact offline attacks assume stolen: public
        material, digests, salts and hashing parameters — but no throttle
        state and, of course, no click-points.  Identical across backends
        (it delegates to :meth:`~repro.passwords.storage.StorageBackend.dump`).
        """
        return self.backend.dump()

    def load_records(self, payload: str) -> None:
        """Load a password file dumped by :meth:`dump_records`.

        Existing accounts are replaced; throttle states reset.
        """
        self.backend.load(payload)
        self._throttles = {}
        self._record_cache = {}
        self._rate_limiters = {}
        policy = self.effective_policy
        for username in self.backend.usernames():
            self._throttles[username] = AccountThrottle(policy)
        # One group commit for the reset throttle states (the records
        # already landed batched through the backend's load()).
        self.backend.put_throttle_many(
            [
                (username, throttle.state())
                for username, throttle in self._throttles.items()
            ]
        )
