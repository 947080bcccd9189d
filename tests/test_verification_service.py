"""Property tests: batched VerificationService == scalar PasswordStore.login.

The ISSUE-2 acceptance criterion: for the same attempt stream, the
micro-batched service must produce the identical accept/reject/lockout
*sequence* as a scalar ``PasswordStore.login`` loop — per-account lockout
ordering preserved bit-for-bit — for all three schemes and all three
storage backends.
"""

from __future__ import annotations

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
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import LockoutPolicy
from repro.passwords.service import VerificationService
from repro.passwords.storage import backend_from_uri
from repro.passwords.store import PasswordStore
from repro.study.image import cars_image

SCHEMES = {
    "centered": lambda: CenteredDiscretization.for_pixel_tolerance(2, 9),
    "robust": lambda: RobustDiscretization.for_pixel_tolerance(2, 9),
    "static": lambda: StaticGridScheme(dim=2, cell_size=19),
}

BACKENDS = ["memory", "sqlite", "shards"]


def make_backend(kind: str, tmp_path, tag: str):
    if kind == "memory":
        return backend_from_uri("memory:")
    if kind == "sqlite":
        return backend_from_uri(f"sqlite:{tmp_path / f'{tag}.db'}")
    return backend_from_uri(f"shards:sqlite:{tmp_path / f'{tag}-shard'}{{0..1}}.db")


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
            attempt = [
                Point.xy(int(p.x) - 25, int(p.y) + 25) for p in points
            ]
        else:  # fresh random guess
            attempt = random_password(rng, image)
        stream.append((username, attempt))
    return stream


def scalar_reference(store, stream):
    """The accept/reject/lockout sequence of the scalar login loop."""
    statuses = []
    for username, attempt in stream:
        try:
            statuses.append("accept" if store.login(username, attempt) else "reject")
        except LockoutError:
            statuses.append("locked")
    return statuses


def build_store(scheme_name, backend, policy):
    system = PassPointsSystem(image=cars_image(), scheme=SCHEMES[scheme_name]())
    return PasswordStore(system=system, policy=policy, backend=backend)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("backend_kind", BACKENDS)
def test_service_matches_scalar_store(scheme_name, backend_kind, tmp_path):
    """Identical decision sequences across schemes x backends x seeds."""
    image = cars_image()
    for seed in (2008, 1387):
        rng = np.random.default_rng(seed)
        accounts = {f"user{i}": random_password(rng, image) for i in range(6)}
        stream = random_stream(rng, accounts, image, 120)
        policy = LockoutPolicy(max_failures=3)

        backend = make_backend(backend_kind, tmp_path, f"svc-{scheme_name}-{seed}")
        service_store = build_store(scheme_name, backend, policy)
        for username, points in accounts.items():
            service_store.create_account(username, points)
        service = VerificationService(service_store, max_batch=16)
        batched = [o.status for o in service.login_many(stream)]

        scalar_store = build_store(
            scheme_name, make_backend("memory", tmp_path, "ref"), policy
        )
        for username, points in accounts.items():
            scalar_store.create_account(username, points)
        expected = scalar_reference(scalar_store, stream)

        assert batched == expected
        # Final lockout states agree too (and, for durable backends, are
        # what a reopened store would see).
        for username in accounts:
            assert service_store.is_locked(username) == scalar_store.is_locked(
                username
            )
        backend.close()


def test_lockout_ordering_across_micro_batches(tmp_path):
    """A lockout in one micro-batch refuses attempts in the next."""
    policy = LockoutPolicy(max_failures=2)
    store = build_store("centered", make_backend("memory", tmp_path, "x"), policy)
    points = [Point.xy(40 + 60 * i, 50 + 40 * i) for i in range(5)]
    wrong = [Point.xy(int(p.x) + 30, int(p.y) + 30) for p in points]
    store.create_account("alice", points)
    service = VerificationService(store, max_batch=2)
    outcomes = service.login_many(
        [("alice", wrong), ("alice", wrong), ("alice", points), ("alice", points)]
    )
    assert [o.status for o in outcomes] == ["reject", "reject", "locked", "locked"]
    assert store.is_locked("alice")


def test_interleaved_scalar_and_batched_share_throttle_state(tmp_path):
    """Scalar logins and the service read/write the same throttle state."""
    policy = LockoutPolicy(max_failures=3)
    store = build_store("centered", make_backend("memory", tmp_path, "x"), policy)
    points = [Point.xy(40 + 60 * i, 50 + 40 * i) for i in range(5)]
    wrong = [Point.xy(int(p.x) + 30, int(p.y) + 30) for p in points]
    store.create_account("alice", points)
    service = VerificationService(store)

    assert not store.login("alice", wrong)  # scalar failure #1
    outcomes = service.login_many([("alice", wrong)])  # batched failure #2
    assert outcomes[0].status == "reject"
    assert not store.login("alice", wrong)  # scalar failure #3 -> lock
    assert store.is_locked("alice")
    assert service.login_many([("alice", points)])[0].status == "locked"


class TestServiceValidation:
    def _service(self, tmp_path):
        store = build_store(
            "centered", make_backend("memory", tmp_path, "v"), LockoutPolicy()
        )
        points = [Point.xy(40 + 60 * i, 50 + 40 * i) for i in range(5)]
        store.create_account("alice", points)
        return VerificationService(store), points

    def test_unknown_account_raises_at_submit(self, tmp_path):
        service, points = self._service(tmp_path)
        with pytest.raises(StoreError):
            service.submit("ghost", points)

    def test_wrong_click_count_raises_at_submit(self, tmp_path):
        service, points = self._service(tmp_path)
        with pytest.raises(VerificationError):
            service.submit("alice", points[:3])

    def test_out_of_image_raises_at_flush(self, tmp_path):
        service, points = self._service(tmp_path)
        bad = list(points)
        bad[2] = Point.xy(9999, 10)
        service.submit("alice", bad)
        with pytest.raises(DomainError):
            service.flush()

    def test_max_batch_validated(self, tmp_path):
        service, _ = self._service(tmp_path)
        with pytest.raises(ParameterError):
            VerificationService(service.store, max_batch=0)

    def test_enroll_delegates_to_store(self, tmp_path):
        service, points = self._service(tmp_path)
        shifted = [Point.xy(int(p.x) + 1, int(p.y)) for p in points]
        service.enroll("bob", shifted)
        assert service.store.usernames == ("alice", "bob")
        assert service.login_many([("bob", shifted)])[0].accepted

    def test_material_refreshes_after_reenrollment(self, tmp_path):
        service, points = self._service(tmp_path)
        assert service.login_many([("alice", points)])[0].accepted
        # Re-create the account with a different password: the cached
        # per-account material must not serve stale digests.
        service.store.delete_account("alice")
        new_points = [Point.xy(int(p.x) + 40, int(p.y)) for p in points]
        service.store.create_account("alice", new_points)
        assert not service.login_many([("alice", points)])[0].accepted
        assert service.login_many([("alice", new_points)])[0].accepted

    def test_pending_count(self, tmp_path):
        service, points = self._service(tmp_path)
        assert service.pending_count == 0
        service.submit("alice", points)
        assert service.pending_count == 1
        service.flush()
        assert service.pending_count == 0
