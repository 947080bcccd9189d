#!/usr/bin/env python3
"""Pluggable storage backends + the batched verification service.

The paper's deployment (§3.1–3.2, §5.1) is a server holding salted hash
records and throttling logins.  This example exercises that server as a
real subsystem:

1. **Enroll once, resume forever** — a population enrolls into a durable
   SQLite backend; reopening the same URI skips re-enrollment and keeps
   lockout state (a locked account stays locked across restarts).
2. **The password file is an artifact** — ``dump()`` produces the same
   JSON from every backend (memory / SQLite / sharded SQLite); we steal
   it and grind it offline with popularity-ordered guesses.
3. **Micro-batched serving** — a login flood goes through
   ``VerificationService``, which resolves the geometry of a whole batch
   in one vectorized kernel call while preserving per-account lockout
   ordering bit-for-bit.

Run:  python examples/storage_backends.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CenteredDiscretization, RobustDiscretization
from repro.attacks import offline_attack_stolen_file
from repro.errors import LockoutError
from repro.experiments import default_dataset, default_dictionary, enrolled_store
from repro.geometry.point import Point
from repro.passwords import VerificationService, backend_from_uri
from repro.study import cars_image


def shifted(points, dx: int, dy: int = 0):
    """Shift click-points, clamped to the cars image domain."""
    image = cars_image()
    return [
        Point.xy(
            min(max(int(p.x) + dx, 0), image.width - 1),
            min(max(int(p.y) + dy, 0), image.height - 1),
        )
        for p in points
    ]


def enroll_and_resume(workdir: Path) -> str:
    scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
    uri = f"sqlite:{workdir / 'population.db'}"

    store = enrolled_store(scheme, image_name="cars", backend_uri=uri, victims=25)
    first_count = len(store.usernames)
    # Lock one account the §5.1 way: three wrong attempts.
    victim = store.usernames[0]
    for _ in range(3):
        try:
            store.login(victim, shifted(default_dataset().passwords_on("cars")[0].points, -25))
        except LockoutError:
            break
    store.backend.close()

    # Reopen the same URI: no re-enrollment, and the lockout survived.
    store = enrolled_store(scheme, image_name="cars", backend_uri=uri, victims=25)
    print("enroll-once / resume on a durable backend:")
    print(f"  {uri}")
    print(f"  first open enrolled {first_count} accounts; "
          f"reopen found {len(store.usernames)} (no re-enrollment)")
    print(f"  lockout survived restart: is_locked({victim}) = {store.is_locked(victim)}")
    print()
    store.backend.close()
    return uri


def steal_and_grind(workdir: Path, uri: str) -> None:
    scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
    backend = backend_from_uri(uri)
    payload = backend.dump()  # the theft — same JSON from any backend
    backend.close()

    # The stolen artifact is backend-agnostic: replaying it into a
    # two-shard SQLite layout yields a byte-identical password file.
    shards = backend_from_uri(f"shards:sqlite:{workdir / 'stolen'}{{0..1}}.db")
    shards.load(payload)
    assert shards.dump() == payload
    shards.close()

    print("offline grind of stolen password files (300 guesses/record):")
    robust_store = enrolled_store(
        RobustDiscretization(2, 9), image_name="cars", victims=25
    )
    for grind_scheme, stolen in (
        (scheme, payload),
        (robust_store.system.scheme, robust_store.dump_records()),
    ):
        result = offline_attack_stolen_file(
            grind_scheme, stolen, default_dictionary("cars"), guess_budget=300
        )
        print(f"  {result.scheme_name:<10} cracked {result.cracked}/{result.attacked} "
              f"accounts ({result.cracked_fraction:.0%}) at "
              f"{result.hash_operations} hashes")
    print("  (a budget this small cracks nothing — the paper's offline threat")
    print("   is the full 2^36 enumeration, reproduced in closed form by")
    print("   experiments figure7/figure8)")
    print()


def batched_service() -> None:
    scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
    store = enrolled_store(scheme, image_name="cars", victims=20)
    service = VerificationService(store, max_batch=256)

    samples = default_dataset().passwords_on("cars")[:20]
    attempts = []
    for sample in samples:
        username = f"user{sample.password_id}"
        attempts.append((username, list(sample.points)))            # accept
        attempts.append((username, shifted(sample.points, -3, 2)))  # within r
        attempts.append((username, shifted(sample.points, -30)))    # reject
    outcomes = service.login_many(attempts)
    tally = {status: 0 for status in ("accept", "reject", "locked")}
    for outcome in outcomes:
        tally[outcome.status] += 1
    print("micro-batched verification service (one kernel call per batch):")
    print(f"  {len(outcomes)} attempts -> {tally['accept']} accepted, "
          f"{tally['reject']} rejected, {tally['locked']} lockout-refused")
    store.backend.close()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        uri = enroll_and_resume(workdir)
        steal_and_grind(workdir, uri)
    batched_service()


if __name__ == "__main__":
    main()
