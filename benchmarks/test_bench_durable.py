"""Benchmark: the group-commit write path on a durable (SQLite) backend.

The ISSUE-10 gate.  PR 2's micro-batched service and PR 9's cluster made
durable-backend serving *write-bound*: the kernel work amortizes across a
flush but every changed throttle still cost one SQLite transaction.  This
bench pins down what group commit buys on the same hardware:

* **serving flood** — a 64-client pipelined flood over a sqlite-backed
  :class:`~repro.serving.AsyncVerificationService`, once with the store's
  group-commit path (all of a flush's throttle persists in one
  ``put_throttle_many`` transaction) and once forced to the historical
  per-record-commit path (``group_commit=False``).  Gate: batched ≥3x.
* **bulk enrollment** — :meth:`~repro.passwords.store.PasswordStore.enroll_many`
  (one ``write_batch`` holding one ``put_many`` + one
  ``put_throttle_many``) vs the ``create_account`` loop (two transactions
  per account), timed in paired rounds with the order alternating.
  Gate: median per-round ratio ≥2x.

Both gates are enforced at any core count: each side of each ratio runs
in this one process, so a host with fewer CPUs slows both sides alike
and the ratio still measures the write path (unlike the attack/cluster
benches, whose worker processes time-slice on a small host).
Bit-identical semantics are asserted too: the two modes must produce the
same decision stream, the same persisted lockout state, and
byte-identical ``dump()`` password files.  Reports land in ``benchmarks/reports/
durable_throughput.txt`` (+ ``.json``).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import statistics
import time

import numpy as np

from repro.core.centered import CenteredDiscretization
from repro.geometry.point import Point
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import LockoutPolicy
from repro.passwords.storage import SQLiteBackend
from repro.passwords.store import PasswordStore
from repro.serving import AsyncVerificationService, flood_service, mixed_stream
from repro.study.image import cars_image

SEED = 2008
ACCOUNTS = int(os.environ.get("DURABLE_ACCOUNTS", "32"))
ATTEMPTS = int(os.environ.get("DURABLE_ATTEMPTS", "4000"))
ENROLL_ACCOUNTS = int(os.environ.get("DURABLE_ENROLL_ACCOUNTS", "300"))
CLIENTS = 64
WINDOW = 8
ROUNDS = 3
#: Paired bulk/loop enrollment rounds (order alternating).
ENROLL_ROUNDS = 7
MIN_SERVING_SPEEDUP = 3.0
MIN_ENROLL_SPEEDUP = 2.0


def _cores() -> int:
    from repro.attacks.parallel import default_workers

    return default_workers()


def _gate_note() -> str:
    return (
        f"ENFORCED at any core count ({_cores()} schedulable here): both "
        "sides run in this one process"
    )


def _passwords(count: int, prefix: str = "user"):
    image = cars_image()
    rng = np.random.default_rng(SEED)
    return {
        f"{prefix}{i}": [
            Point.xy(int(x), int(y))
            for x, y in zip(
                rng.integers(30, image.width - 30, size=5),
                rng.integers(30, image.height - 30, size=5),
            )
        ]
        for i in range(count)
    }


def _fresh_store(tmp_path, tag: str, group_commit: bool, accounts) -> PasswordStore:
    backend = SQLiteBackend(str(tmp_path / f"{tag}.db"))
    store = PasswordStore(
        system=PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, 9),
        ),
        policy=LockoutPolicy(max_failures=None),
        backend=backend,
        group_commit=group_commit,
    )
    store.enroll_many(list(accounts.items()))
    return store


def _emit(reports_dir, capsys, text: str, mode: str) -> None:
    with capsys.disabled():
        print()
        print(text)
    path = os.path.join(reports_dir, "durable_throughput.txt")
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text + "\n")


def _flood(store: PasswordStore, stream):
    service = AsyncVerificationService(store, max_batch=1024)
    report = asyncio.run(
        flood_service(service, stream, clients=CLIENTS, window=WINDOW)
    )
    return report


def test_durable_serving_group_commit(tmp_path, reports_dir, capsys, json_report):
    """sqlite-backed async flood: group commit ≥3x forced per-record commits."""
    cores = _cores()
    image = cars_image()
    accounts = _passwords(ACCOUNTS)
    stream = mixed_stream(
        accounts, ATTEMPTS, wrong_fraction=0.25, seed=SEED,
        bounds=(image.width, image.height),
    )

    # -- bit-identical semantics, asserted unconditionally ----------------
    # The flood's client interleaving is nondeterministic, so equivalence
    # is pinned through the sync service with an explicit submission
    # order: same stream, flushed in bursts, both commit modes.
    from repro.passwords.service import VerificationService

    check_group = _fresh_store(tmp_path, "check-group", True, accounts)
    check_record = _fresh_store(tmp_path, "check-record", False, accounts)
    statuses = {}
    for store, tag in ((check_group, "group"), (check_record, "record")):
        service = VerificationService(store, max_batch=256)
        decided = []
        for start in range(0, len(stream), 512):
            for username, attempt in stream[start : start + 512]:
                service.submit(username, attempt)
            decided.extend(outcome.status for outcome in service.flush())
        statuses[tag] = decided
    assert statuses["group"] == statuses["record"]
    assert check_group.backend.dump() == check_record.backend.dump()
    for username in accounts:
        assert check_group.backend.get_throttle(
            username
        ) == check_record.backend.get_throttle(username), username
    check_group.backend.close()
    check_record.backend.close()

    # -- throughput, best-of-ROUNDS per mode ------------------------------
    best = {}
    for mode, group_commit in (("group", True), ("per-record", False)):
        for attempt in range(ROUNDS):
            store = _fresh_store(
                tmp_path, f"{mode}-{attempt}", group_commit, accounts
            )
            report = _flood(store, stream)
            store.backend.close()
            if mode not in best or report.seconds < best[mode].seconds:
                best[mode] = report
    speedup = best["group"].throughput / best["per-record"].throughput

    lines = [
        f"durable serving write path — sqlite backend, {ATTEMPTS:,}-attempt "
        f"mixed stream, {ACCOUNTS} accounts, {CLIENTS} clients × window "
        f"{WINDOW}",
        f"cores: {cores} schedulable",
        "",
        f"  {'commit mode':<22} {'seconds':>8} {'logins/s':>10} "
        f"{'p50 ms':>8} {'p95 ms':>8}",
    ]
    for mode in ("group", "per-record"):
        report = best[mode]
        label = "group (batched)" if mode == "group" else "per-record (forced)"
        lines.append(
            f"  {label:<22} {report.seconds:>8.3f} "
            f"{report.throughput:>10,.0f} {report.p50_ms:>8.2f} "
            f"{report.p95_ms:>8.2f}"
        )
    lines += [
        f"  group over per-record: {speedup:.2f}x "
        f"(floor {MIN_SERVING_SPEEDUP:.1f}x)",
        "",
        "decisions, persisted lockout state and dump() bytes asserted",
        "identical between the two modes before timing",
        f"gate (>={MIN_SERVING_SPEEDUP:.1f}x on sqlite): {_gate_note()}",
    ]
    _emit(reports_dir, capsys, "\n".join(lines), "w")
    json_report(
        "durable_throughput",
        [
            {
                "metric": "serving_group_commit_speedup",
                "value": round(speedup, 3),
                "gate": MIN_SERVING_SPEEDUP,
            },
            {
                "metric": "serving_group_logins_per_s",
                "value": round(best["group"].throughput, 1),
            },
            {
                "metric": "serving_per_record_logins_per_s",
                "value": round(best["per-record"].throughput, 1),
            },
        ],
    )

    assert speedup >= MIN_SERVING_SPEEDUP, (
        f"group commit only {speedup:.2f}x over per-record commits on "
        f"sqlite (floor {MIN_SERVING_SPEEDUP}x)"
    )


def test_bulk_enrollment_speedup(
    tmp_path, reports_dir, capsys, json_report, paired_rounds
):
    """enroll_many ≥2x the create_account loop on sqlite, state identical."""
    accounts = _passwords(ENROLL_ACCOUNTS, prefix="enroll")
    scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)

    def fresh(tag: str, group_commit: bool) -> PasswordStore:
        return PasswordStore(
            system=PassPointsSystem(image=cars_image(), scheme=scheme),
            backend=SQLiteBackend(str(tmp_path / f"{tag}.db")),
            group_commit=group_commit,
        )

    # Each timer starts right after a full collection, so neither side
    # pays for a whole-heap collection the other side's garbage triggers.
    def bulk(tag: str):
        store = fresh(tag, True)
        gc.collect()
        started = time.perf_counter()
        enrolled = store.enroll_many(list(accounts.items()))
        elapsed = time.perf_counter() - started
        assert enrolled == ENROLL_ACCOUNTS
        return elapsed, store

    def loop(tag: str):
        store = fresh(tag, False)
        gc.collect()
        started = time.perf_counter()
        for username, points in accounts.items():
            store.create_account(username, points)
        return time.perf_counter() - started, store

    # Paired rounds, order alternating: each round times both paths back
    # to back on fresh files, so whichever runs first no longer pays the
    # process's warm-up alone, and the gate reads the median ratio.
    tags = itertools.count()
    pairs = paired_rounds(
        lambda: bulk(f"bulk-{next(tags)}"),
        lambda: loop(f"loop-{next(tags)}"),
        ENROLL_ROUNDS,
    )
    rounds = []
    for (bulk_seconds, bulk_store), (loop_seconds, loop_store) in pairs:
        # Identical persisted state: password file and initial throttles.
        assert bulk_store.backend.dump() == loop_store.backend.dump()
        for username in accounts:
            assert bulk_store.backend.get_throttle(
                username
            ) == loop_store.backend.get_throttle(username)
        bulk_store.backend.close()
        loop_store.backend.close()
        rounds.append((bulk_seconds, loop_seconds))

    ratios = [loop_seconds / bulk_seconds for bulk_seconds, loop_seconds in rounds]
    speedup = statistics.median(ratios)
    bulk_seconds = statistics.median(bulk_seconds for bulk_seconds, _ in rounds)
    loop_seconds = statistics.median(loop_seconds for _, loop_seconds in rounds)
    lines = [
        "",
        f"bulk enrollment — {ENROLL_ACCOUNTS} accounts into sqlite, "
        f"{ENROLL_ROUNDS} paired rounds (order alternating; median seconds)",
        f"  enroll_many (one write_batch): {bulk_seconds:.3f}s "
        f"({ENROLL_ACCOUNTS / bulk_seconds:,.0f} accounts/s)",
        f"  create_account loop:           {loop_seconds:.3f}s "
        f"({ENROLL_ACCOUNTS / loop_seconds:,.0f} accounts/s)",
        "  per-round ratios: " + " ".join(f"{r:.2f}" for r in ratios),
        f"  bulk over loop (median ratio): {speedup:.2f}x "
        f"(floor {MIN_ENROLL_SPEEDUP:.1f}x)",
        "  password file and initial throttle states asserted identical",
        f"  gate (>={MIN_ENROLL_SPEEDUP:.1f}x): {_gate_note()}",
    ]
    _emit(reports_dir, capsys, "\n".join(lines), "a")
    json_report(
        "durable_enrollment",
        [
            {
                "metric": "bulk_enrollment_speedup",
                "value": round(speedup, 3),
                "gate": MIN_ENROLL_SPEEDUP,
            },
            {
                "metric": "bulk_enrollment_accounts_per_s",
                "value": round(ENROLL_ACCOUNTS / bulk_seconds, 1),
            },
        ],
    )

    assert speedup >= MIN_ENROLL_SPEEDUP, (
        f"enroll_many only {speedup:.2f}x over the create_account loop "
        f"(floor {MIN_ENROLL_SPEEDUP}x)"
    )
