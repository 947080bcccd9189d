"""Benchmark: shard-per-process cluster vs. single-process async serving.

The ISSUE-9 soak: a synthetic population of ``$CLUSTER_USERS`` accounts
(default 2,000 here; ``make cluster-bench`` runs the full 10⁶) is enrolled
*in parallel* — each worker process enrolls its own ring slice — then a
mixed login flood of ``$CLUSTER_ATTEMPTS`` attempts runs through the
router at 64 client connections, pipeline depth 8.  The gate: cluster
throughput must reach ≥2x the single-process :class:`LoginServer` on the
identical stream — enforced only when at least ``$CLUSTER_WORKERS``
(default 4) CPUs are schedulable, because N workers time-slicing one core
measure scheduling overhead, not parallelism (same rule as
``test_bench_attacks.py``).

The second test is the live reshard drill: grow 4→8 SQLite shards under a
closed-loop flood.  Zero-loss is asserted *unconditionally* — every
account's status stream must equal a single-backend scalar replay and
every migrated throttle counter must survive exactly; only the latency
bounds (p99, max cutover window) are gated on core count.

Both tests append to ``benchmarks/reports/cluster_throughput.txt``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.core.centered import CenteredDiscretization
from repro.errors import LockoutError
from repro.geometry.point import Point
from repro.obs.metrics import quantile
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.policy import LockoutPolicy
from repro.passwords.storage import ShardedBackend, backend_from_uri
from repro.passwords.store import PasswordStore, deployed_store
from repro.serving import (
    LoginServer,
    ServingCluster,
    cluster_username,
    default_cluster_workers,
    flood_server,
    mixed_stream,
    synthetic_points,
)
from repro.study.image import cars_image

SEED = 2008
USERS = int(os.environ.get("CLUSTER_USERS", "2000"))
ATTEMPTS = int(os.environ.get("CLUSTER_ATTEMPTS", "6000"))
GATE_WORKERS = default_cluster_workers()
CLIENTS = 64
PIPELINE_DEPTH = 8
MIN_SPEEDUP = 2.0
DRILL_ACCOUNTS = int(os.environ.get("CLUSTER_DRILL_ACCOUNTS", "24"))
#: Latency bounds for the drill, gated on core count: the longest
#: per-shard cutover window and the drill-wide p99.
MAX_CUTOVER_SECONDS = 2.0
MAX_DRILL_P99_SECONDS = 2.5


def _cores() -> int:
    from repro.attacks.parallel import default_workers

    return default_workers()


def _gate_note(gated: bool) -> str:
    if gated:
        return "ENFORCED"
    return (
        f"SKIPPED for lack of cores: need >= {GATE_WORKERS} schedulable "
        f"CPUs, found {_cores()} — timings above are one core time-slicing "
        f"{GATE_WORKERS} processes, not a regression"
    )


def _attempt_accounts(image):
    """The flood's account subset: ≤1,024 indices spread over the population.

    The stream only ever names these accounts, so the single-process
    baseline enrolls exactly this subset (noted in the report) while the
    cluster workers enroll the *full* population — enrollment is part of
    what the cluster parallelizes.
    """
    sampled = np.unique(
        np.linspace(0, USERS - 1, num=min(USERS, 1024)).astype(int)
    )
    return {
        cluster_username(int(index)): synthetic_points(
            int(index), SEED, image.width, image.height
        )
        for index in sampled
    }


def _emit(reports_dir, capsys, text: str, mode: str) -> None:
    with capsys.disabled():
        print()
        print(text)
    path = os.path.join(reports_dir, "cluster_throughput.txt")
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text + "\n")


async def _flood_cluster(stream):
    cluster = ServingCluster(
        workers=GATE_WORKERS, users=USERS, seed=SEED, lockout_failures=None
    )
    start_begin = time.perf_counter()
    await cluster.start()
    startup = time.perf_counter() - start_begin
    try:
        host, port = cluster.address
        report = await flood_server(
            host, port, stream, CLIENTS, pipeline_depth=PIPELINE_DEPTH
        )
    finally:
        await cluster.aclose()
    return report, startup


async def _flood_baseline(stream, accounts):
    image = cars_image()
    store = PasswordStore(
        system=PassPointsSystem(
            image=image, scheme=CenteredDiscretization.for_pixel_tolerance(2, 9)
        ),
        policy=LockoutPolicy(max_failures=None),
    )
    for username, points in accounts.items():
        store.create_account(username, points)
    server = await LoginServer(store, port=0).start()
    try:
        host, port = server.address
        report = await flood_server(
            host, port, stream, CLIENTS, pipeline_depth=PIPELINE_DEPTH
        )
    finally:
        await server.aclose()
    return report


def test_cluster_soak_throughput(reports_dir, capsys, json_report):
    """The soak gate: N-worker cluster ≥2x one process, when cores allow."""
    cores = _cores()
    gated = cores >= GATE_WORKERS
    image = cars_image()
    accounts = _attempt_accounts(image)
    bounds = (image.width, image.height)

    cluster_stream = mixed_stream(
        accounts, ATTEMPTS, wrong_fraction=0.2, seed=SEED, bounds=bounds
    )
    baseline_stream = mixed_stream(
        accounts, ATTEMPTS, wrong_fraction=0.2, seed=SEED, bounds=bounds
    )
    cluster_report, startup = asyncio.run(_flood_cluster(cluster_stream))
    baseline_report = asyncio.run(_flood_baseline(baseline_stream, accounts))

    assert cluster_report.tally.get("error", 0) == 0
    assert sum(cluster_report.tally.values()) == ATTEMPTS
    speedup = cluster_report.throughput / baseline_report.throughput

    lines = [
        f"shard-per-process cluster soak — {USERS:,} enrolled accounts, "
        f"{ATTEMPTS:,} attempts, {CLIENTS} connections × depth "
        f"{PIPELINE_DEPTH}",
        f"workers: {GATE_WORKERS} processes; {cores} CPU(s) schedulable",
        f"parallel enrollment + spawn: {startup:.2f}s for {USERS:,} accounts",
        "",
        f"  {'path':<28} {'logins/s':>10} {'p50 ms':>8} {'p95 ms':>8}",
        f"  {f'cluster, {GATE_WORKERS} workers':<28} "
        f"{cluster_report.throughput:>10,.0f} "
        f"{cluster_report.p50_ms:>8.2f} {cluster_report.p95_ms:>8.2f}",
        f"  {'single process':<28} {baseline_report.throughput:>10,.0f} "
        f"{baseline_report.p50_ms:>8.2f} {baseline_report.p95_ms:>8.2f}",
        f"  cluster over single process: {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP:.1f}x)",
        "",
        f"baseline enrolls only the {len(accounts)}-account attempted "
        "subset; the cluster enrolls the full population across workers",
        f"gate (>={MIN_SPEEDUP:.1f}x at {CLIENTS} connections): "
        f"{_gate_note(gated)}",
    ]
    _emit(reports_dir, capsys, "\n".join(lines), "w")
    skipped = None if gated else _gate_note(False)
    json_report(
        "cluster_throughput",
        [
            {
                "metric": "cluster_over_single_process_speedup",
                "value": round(speedup, 3),
                "gate": MIN_SPEEDUP,
                "skipped": skipped,
            },
            {
                "metric": "cluster_logins_per_s",
                "value": round(cluster_report.throughput, 1),
            },
            {
                "metric": "single_process_logins_per_s",
                "value": round(baseline_report.throughput, 1),
            },
        ],
    )

    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"cluster only {speedup:.2f}x over single-process serving with "
            f"{GATE_WORKERS} workers on {cores} CPUs (floor {MIN_SPEEDUP}x)"
        )


def test_cluster_reshard_drill(reports_dir, tmp_path, capsys, json_report):
    """4→8 live reshard: zero loss always; latency bounds when cores allow."""
    cores = _cores()
    gated = cores >= 4
    old_uris = [f"sqlite:{tmp_path / f'old{i}.db'}" for i in range(4)]
    new_uris = [f"sqlite:{tmp_path / f'new{i}.db'}" for i in range(8)]

    backend = ShardedBackend([backend_from_uri(uri) for uri in old_uris])
    backend.put_meta("scheme", "centered")
    backend.put_meta("tolerance_px", "9")
    backend.put_meta("image", "cars")
    store = deployed_store(backend)
    image = store.system.image
    passwords = {
        cluster_username(index): synthetic_points(
            index, SEED, image.width, image.height
        )
        for index in range(DRILL_ACCOUNTS)
    }
    for username, points in passwords.items():
        store.create_account(username, points)
    backend.close()

    rng = np.random.default_rng(77)
    plans = {
        username: [bool(w) for w in rng.random(6) < 0.35]
        for username in passwords
    }
    executed = {username: [] for username in passwords}
    statuses = {username: [] for username in passwords}
    latencies = []

    async def drill():
        cluster = ServingCluster(shard_uris=old_uris)
        await cluster.start()
        try:
            host, port = cluster.address
            stop = asyncio.Event()

            async def drive(username):
                points = passwords[username]
                plan = plans[username]
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    step = 0
                    while not stop.is_set() or step < len(plan):
                        wrong = plan[step % len(plan)]
                        attempt = (
                            [
                                Point.xy(int(p.x) - 25, int(p.y) + 25)
                                for p in points
                            ]
                            if wrong
                            else points
                        )
                        payload = {
                            "op": "login",
                            "id": step,
                            "user": username,
                            "points": [[int(p.x), int(p.y)] for p in attempt],
                        }
                        sent = time.perf_counter()
                        writer.write(json.dumps(payload).encode() + b"\n")
                        await writer.drain()
                        response = json.loads(await reader.readline())
                        latencies.append(
                            (time.perf_counter() - sent) * 1000.0
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
                asyncio.ensure_future(drive(username))
                for username in passwords
            ]
            await asyncio.sleep(0.1)
            report = await cluster.reshard(new_uris)
            stop.set()
            await asyncio.gather(*drivers)
            return report
        finally:
            await cluster.aclose()

    report = asyncio.run(drill())

    # -- zero-loss, asserted unconditionally ------------------------------
    assert sum(report.moved) == DRILL_ACCOUNTS
    reference = PasswordStore(
        system=PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, 9),
        )
    )
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
    final = ShardedBackend([backend_from_uri(uri) for uri in new_uris])
    try:
        for username in passwords:
            moved_state = final.get_throttle(username)
            ref_state = reference.backend.get_throttle(username)
            assert moved_state["failures"] == ref_state["failures"]
            assert moved_state["locked"] == ref_state["locked"]
    finally:
        final.close()

    decided = len(latencies)
    p50 = quantile(latencies, 0.50) or 0.0
    p95 = quantile(latencies, 0.95) or 0.0
    p99 = quantile(latencies, 0.99) or 0.0
    windows = ", ".join(f"{w * 1000.0:.0f}" for w in report.cutover_seconds)
    lines = [
        "",
        f"live reshard drill — {report.old_shards}->{report.new_shards} "
        f"shards, {DRILL_ACCOUNTS} accounts under closed-loop flood",
        f"  {report.summary()}",
        f"  cutover windows (ms): {windows}",
        f"  {decided} live decisions during drill: p50 {p50:.1f}ms "
        f"p95 {p95:.1f}ms p99 {p99:.1f}ms",
        "  zero-loss asserted: every status stream equals the scalar "
        "single-backend replay; migrated throttle counters bit-identical",
        f"  latency bounds (p99 < {MAX_DRILL_P99_SECONDS * 1000.0:.0f}ms, "
        f"max cutover < {MAX_CUTOVER_SECONDS * 1000.0:.0f}ms): "
        f"{_gate_note(gated)}",
    ]
    _emit(reports_dir, capsys, "\n".join(lines), "a")
    skipped = None if gated else _gate_note(False)
    json_report(
        "cluster_reshard",
        [
            {
                "metric": "max_cutover_seconds",
                "value": round(report.max_cutover_seconds, 3),
                "gate": MAX_CUTOVER_SECONDS,
                "skipped": skipped,
            },
            {
                "metric": "drill_p99_ms",
                "value": round(p99, 2),
                "gate": MAX_DRILL_P99_SECONDS * 1000.0,
                "skipped": skipped,
            },
            {"metric": "accounts_moved", "value": sum(report.moved)},
        ],
    )

    if gated:
        assert report.max_cutover_seconds < MAX_CUTOVER_SECONDS
        assert p99 < MAX_DRILL_P99_SECONDS * 1000.0
