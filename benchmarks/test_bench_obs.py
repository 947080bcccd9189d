"""Benchmark: telemetry overhead gate and the metrics wire round-trip.

The tentpole's pay-for-what-you-touch contract, measured: the async
serving path with a live :class:`~repro.obs.MetricsRegistry` must sustain
**at least 95%** of the throughput it reaches against the shared no-op
:data:`~repro.obs.NULL_REGISTRY`, on the same 10,000-attempt / 64-client
/ window-8 workload the serving bench gates.  Sub-second flood runs on a
shared machine swing by ±30%, so the gate is computed from **paired
rounds**: each round runs both paths back-to-back (order alternating) so
they share the same machine weather, and the gated figure is the *median*
of the per-round ratios — robust to the frequency/scheduler spikes that
make best-of-N on each side noise-bound.  The measured ratio lands in
``benchmarks/reports/obs_overhead.txt`` (``make obs-bench``).

Alongside the gate, the round-trip check: one process serves logins over
TCP *and* runs an offline attack, then ``{"op": "metrics"}`` and the
``repro metrics --prom`` CLI scraper must both expose the serving
histograms (exact p50/p95/p99) and the attack runner's task/straggler
series from that single registry.
"""

from __future__ import annotations

import asyncio
import os
import statistics

import numpy as np
import pytest

from repro.attacks.dictionary import HumanSeededDictionary
from repro.attacks.parallel import ShardedAttackRunner
from repro.cli import main as cli_main
from repro.core import CenteredDiscretization
from repro.crypto.hashing import Hasher
from repro.geometry.point import Point
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.passwords import LockoutPolicy, PassPointsSystem, PasswordStore
from repro.passwords.system import enroll_password
from repro.serving import (
    AsyncVerificationService,
    LoginServer,
    flood_service,
    mixed_stream,
)
from repro.study.image import cars_image

ATTEMPTS = 10_000
ACCOUNTS = 25
CLIENTS = 64
WINDOW = 8
ROUNDS = 9
#: The gate: median paired instrumented/baseline ratio >= this floor.
OVERHEAD_FLOOR = 0.95

SCHEME = CenteredDiscretization.for_pixel_tolerance(2, 9)


@pytest.fixture(scope="module")
def workload():
    """The serving bench's workload shape: 25 accounts, 10k mixed attempts."""
    image = cars_image()
    rng = np.random.default_rng(2008)

    def password():
        return [
            Point.xy(int(x), int(y))
            for x, y in zip(
                rng.integers(30, image.width - 30, size=5),
                rng.integers(30, image.height - 30, size=5),
            )
        ]

    accounts = {f"user{i}": password() for i in range(ACCOUNTS)}
    stream = mixed_stream(
        accounts, ATTEMPTS, wrong_fraction=0.25,
        bounds=(image.width, image.height),
    )
    return accounts, stream


def _fresh_store(accounts, registry):
    system = PassPointsSystem(image=cars_image(), scheme=SCHEME)
    store = PasswordStore(
        system=system,
        policy=LockoutPolicy(max_failures=None),
        registry=registry,
    )
    for username, points in accounts.items():
        store.create_account(username, points)
    return store


def _flood_once(accounts, stream, registry, attempts=None):
    """One flood run against a freshly built store + async service."""
    service = AsyncVerificationService(
        _fresh_store(accounts, registry), max_batch=1024, registry=registry
    )
    workload = stream if attempts is None else stream[:attempts]
    report = asyncio.run(
        flood_service(service, workload, clients=CLIENTS, window=WINDOW)
    )
    return report.throughput


def _measure(accounts, stream, paired_rounds):
    """Paired measurement: both paths run back-to-back each round.

    Each round floods the baseline (``NULL_REGISTRY``) and the
    instrumented path consecutively — they share the same machine
    weather, so the per-round ratio cancels the scheduler/frequency
    drift that dominates sub-second runs.  The order alternates between
    rounds to cancel warm-cache ordering effects.  Returns the list of
    ``(baseline, instrumented)`` throughput pairs.
    """
    _flood_once(accounts, stream, NULL_REGISTRY, attempts=200)
    _flood_once(accounts, stream, MetricsRegistry(), attempts=200)
    return paired_rounds(
        lambda: _flood_once(accounts, stream, NULL_REGISTRY),
        lambda: _flood_once(accounts, stream, MetricsRegistry()),
        ROUNDS,
    )


def test_obs_overhead_gate(
    workload, reports_dir, capsys, json_report, paired_rounds
):
    """Instrumented serving >= 95% of the NULL_REGISTRY throughput."""
    accounts, stream = workload
    pairs = _measure(accounts, stream, paired_rounds)
    ratios = [instrumented / baseline for baseline, instrumented in pairs]
    ratio = statistics.median(ratios)
    baseline = statistics.median(b for b, _ in pairs)
    instrumented = statistics.median(i for _, i in pairs)
    lines = [
        "telemetry overhead — async serving, "
        f"{ATTEMPTS:,}-attempt mixed stream, {ACCOUNTS} accounts, "
        f"{CLIENTS} clients, window={WINDOW}, "
        f"{ROUNDS} paired rounds (order alternating)",
        "",
        f"{'path':<22} {'median logins/s':>16}",
        f"{'registry disabled':<22} {baseline:>16,.0f}",
        f"{'registry enabled':<22} {instrumented:>16,.0f}",
        "",
        "per-round instrumented/baseline ratios: "
        + " ".join(f"{r:.3f}" for r in ratios),
        f"median ratio: {ratio:.3f} (gate: >= {OVERHEAD_FLOOR})",
        "",
        "The enabled path publishes queue-wait, flush-trigger, batch-size,",
        "kernel/hash-timing and login-status series; the disabled path is",
        "the shared no-op instrument.  See src/repro/obs/metrics.py.",
    ]
    text = "\n".join(lines)
    with capsys.disabled():
        print()
        print(text)
    with open(
        os.path.join(reports_dir, "obs_overhead.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(text + "\n")
    json_report(
        "obs_overhead",
        [
            {
                "metric": "instrumented_over_baseline_ratio",
                "value": round(ratio, 4),
                "gate": OVERHEAD_FLOOR,
            },
            {
                "metric": "baseline_logins_per_s",
                "value": round(baseline, 1),
            },
        ],
    )
    assert ratio >= OVERHEAD_FLOOR, (
        f"telemetry overhead too high: instrumented serving at {ratio:.1%} "
        f"of the no-op baseline (floor {OVERHEAD_FLOOR:.0%})"
    )


def test_metrics_roundtrip_serving_and_attack(workload, tmp_path, capsys):
    """One registry, one process: serving + attack series over the wire."""
    accounts, stream = workload
    registry = MetricsRegistry()
    store = _fresh_store(accounts, registry)

    # Attack leg: a serial stolen-file grind publishing into the same
    # registry the server exports.
    seeds = tuple(
        Point.xy(40 + 75 * (i % 4), 60 + 100 * (i // 4)) for i in range(12)
    )
    dictionary = HumanSeededDictionary(
        seed_points=seeds, tuple_length=5, image_name="cars"
    )
    entries = list(dictionary.prioritized_entries(2))
    records = {
        "victim0": enroll_password(SCHEME, entries[0], Hasher(salt=b"victim0"))
    }
    runner = ShardedAttackRunner(workers=1, registry=registry)
    runner.run_stolen_file(SCHEME, records, dictionary, guess_budget=4)

    async def run():
        server = await LoginServer(store, port=0, registry=registry).start()
        host, port = server.address
        import json

        reader, writer = await asyncio.open_connection(host, port)
        try:
            for request_id, (username, points) in enumerate(stream[:64]):
                writer.write(json.dumps({
                    "op": "login", "id": request_id, "user": username,
                    "points": [[int(p.x), int(p.y)] for p in points],
                }).encode() + b"\n")
                await writer.drain()
                await reader.readline()
            writer.write(b'{"op":"metrics","id":900}\n')
            await writer.drain()
            snapshot_response = json.loads(await reader.readline())
            # The CLI scraper, against the same live server, from a worker
            # thread (its socket is blocking).
            exit_code = await asyncio.to_thread(
                cli_main, ["metrics", "--host", host, "--port", str(port), "--prom"]
            )
        finally:
            writer.close()
            await writer.wait_closed()
            await server.aclose()
        return snapshot_response, exit_code

    response, exit_code = asyncio.run(run())
    assert exit_code == 0
    prom_text = capsys.readouterr().out

    assert response["ok"]
    snap = response["metrics"]
    # Serving histograms with exact quantiles.
    queue_wait = snap["histograms"]["serving_queue_wait_seconds"]
    assert queue_wait["count"] == 64
    for quantile in ("p50", "p95", "p99"):
        assert queue_wait[quantile] is not None
    assert snap["histograms"]["service_kernel_seconds"]["p50"] is not None
    assert snap["counters"]["serving_decided_total"] == 64
    # Attack-runner series from the same registry.
    assert snap["counters"]['attack_runs_total{mode="serial"}'] == 1
    assert snap["counters"]["attack_tasks_total"] == 1
    assert snap["gauges"]["attack_straggler_ratio"] == 1.0
    assert snap["histograms"]["attack_worker_busy_seconds"]["count"] == 1

    # The CLI's Prometheus rendering carries the same series.
    assert "serving_queue_wait_seconds_p50 " in prom_text
    assert "serving_queue_wait_seconds_p99 " in prom_text
    assert 'attack_runs_total{mode="serial"} 1' in prom_text
    assert "attack_worker_busy_seconds_count 1" in prom_text
