"""Benchmark: async serving front-end vs. scalar store login loop.

The ISSUE-3 gate: under 64 concurrent clients on a 10,000-attempt mixed
stream, the :class:`~repro.serving.AsyncVerificationService` must sustain
at least 8x the throughput of the scalar
:meth:`~repro.passwords.store.PasswordStore.login` loop for both of the
paper's discretization schemes, with p50/p95 latency recorded in
``benchmarks/reports/serving_throughput.txt``.

Two client shapes are measured:

* ``window=1`` — fully closed-loop clients (one request in flight each);
  batches are capped at the client count, so this is the hardest shape
  for amortization (report-only);
* ``window=8`` — clients pipeline 8 requests per burst through
  ``submit_many`` (the JSONL protocol supports the same pipelining);
  this is the gated shape.

The static-grid baseline is recorded at a 2x floor, mirroring
``test_bench_store.py``: its scalar ``locate`` is already one
floor-divide, so the achievable ratio is structurally smaller.

The ratio is measured in paired rounds, like ``test_bench_store.py``:
each round times the scalar loop and the async floods back to back on
fresh stores over the same stream (order alternating between rounds),
and the gate reads the median of the per-round ratios.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time

import numpy as np
import pytest

from repro.core import (
    CenteredDiscretization,
    RobustDiscretization,
    StaticGridScheme,
)
from repro.geometry.point import Point
from repro.passwords import (
    LockoutPolicy,
    PassPointsSystem,
    PasswordStore,
)
from repro.serving import AsyncVerificationService, flood_service, mixed_stream
from repro.study.image import cars_image

ATTEMPTS = 10_000
ACCOUNTS = 25
CLIENTS = 64
GATED_WINDOW = 8
WINDOWS = (1, GATED_WINDOW)
#: Paired scalar/async rounds per scheme (order alternates).
ROUNDS = 7

#: (scheme, floor at the gated window).  See module docstring for static.
SCHEMES = [
    (CenteredDiscretization.for_pixel_tolerance(2, 9), 8.0),
    (RobustDiscretization.for_pixel_tolerance(2, 9), 8.0),
    (StaticGridScheme(dim=2, cell_size=19), 2.0),
]


@pytest.fixture(scope="module")
def workload():
    """Enrollment points per account plus a mixed 10k-attempt stream."""
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


def _fresh_store(scheme, accounts):
    system = PassPointsSystem(image=cars_image(), scheme=scheme)
    # No hard lockout: every attempt gets evaluated on both paths (lockout
    # equivalence is tests/test_serving.py's job, not the throughput gate's).
    store = PasswordStore(system=system, policy=LockoutPolicy(max_failures=None))
    for username, points in accounts.items():
        store.create_account(username, points)
    return store


def _time_scalar(scheme, accounts, stream):
    """Seconds of the scalar login loop over *stream*."""
    store = _fresh_store(scheme, accounts)
    # Both sides start their timers right after a full collection, so
    # neither pays for a whole-heap collection the other's garbage owes.
    gc.collect()
    start = time.perf_counter()
    for username, attempt in stream:
        store.login(username, attempt)
    return time.perf_counter() - start


def _flood(scheme, accounts, stream, window):
    """One async flood over a fresh store, timed right after a collection."""
    service = AsyncVerificationService(_fresh_store(scheme, accounts), max_batch=1024)
    gc.collect()
    return asyncio.run(flood_service(service, stream, clients=CLIENTS, window=window))


def _measure(scheme, accounts, stream, paired_rounds):
    """Paired rounds: ``(scalar seconds, {window: FloodReport})`` per round.

    The async side floods every window in :data:`WINDOWS`; each flood
    pairs with the same round's scalar timing.
    """
    for window in WINDOWS:  # warm the kernel dispatch and account material
        _flood(scheme, accounts, stream[:200], window)
    return paired_rounds(
        lambda: _time_scalar(scheme, accounts, stream),
        lambda: {window: _flood(scheme, accounts, stream, window) for window in WINDOWS},
        ROUNDS,
    )


def test_async_serving_speedup(
    workload, reports_dir, capsys, json_report, paired_rounds
):
    """Async front-end >= 8x scalar login at 64 clients (centered+robust)."""
    accounts, stream = workload
    lines = [
        f"async serving throughput — {ATTEMPTS:,}-attempt mixed stream, "
        f"{ACCOUNTS} accounts, {CLIENTS} concurrent clients, "
        f"{ROUNDS} paired rounds (order alternating)",
        "",
        f"{'scheme':<10} {'window':>6} {'scalar s':>9} {'async s':>8} "
        f"{'speedup':>8} {'logins/s':>10} {'p50 ms':>7} {'p95 ms':>7} {'floor':>6}",
    ]
    gated = {}
    ratios = {}
    for scheme, floor in SCHEMES:
        rounds = _measure(scheme, accounts, stream, paired_rounds)
        scalar_seconds = statistics.median(scalar for scalar, _ in rounds)
        for window in WINDOWS:
            reports = [floods[window] for _, floods in rounds]
            ratios[scheme.name, window] = [
                scalar / floods[window].seconds for scalar, floods in rounds
            ]
            speedup = statistics.median(ratios[scheme.name, window])
            is_gated = window == GATED_WINDOW
            if is_gated:
                gated[scheme.name] = (speedup, floor)
            async_seconds = statistics.median(report.seconds for report in reports)
            p50_ms = statistics.median(report.p50_ms for report in reports)
            p95_ms = statistics.median(report.p95_ms for report in reports)
            lines.append(
                f"{scheme.name:<10} {window:>6} {scalar_seconds:>9.3f} "
                f"{async_seconds:>8.3f} {speedup:>7.1f}x "
                f"{ATTEMPTS / async_seconds:>10,.0f} {p50_ms:>7.2f} "
                f"{p95_ms:>7.2f} "
                f"{(f'{floor:.0f}x' if is_gated else '—'):>6}"
            )
    lines += [
        "",
        "seconds, logins/s and latencies are per-side medians; speedup is",
        "the median per-round ratio",
    ]
    lines += [
        f"  {name} window={window} per-round ratios: "
        + " ".join(f"{r:.1f}" for r in values)
        for (name, window), values in ratios.items()
    ]
    lines += [
        "",
        "window=1: fully closed-loop clients (batch size capped at the client",
        "count; report-only).  window=8: clients pipeline 8 requests per burst",
        "(the gated shape; floors 8x for the paper's schemes, 2x for the",
        "static baseline whose scalar locate is already one floor-divide).",
        "Latency is submit->decision per attempt (pipelined bursts share",
        "their burst's wall-clock).  Gates fail below the floors; see",
        "benchmarks/test_bench_serving.py.",
    ]
    text = "\n".join(lines)
    with capsys.disabled():
        print()
        print(text)
    with open(
        os.path.join(reports_dir, "serving_throughput.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(text + "\n")
    json_report(
        "serving_throughput",
        [
            {
                "metric": f"{name}_async_speedup_window{GATED_WINDOW}",
                "value": round(speedup, 2),
                "gate": floor,
            }
            for name, (speedup, floor) in gated.items()
        ],
    )

    for name, (speedup, floor) in gated.items():
        assert speedup >= floor, (
            f"{name}: async front-end only {speedup:.1f}x over scalar login "
            f"(floor {floor}x at window={GATED_WINDOW}, {CLIENTS} clients)"
        )


def test_async_decisions_match_scalar_on_stream(workload):
    """The benchmarked configuration decides exactly like the scalar loop."""
    accounts, stream = workload
    scheme, _ = SCHEMES[0]
    subset = stream[:1000]

    scalar_store = _fresh_store(scheme, accounts)
    expected = [
        "accept" if scalar_store.login(username, attempt) else "reject"
        for username, attempt in subset
    ]

    async def run():
        service = AsyncVerificationService(_fresh_store(scheme, accounts))
        statuses = [None] * len(subset)

        async def client(offset):
            for index in range(offset, len(subset), CLIENTS):
                username, attempt = subset[index]
                outcome = await service.login(username, attempt)
                statuses[index] = outcome.status

        await asyncio.gather(*(client(offset) for offset in range(CLIENTS)))
        return statuses

    assert asyncio.run(run()) == expected


def test_serving_throughput(benchmark, workload):
    """Proper multi-round timing of the gated async configuration."""
    accounts, stream = workload
    scheme, _ = SCHEMES[0]

    def run():
        service = AsyncVerificationService(
            _fresh_store(scheme, accounts), max_batch=1024
        )
        return asyncio.run(
            flood_service(service, stream, clients=CLIENTS, window=GATED_WINDOW)
        )

    report = benchmark(run)
    assert report.attempts == ATTEMPTS
