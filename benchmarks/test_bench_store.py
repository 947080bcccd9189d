"""Benchmark: batched verification service vs. scalar store login loop.

The serving stack exists so a deployment can absorb login floods: the
:class:`~repro.passwords.service.VerificationService` resolves the
geometry of a whole micro-batch in one vectorized kernel call and hashes
against a precomputed per-account prefix.  This bench holds it to a hard
floor: service throughput must beat the scalar
:meth:`~repro.passwords.store.PasswordStore.login` loop by at least 10x
on a 10,000-attempt stream, for both of the paper's discretization
schemes (Centered and Robust).  The static-grid baseline is measured and
recorded too, but gated at a lower floor: its scalar ``locate`` is a
single floor-divide, so the remaining per-attempt cost on both paths is
the same salted hash + throttle bookkeeping and the achievable ratio is
structurally smaller.

The ratio is measured in paired rounds, in the style of
``test_bench_obs.py``: each round times the scalar loop and the service
back to back on the same stream (order alternating between rounds), so
both sides share the machine's weather, and the gate reads the median of
the per-round ratios.  Decision equivalence on the same stream is
asserted inline every round (the randomized property suite lives in
``tests/test_verification_service.py``).
"""

from __future__ import annotations

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
    VerificationService,
)
from repro.study.image import cars_image

ATTEMPTS = 10_000
ACCOUNTS = 25
#: Paired scalar/batched rounds per scheme (order alternates).
ROUNDS = 7

#: Per-scheme speedup floors (see module docstring for the static note).
SCHEMES = [
    (CenteredDiscretization.for_pixel_tolerance(2, 9), 10.0),
    (RobustDiscretization.for_pixel_tolerance(2, 9), 10.0),
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
    stream = []
    names = list(accounts)
    for i in range(ATTEMPTS):
        username = names[i % ACCOUNTS]
        points = accounts[username]
        kind = i % 4
        if kind in (0, 1):  # exact re-entry
            attempt = list(points)
        elif kind == 2:  # within tolerance
            attempt = [Point.xy(int(p.x) + 3, int(p.y) - 2) for p in points]
        else:  # wrong password
            attempt = [Point.xy(int(p.x) - 25, int(p.y) + 25) for p in points]
        stream.append((username, attempt))
    return accounts, stream


def _fresh_store(scheme, accounts):
    system = PassPointsSystem(image=cars_image(), scheme=scheme)
    # No hard lockout: every attempt in the stream gets evaluated, so both
    # paths do the full verification work (lockout equivalence is the
    # property suite's job, not the throughput gate's).
    store = PasswordStore(system=system, policy=LockoutPolicy(max_failures=None))
    for username, points in accounts.items():
        store.create_account(username, points)
    return store


def _time_scalar(scheme, accounts, stream):
    """Seconds and decisions of the scalar login loop over *stream*."""
    store = _fresh_store(scheme, accounts)
    gc.collect()  # see _time_batched
    start = time.perf_counter()
    decisions = [store.login(username, attempt) for username, attempt in stream]
    return time.perf_counter() - start, decisions


def _time_batched(scheme, accounts, stream):
    """Seconds and decisions of the batched service over *stream*.

    Both timers start right after a full collection.  Otherwise the
    allocation debt of whatever ran before (the other side, the session's
    shared fixtures) can trigger a whole-heap collection inside the
    window: measured at 20–32 ms in 3 of 12 rounds, about a third of
    the ~60 ms batched run.
    """
    service = VerificationService(_fresh_store(scheme, accounts), max_batch=1024)
    gc.collect()
    start = time.perf_counter()
    outcomes = service.login_many(stream)
    return time.perf_counter() - start, [o.accepted for o in outcomes]


def _measure(scheme, accounts, stream):
    """Paired rounds: ``(scalar seconds, batched seconds)`` per round.

    Both sides run back to back each round, on fresh stores over the same
    stream, and the order alternates between rounds to cancel warm-cache
    ordering effects.  Each round asserts identical decisions.
    """
    _time_batched(scheme, accounts, stream[:100])  # warm the kernel
    rounds = []
    for index in range(ROUNDS):
        if index % 2 == 0:
            scalar_seconds, scalar_decisions = _time_scalar(scheme, accounts, stream)
            batch_seconds, batch_decisions = _time_batched(scheme, accounts, stream)
        else:
            batch_seconds, batch_decisions = _time_batched(scheme, accounts, stream)
            scalar_seconds, scalar_decisions = _time_scalar(scheme, accounts, stream)
        assert batch_decisions == scalar_decisions
        rounds.append((scalar_seconds, batch_seconds))
    return rounds


def test_service_login_speedup(workload, reports_dir, capsys, json_report):
    """Batched service >= 10x over scalar login for centered and robust."""
    accounts, stream = workload
    lines = [
        f"verification service throughput — {ATTEMPTS:,}-attempt login stream, "
        f"{ACCOUNTS} accounts, {ROUNDS} paired rounds (order alternating)",
        "",
        f"{'scheme':<10} {'scalar s':>10} {'batched s':>10} {'speedup':>9} "
        f"{'logins/s':>12} {'floor':>7}",
    ]
    speedups = {}
    ratios = {}
    for scheme, floor in SCHEMES:
        rounds = _measure(scheme, accounts, stream)
        ratios[scheme.name] = [scalar / batch for scalar, batch in rounds]
        speedup = statistics.median(ratios[scheme.name])
        scalar_seconds = statistics.median(scalar for scalar, _ in rounds)
        batch_seconds = statistics.median(batch for _, batch in rounds)
        speedups[scheme.name] = (speedup, floor)
        lines.append(
            f"{scheme.name:<10} {scalar_seconds:>10.3f} {batch_seconds:>10.3f} "
            f"{speedup:>8.1f}x {ATTEMPTS / batch_seconds:>12,.0f} "
            f"{floor:>6.0f}x"
        )
    lines += [
        "",
        "seconds are per-side medians; speedup is the median per-round ratio",
    ]
    lines += [
        f"  {name} per-round ratios: " + " ".join(f"{r:.1f}" for r in values)
        for name, values in ratios.items()
    ]
    lines += [
        "",
        "floors: 10x for the paper's schemes; 2x for the static baseline, "
        "whose scalar locate is already a single floor-divide "
        "(tests fail below them; see test_bench_store.py)",
    ]
    text = "\n".join(lines)
    with capsys.disabled():
        print()
        print(text)
    with open(
        os.path.join(reports_dir, "store_throughput.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(text + "\n")
    json_report(
        "store_throughput",
        [
            {
                "metric": f"{name}_service_speedup",
                "value": round(speedup, 2),
                "gate": floor,
            }
            for name, (speedup, floor) in speedups.items()
        ],
    )

    for name, (speedup, floor) in speedups.items():
        assert speedup >= floor, (
            f"{name}: batched service only {speedup:.1f}x over scalar login "
            f"(floor {floor}x)"
        )


def test_service_throughput(benchmark, workload):
    """Proper multi-round timing of the batched service on the stream."""
    accounts, stream = workload
    scheme, _ = SCHEMES[0]

    def run():
        service = VerificationService(_fresh_store(scheme, accounts), max_batch=1024)
        return service.login_many(stream)

    outcomes = benchmark(run)
    assert len(outcomes) == ATTEMPTS
