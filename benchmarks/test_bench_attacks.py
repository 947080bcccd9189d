"""Benchmark: work-stealing attack engine vs. static shards vs. serial.

The parallel attack runner exists so paper-scale (and beyond) dictionary
sweeps finish in seconds: the §5.1 password-file grind is embarrassingly
parallel across accounts, and the known-identifier attack across target
passwords.  This bench holds the engine to three floors on 200-account ×
2¹⁰-guess stolen-file workloads:

* **Correctness, always**: ``workers=1`` must be *bit-identical* to the
  serial :func:`~repro.attacks.offline.offline_attack_stolen_file` path
  (it is the serial path, by construction), and every 4-worker merge —
  static and queue mode, uniform and skewed workload — must equal it
  too: outcome tuples, aggregate counts, everything.
* **Latency, when the hardware can**: the full 200 × 2¹⁰ grind in queue
  mode at 4 workers completes in under a second whenever ≥ 4 CPUs are
  schedulable.
* **Work stealing earns its keep, when the hardware can**: on an
  adversarially *skewed* workload — 150 victims planted at the front
  dictionary ranks (they early-stop after a handful of hashes) sorting
  ahead of 50 uncracked accounts that grind the full budget — queue mode
  must beat static contiguous shards by ≥ 1.5x at 4 workers.  Static
  sharding hands all 50 expensive accounts to one worker; the queue
  streams them to whoever is idle.

On smaller machines the latency and speedup floors are physically
unreachable (four processes time-slice one core), so the archived report
(``benchmarks/reports/attack_throughput.txt``) states explicitly that the
gates were **skipped for lack of cores** — a number read months later
must not masquerade as a regression.  The report also carries the
straggler tail (max/mean worker busy seconds) from the engine's
:class:`~repro.attacks.parallel.AttackRunStats` telemetry.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.attacks.offline import (
    offline_attack_known_identifiers,
    offline_attack_stolen_file,
    parse_password_file,
)
from repro.attacks.parallel import ShardedAttackRunner, default_workers
from repro.core.centered import CenteredDiscretization
from repro.crypto.hashing import Hasher
from repro.experiments.common import (
    default_dataset,
    default_dictionary,
    enrolled_store,
)
from repro.passwords.system import enroll_password

ACCOUNTS = 200
GUESS_BUDGET = 1024  # 2^10 prioritized guesses per account
GATE_WORKERS = 4
#: Queue mode must beat static shards by this factor on the skewed workload.
MIN_QUEUE_SPEEDUP = 1.5
#: The full uniform grind must finish within this wall-clock in queue mode.
MAX_QUEUE_SECONDS = 1.0
#: Skewed workload: this many front-rank victims, the rest full-budget.
SKEW_VICTIMS = 150

SCHEME = CenteredDiscretization.for_pixel_tolerance(2, 9)


@pytest.fixture(scope="module")
def stolen_workload():
    """A 200-account stolen password file plus the attack dictionary."""
    store = enrolled_store(SCHEME, image_name="cars", victims=ACCOUNTS)
    payload = store.dump_records()
    records = parse_password_file(payload)
    assert len(records) == ACCOUNTS
    return records, default_dictionary("cars")


@pytest.fixture(scope="module")
def skewed_workload(stolen_workload):
    """The adversarial shape for static shards: cheap front, expensive tail.

    150 victims enrolled *on* the dictionary's top-ranked entries crack
    (and early-stop) within a handful of guesses; 50 accounts from the
    field-study population survive the whole 2¹⁰ budget.  Usernames sort
    the expensive accounts into one contiguous tail, so a static 4-way
    partition gives the last worker ~80% of all hash work — the precise
    failure mode work stealing exists to fix.
    """
    records, dictionary = stolen_workload
    entries = list(dictionary.prioritized_entries(SKEW_VICTIMS))
    skewed = {}
    for rank in range(SKEW_VICTIMS):
        username = f"victim{rank:03d}"
        skewed[username] = enroll_password(
            SCHEME, entries[rank], Hasher(salt=username.encode())
        )
    survivors = sorted(records)[: ACCOUNTS - SKEW_VICTIMS]
    for index, original in enumerate(survivors):
        skewed[f"zfull{index:03d}"] = records[original]
    assert len(skewed) == ACCOUNTS
    return skewed, dictionary


def _time(fn):
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_parallel_attack_throughput(
    stolen_workload, skewed_workload, reports_dir, capsys, json_report
):
    """Gate the engine: bit-identical always, fast and balanced with cores."""
    records, dictionary = stolen_workload
    skewed, _ = skewed_workload
    cores = default_workers()
    gated = cores >= GATE_WORKERS

    # -- uniform workload: serial vs 1 worker vs 4-worker queue ------------
    serial_seconds, serial = _time(
        lambda: offline_attack_stolen_file(
            SCHEME, records, dictionary, guess_budget=GUESS_BUDGET
        )
    )
    one_seconds, one = _time(
        lambda: ShardedAttackRunner(workers=1).run_stolen_file(
            SCHEME, records, dictionary, guess_budget=GUESS_BUDGET
        )
    )
    with ShardedAttackRunner(workers=GATE_WORKERS, mode="queue") as runner:
        queue_seconds, queue = _time(
            lambda: runner.run_stolen_file(
                SCHEME, records, dictionary, guess_budget=GUESS_BUDGET
            )
        )
        queue_stats = runner.last_stats
    assert one == serial, "workers=1 must be bit-identical to the serial path"
    assert queue == serial, f"workers={GATE_WORKERS} queue diverged from serial"

    # -- skewed workload: static shards vs the work-stealing queue ---------
    skew_serial_seconds, skew_serial = _time(
        lambda: offline_attack_stolen_file(
            SCHEME, skewed, dictionary, guess_budget=GUESS_BUDGET
        )
    )
    with ShardedAttackRunner(workers=GATE_WORKERS, mode="static") as runner:
        static_seconds, static_result = _time(
            lambda: runner.run_stolen_file(
                SCHEME, skewed, dictionary, guess_budget=GUESS_BUDGET
            )
        )
        static_stats = runner.last_stats
    with ShardedAttackRunner(workers=GATE_WORKERS, mode="queue") as runner:
        steal_seconds, steal_result = _time(
            lambda: runner.run_stolen_file(
                SCHEME, skewed, dictionary, guess_budget=GUESS_BUDGET
            )
        )
        steal_stats = runner.last_stats
    assert static_result == skew_serial, "static-mode merge diverged from serial"
    assert steal_result == skew_serial, "queue-mode merge diverged from serial"
    queue_speedup = static_seconds / steal_seconds

    # Known-identifier attack at the same password count, for the record
    # (too fast at this scale for process sharding to pay on few cores).
    passwords = default_dataset().passwords_on("cars")[:ACCOUNTS]
    known_seconds, known = _time(
        lambda: offline_attack_known_identifiers(SCHEME, passwords, dictionary)
    )
    known_par = ShardedAttackRunner(workers=GATE_WORKERS).run_known_identifiers(
        SCHEME, passwords, dictionary
    )
    assert known_par == known, "known-identifier merge diverged from serial"

    gate_note = (
        "ENFORCED"
        if gated
        else f"SKIPPED for lack of cores: need >= {GATE_WORKERS} schedulable "
        f"CPUs, found {cores} — timings above are one core time-slicing "
        f"{GATE_WORKERS} processes, not a regression"
    )
    lines = [
        f"work-stealing attack engine — {ACCOUNTS} stolen records × "
        f"{GUESS_BUDGET} guesses ({SCHEME.name}, r=9)",
        f"workers detected: {cores}; array backend: numpy",
        "",
        "uniform workload (field-study accounts, none crack):",
        f"  {'path':<26} {'seconds':>9} {'records/s':>11}",
        f"  {'serial':<26} {serial_seconds:>9.3f} "
        f"{ACCOUNTS / serial_seconds:>11.1f}",
        f"  {'1 worker (serial path)':<26} {one_seconds:>9.3f} "
        f"{ACCOUNTS / one_seconds:>11.1f}",
        f"  {f'queue, {GATE_WORKERS} workers':<26} {queue_seconds:>9.3f} "
        f"{ACCOUNTS / queue_seconds:>11.1f}",
        f"  queue straggler tail (max/mean busy): "
        f"{queue_stats.straggler_ratio:.2f} over {queue_stats.tasks} tasks",
        "",
        f"skewed workload ({SKEW_VICTIMS} front-rank victims + "
        f"{ACCOUNTS - SKEW_VICTIMS} full-budget survivors):",
        f"  {'path':<26} {'seconds':>9} {'straggler':>10}",
        f"  {'serial':<26} {skew_serial_seconds:>9.3f} {'—':>10}",
        f"  {f'static, {GATE_WORKERS} workers':<26} {static_seconds:>9.3f} "
        f"{static_stats.straggler_ratio:>10.2f}",
        f"  {f'queue, {GATE_WORKERS} workers':<26} {steal_seconds:>9.3f} "
        f"{steal_stats.straggler_ratio:>10.2f}",
        f"  queue over static: {queue_speedup:.2f}x "
        f"(floor {MIN_QUEUE_SPEEDUP:.1f}x)",
        "",
        f"gates (<{MAX_QUEUE_SECONDS:.0f}s uniform queue run, "
        f">={MIN_QUEUE_SPEEDUP:.1f}x queue-over-static skewed): {gate_note}",
        f"cracked {serial.cracked}/{serial.attacked} uniform, "
        f"{skew_serial.cracked}/{skew_serial.attacked} skewed; "
        f"{serial.hash_operations:,} hashes per uniform run",
        f"known-identifier attack, {ACCOUNTS} passwords, full "
        f"{dictionary.bits:.0f}-bit dictionary: {known_seconds:.3f}s serial "
        f"(closed form; {known.cracked} cracked)",
        "",
        "every mode/worker combination above is asserted bit-identical to "
        "the serial path on every run (see test_bench_attacks.py)",
    ]
    text = "\n".join(lines)
    with capsys.disabled():
        print()
        print(text)
    with open(
        os.path.join(reports_dir, "attack_throughput.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(text + "\n")
    skipped = None if gated else gate_note
    json_report(
        "attack_throughput",
        [
            {
                "metric": "uniform_queue_seconds",
                "value": round(queue_seconds, 3),
                "gate": MAX_QUEUE_SECONDS,
                "skipped": skipped,
            },
            {
                "metric": "skewed_queue_over_static_speedup",
                "value": round(queue_speedup, 3),
                "gate": MIN_QUEUE_SPEEDUP,
                "skipped": skipped,
            },
            {
                "metric": "queue_straggler_ratio",
                "value": round(steal_stats.straggler_ratio, 3),
            },
        ],
    )

    if gated:
        assert queue_seconds < MAX_QUEUE_SECONDS, (
            f"uniform {ACCOUNTS}x{GUESS_BUDGET} queue grind took "
            f"{queue_seconds:.3f}s at {GATE_WORKERS} workers on {cores} CPUs "
            f"(floor {MAX_QUEUE_SECONDS}s)"
        )
        assert queue_speedup >= MIN_QUEUE_SPEEDUP, (
            f"queue mode only {queue_speedup:.2f}x over static shards on the "
            f"skewed workload at {GATE_WORKERS} workers on {cores} CPUs "
            f"(floor {MIN_QUEUE_SPEEDUP}x)"
        )
