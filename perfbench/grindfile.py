"""The ``grind`` workload: the paper's stolen-file dictionary attack.

The synthetic file has the shape of ``examples/grind_million.py``: one
account in :data:`VICTIM_EVERY` is enrolled on a dictionary entry inside
the guess budget (it cracks and stops early), the rest sit
:data:`SURVIVOR_SHIFT` pixels outside every dictionary cell and survive
the whole budget, so per-account cost is skewed.  The file holds
:data:`ACCOUNTS_PER_SECOND` accounts per second of run and is ground in
waves of :data:`WAVE` accounts through
``ShardedAttackRunner(workers=2, mode="queue").run_stolen_file``, pass
after pass, until the run's time is up.  Each wave is one latency sample;
the hash rate is the median over :data:`ROUNDS` rounds.

:class:`Attack` runs inside the grind host (``serve.py grind``);
:func:`reference` runs in the benchmark process.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np

import common

BUDGET = 64
VICTIM_EVERY = 10
SURVIVOR_SHIFT = 4096
WAVE = 128
WORKERS = 2
ACCOUNTS_PER_SECOND = 200
#: Accounts in the warm-up call that starts the attack pool.
WARM_UP_ACCOUNTS = 16
#: Accounts in the traced serial slice.
SLICE_ACCOUNTS = 256
#: Interleaved untraced/traced repetitions of the slice (medians kept).
SLICE_REPEATS = 3


def _scheme():
    from repro.core.centered import CenteredDiscretization

    return CenteredDiscretization.for_pixel_tolerance(2, 9)


def _dictionary():
    from repro.experiments.common import default_dictionary

    return default_dictionary("cars")


def stolen_file(seed: int, count: int) -> Dict[str, object]:
    """``{username: StoredPassword}`` for the seeded synthetic population."""
    from repro.crypto.hashing import Hasher
    from repro.geometry.point import Point
    from repro.passwords.system import enroll_password

    scheme = _scheme()
    entries = list(_dictionary().prioritized_entries(BUDGET))
    rng = np.random.default_rng((seed, 5))
    picks = rng.integers(0, len(entries), size=count).tolist()
    jitter = rng.integers(0, 7, size=count).tolist()
    records = {}
    for index in range(count):
        username = f"acct{index:07d}"
        entry = entries[picks[index]]
        if index % VICTIM_EVERY == 0:
            points = list(entry)
        else:
            points = [
                Point.xy(int(p.x) + SURVIVOR_SHIFT + jitter[index], int(p.y) + SURVIVOR_SHIFT)
                for p in entry
            ]
        records[username] = enroll_password(scheme, points, Hasher(salt=username.encode()))
    return records


def reference(seed: int, count: int) -> Dict[str, tuple]:
    """Serial ``offline_attack_stolen_file`` outcome per account."""
    from repro.attacks.offline import offline_attack_stolen_file

    result = offline_attack_stolen_file(
        _scheme(), stolen_file(seed, count), _dictionary(), guess_budget=BUDGET
    )
    return {o.username: (o.cracked, o.guesses_hashed) for o in result.outcomes}


class Attack:
    """Grind-host state: the stolen file, its waves and the attack pool."""

    def __init__(self, seed: int, count: int) -> None:
        from repro.attacks.parallel import ShardedAttackRunner

        self.scheme = _scheme()
        self.dictionary = _dictionary()
        self.records = stolen_file(seed, count)
        names = sorted(self.records)
        self.waves = [
            {name: self.records[name] for name in names[start : start + WAVE]}
            for start in range(0, len(names), WAVE)
        ]
        self.runner = ShardedAttackRunner(workers=WORKERS, mode="queue")

    def _run(self, records):
        return self.runner.run_stolen_file(
            self.scheme, records, self.dictionary, guess_budget=BUDGET
        )

    def warm_up(self) -> None:
        """Start the pool and build each worker's runtime (same payload)."""
        first = dict(list(self.waves[0].items())[:WARM_UP_ACCOUNTS])
        self._run(first)

    def grind(self, seconds: float, results_path: str) -> dict:
        """Grind waves until *seconds* have passed; outcomes go to a file.

        Returns per-wave ``[end, latency, hashes]`` (end relative to the
        start) plus the scheduler telemetry summed over the waves.
        """
        waves: List[list] = []
        busy: Dict[int, float] = {}
        tasks = 0
        started = time.perf_counter()
        deadline = started + seconds
        with open(results_path, "w", encoding="utf-8") as results:
            index = 0
            while True:
                wave = self.waves[index % len(self.waves)]
                tick = time.perf_counter()
                result = self._run(wave)
                done = time.perf_counter()
                waves.append([done - started, done - tick, result.hash_operations])
                stats = self.runner.last_stats
                tasks += stats.tasks
                for pid, spent in stats.worker_busy.items():
                    busy[pid] = busy.get(pid, 0.0) + spent
                results.write(
                    json.dumps(
                        [[o.username, o.cracked, o.guesses_hashed] for o in result.outcomes]
                    )
                    + "\n"
                )
                index += 1
                if done >= deadline:
                    break
        return {
            "waves": waves,
            "wall": time.perf_counter() - started,
            "busy": list(busy.values()),
            "tasks": tasks,
        }

    def traced_slice(self) -> dict:
        """A serial slice (``workers=1``, in-process), untraced and traced.

        The traced run wraps ``CenteredBatchKernel.locate`` and the
        per-record matcher that ``offline_attack_stolen_file`` builds, so
        kernel and hash time split the slice's wall time.
        """
        import repro.attacks.offline as offline
        from repro.core.batch import CenteredBatchKernel

        names = sorted(self.records)[:SLICE_ACCOUNTS]
        records = {name: self.records[name] for name in names}
        guesses = offline.prepare_guess_batch(self.dictionary, BUDGET, self.scheme.dim)

        def run() -> float:
            tick = time.perf_counter()
            offline.offline_attack_stolen_file(
                self.scheme, records, self.dictionary, guess_budget=BUDGET, guesses=guesses
            )
            return time.perf_counter() - tick

        perf = time.perf_counter
        totals = {"kernel_s": 0.0, "kernel_calls": 0, "kernel_rows": 0, "hash_s": 0.0, "hashes": 0}
        locate = CenteredBatchKernel.locate
        matcher_factory = offline._record_matcher

        def timed_locate(kernel, points, public):
            tick = perf()
            try:
                return locate(kernel, points, public)
            finally:
                totals["kernel_s"] += perf() - tick
                totals["kernel_calls"] += 1
                totals["kernel_rows"] += len(points)

        def timed_matcher(*args, **kwargs):
            matcher = matcher_factory(*args, **kwargs)

            def match(row):
                tick = perf()
                try:
                    return matcher(row)
                finally:
                    totals["hash_s"] += perf() - tick
                    totals["hashes"] += 1

            return match

        untraced, traced = [], []
        for _ in range(SLICE_REPEATS):
            untraced.append(run())
            CenteredBatchKernel.locate = timed_locate
            offline._record_matcher = timed_matcher
            try:
                traced.append(run())
            finally:
                CenteredBatchKernel.locate = locate
                offline._record_matcher = matcher_factory
        for key in totals:
            totals[key] /= SLICE_REPEATS
        untraced.sort()
        traced.sort()
        untraced_s, traced_s = untraced[SLICE_REPEATS // 2], traced[SLICE_REPEATS // 2]
        totals.update({"untraced_s": untraced_s, "traced_s": traced_s, "accounts": len(names)})
        return totals

    def close(self) -> None:
        """Shut the attack pool down."""
        self.runner.close()


# -- benchmark side ----------------------------------------------------------------

ROUNDS = 10
SETUPS = 5


def file_size(seconds: float) -> int:
    """Accounts in the stolen file: scales with the run's length."""
    return max(int(ACCOUNTS_PER_SECOND * seconds), 4 * WAVE)


def _start(run, tag: str, count: int):
    results = os.path.join(run.workdir, f"{tag}.results.jsonl")
    host = common.Host(
        run.root, run.workdir,
        ["grind", "--seed", str(run.seed), "--accounts", str(count), "--results", results],
        tag,
    )
    run.hosts.append(host)
    info = host.wait_ready(timeout=150)
    info["setup_s"] = time.perf_counter() - host.started
    info["results"] = results
    return host, info


def _grind(run, host, seconds: float) -> dict:
    pids = list(host.pids)
    before = common.ProcSample(pids)
    own = time.process_time()
    host.send(f"grind {seconds}")
    reply = host.read(timeout=seconds + 120)
    after = common.ProcSample(pids)
    reply["cpu"] = after.cpu_since(before, pids)
    reply["rss_mb"] = sum(common.vm_hwm_kb(pid) for pid in pids) / 1024
    reply["bench_cpu_share"] = (time.process_time() - own) / (after.when - before.when)
    return reply


def _rounds(reply: dict, seconds: float) -> dict:
    """Per-round hash rates (by wave completion time) and wave latencies.

    A round holds about 60 waves, too few for per-round tail quantiles, so
    the latency quantiles pool every wave of the run.
    """
    rates, counts = [], []
    previous_end = 0.0
    for index in range(ROUNDS):
        low, high = seconds * index / ROUNDS, seconds * (index + 1) / ROUNDS
        waves = [w for w in reply["waves"] if low <= w[0] < high]
        if not waves:
            continue
        end = max(w[0] for w in waves)
        rates.append(sum(w[2] for w in waves) / (end - previous_end))
        previous_end = end
        counts.append(len(waves))
    latencies = [w[1] for w in reply["waves"]]
    return {
        "rates": rates,
        "counts": counts,
        "p50": common.quantile(latencies, 0.50) * 1e3,
        "p95": common.quantile(latencies, 0.95) * 1e3,
        "p99": common.quantile(latencies, 0.99) * 1e3,
    }


def _check(run, results_path: str, expected: Dict[str, tuple]) -> None:
    """Every wave's outcomes against the serial reference."""
    checked = wrong = 0
    example = None
    with open(results_path, encoding="utf-8") as handle:
        for line in handle:
            for username, cracked, hashed in json.loads(line):
                checked += 1
                if expected.get(username) != (cracked, hashed):
                    wrong += 1
                    example = example or (username, (cracked, hashed), expected.get(username))
    run.attempted += checked
    run.failed += wrong
    if wrong:
        run.failures.append(f"{wrong} grind outcomes differ from the serial reference, e.g. {example}")


def _record_deployment(run, info: dict, expected: Dict[str, tuple]) -> None:
    """Provenance from the host, and the designed mix (same at one seed)."""
    run.provenance.update(
        {
            "attack_workers": WORKERS,
            "guess_budget": BUDGET,
            "wave_accounts": WAVE,
            "telemetry": "on" if info.get("telemetry") else "off",
            "commit_mode": "n/a (no storage layer runs)",
            "journal_mode": "n/a (no storage layer runs)",
        }
    )
    cracked = sum(1 for cracked, _ in expected.values() if cracked)
    run.note(f"mix (design, seed {run.seed}): {len(expected)} accounts, {cracked} cracked, "
             f"{sum(h for _, h in expected.values())} hashes per pass")


def end_to_end(run) -> dict:
    """Untraced grind: :data:`SETUPS` set-ups, then grind for the run."""
    count = file_size(run.seconds)
    expected = reference(run.seed, count)
    setup_times = []
    for index in range(SETUPS - 1):
        host, setup_info = _start(run, f"setup{index}", count)
        setup_times.append(setup_info["setup_s"])
        host.stop()
    host, info = _start(run, "measured", count)
    setup_times.append(info["setup_s"])
    try:
        reply = _grind(run, host, run.seconds)
    finally:
        host.stop()
    _check(run, info["results"], expected)
    rounds = _rounds(reply, run.seconds)
    hashes = sum(w[2] for w in reply["waves"])
    run.note(f"grind: {len(reply['waves'])} waves of {WAVE} accounts, {hashes} hashes in "
             f"{reply['wall']:.2f}s; waves per round {rounds['counts']}; wave p99 "
             f"{rounds['p99']:.3f} ms")
    run.note(f"set-up times (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    _record_deployment(run, info, expected)
    return {
        "setup_s": common.median(setup_times),
        "decisions_per_s": common.median(rounds["rates"]),
        "latency_p50_ms": rounds["p50"],
        "latency_p95_ms": rounds["p95"],
        "cpu_us_per_decision": reply["cpu"] / hashes * 1e6,
        "peak_rss_mb": reply["rss_mb"],
    }


def per_layer(run) -> dict:
    """Traced grind: scheduler telemetry plus the traced serial slice."""
    count = file_size(run.seconds)
    expected = reference(run.seed, count)
    host, info = _start(run, "traced", count)
    try:
        reply = _grind(run, host, run.seconds / 2)
        host.send("slice")
        trace = host.read(timeout=120)
    finally:
        host.stop()
    _check(run, info["results"], expected)
    busy = reply["busy"]
    mean_busy = sum(busy) / len(busy)
    kernel_share = trace["kernel_s"] / trace["traced_s"]
    hash_share = trace["hash_s"] / trace["traced_s"]
    metrics = {
        "gen.cpu_share": reply["bench_cpu_share"],
        "kernel.us_per_login": trace["kernel_s"] / trace["hashes"] * 1e6,
        "kernel.rows_per_call": trace["kernel_rows"] / trace["kernel_calls"],
        "hash.us_per_login": trace["hash_s"] / trace["hashes"] * 1e6,
        "enroll.us_per_account": info["build_s"] / count * 1e6,
        "start.s": info["setup_s"] - info["build_s"] - info["pool_start_s"],
        "attack.pool_start_s": info["pool_start_s"],
        "attack.busy_share": sum(busy) / (WORKERS * reply["wall"]),
        "attack.straggler_ratio": max(busy) / mean_busy,
        "attack.tasks": reply["tasks"] / len(reply["waves"]),
        "attack.hashes": sum(hashed for _, hashed in expected.values()),
        "attack.kernel_share": kernel_share,
        "attack.hash_share": hash_share,
        "tail.latency_p99_ms": _rounds(reply, run.seconds / 2)["p99"],
        "trace.overhead_share": 1 - trace["untraced_s"] / trace["traced_s"],
        "trace.unattributed_share": 1 - kernel_share - hash_share,
        "mix.cracked": sum(1 for cracked, _ in expected.values() if cracked),
    }
    run.note(f"layer budget, traced serial slice of {trace['accounts']} accounts "
             f"({trace['hashes']:.0f} guesses, {trace['traced_s'] * 1e3:.1f} ms):")
    for label, share in (("kernel locate (core.batch)", kernel_share),
                         ("hash loop (per-record matcher)", hash_share),
                         ("unattributed (attacks.offline)", 1 - kernel_share - hash_share)):
        run.note(f"  {label:<34} {share * trace['traced_s'] / trace['hashes'] * 1e6:8.3f} "
                 f"us/guess  {share:7.1%}")
    run.note(f"  parallel grind: busy share {metrics['attack.busy_share']:.3f}, straggler "
             f"{metrics['attack.straggler_ratio']:.3f}, {metrics['attack.tasks']:.1f} tasks/wave")
    _record_deployment(run, info, expected)
    return metrics
