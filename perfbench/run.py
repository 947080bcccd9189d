"""The repository benchmark: one workload per run, checked and measured.

Run from the root of a checkout::

    python3 perfbench/run.py --workload login-storm --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``login-storm``    one ``LoginServer`` over sqlite, credential stuffing
``login-cluster``  ``ServingCluster`` over two sqlite shards, mostly legit
``grind``          ``ShardedAttackRunner`` grinding a stolen file

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and a layer budget.  Every run checks every
decision against an in-process reference (and, for the serving
workloads, every account's persisted throttle after the server stops);
mismatches, error responses and dropped requests count as failed.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
provenance and a human-readable report.

The program runs from the checkout's ``src``; scratch files go to
``.perfbench-work/`` in the checkout.  Without ``src/repro`` the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import common

#: End-to-end metrics: name -> unit.  "decision" is a login verdict on the
#: serving workloads and one hashed guess on ``grind``.
END_TO_END = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_us_per_decision": "us",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Layers a workload bypasses read 0.
PER_LAYER = {
    "host.canary_ms": "ms",
    "gen.cpu_share": "ratio",
    "wire.bytes_per_login": "B",
    "router.cpu_us_per_login": "us",
    "router.share": "ratio",
    "server.cpu_us_per_login": "us",
    "server.unattributed_us_per_login": "us",
    "queue.wait_p50_ms": "ms",
    "queue.wait_p99_ms": "ms",
    "queue.batch_mean": "count",
    "queue.flushes_per_1k_logins": "count",
    "flush.us_per_login": "us",
    "kernel.us_per_login": "us",
    "kernel.rows_per_call": "count",
    "hash.us_per_login": "us",
    "commit.us_per_login": "us",
    "commit.rows_per_commit": "count",
    "commit.per_1k_logins": "count",
    "commit.write_share": "ratio",
    "io.write_kb_per_login": "KB",
    "io.write_syscalls_per_login": "count",
    "storage.reads_per_login": "count",
    "storage.read_us_per_login": "us",
    "enroll.us_per_account": "us",
    "start.s": "s",
    "attack.pool_start_s": "s",
    "attack.busy_share": "ratio",
    "attack.straggler_ratio": "ratio",
    "attack.tasks": "count",
    "attack.hashes": "count",
    "attack.kernel_share": "ratio",
    "attack.hash_share": "ratio",
    "tail.latency_p99_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "mix.accept_share": "ratio",
    "mix.reject_share": "ratio",
    "mix.locked_share": "ratio",
    "mix.first_touch_share": "ratio",
    "mix.cracked": "count",
    "check.failed_share": "ratio",
}

WORKLOADS = ("login-storm", "login-cluster", "grind")

#: A run that is not done after this many seconds stops with an error.
WATCHDOG_SECONDS = 170


class Run:
    """Context of one benchmark run: options, hosts, counts and notes."""

    def __init__(self, opts, root: str) -> None:
        self.root = root
        self.workload = opts.workload
        self.seed = opts.seed
        self.seconds = opts.seconds
        self.trace = bool(opts.trace)
        self.fault = opts.fault
        self.workdir = os.path.join(root, common.WORK_ROOT, f"{opts.workload}-{os.getpid()}")
        self.trace_dir = os.path.join(root, common.WORK_ROOT, "traces")
        self.hosts = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.lines = []
        self.provenance = {}

    def note(self, line: str) -> None:
        """Add a line to the human-readable report."""
        self.lines.append(line)


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS}s")


def measure(run: Run) -> dict:
    """Run the workload; returns the metrics its mode reports."""
    import grindfile
    import logins

    canary = common.canary_ms()
    if run.workload == "grind":
        values = grindfile.per_layer(run) if run.trace else grindfile.end_to_end(run)
    else:
        workload = logins.Workload(run.workload, run.seed, run.seconds)
        if run.trace:
            values = logins.per_layer(run, workload)
        else:
            values = logins.end_to_end(run, workload)
    run.provenance.update(
        common.provenance(
            run.root,
            workload=run.workload,
            seed=run.seed,
            seconds=run.seconds,
            trace=run.trace,
            serving_workers={"login-storm": 1, "login-cluster": 2}.get(run.workload, 0),
            host_canary_ms=canary,
        )
    )
    if run.trace:
        values["host.canary_ms"] = canary
        values["check.failed_share"] = run.failed / max(run.attempted, 1)
        return {name: values.get(name, 0.0) for name in PER_LAYER}
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default="none", choices=("none", "decision", "throttle"),
                        help="break the program on purpose (self-test only)")
    opts = parser.parse_args(argv)
    root = common.checkout_root()
    if not common.program_present(root):
        print(f"error: {root} holds no program sources (src/repro)", file=sys.stderr)
        return 2
    if opts.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.environ.pop("REPRO_STORE_COMMIT", None)
    os.environ.pop("REPRO_ARRAY_BACKEND", None)
    run = Run(opts, root)
    os.makedirs(run.workdir, exist_ok=True)
    os.makedirs(run.trace_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _timeout)
    # SIGTERM unwinds through the cleanup below instead of orphaning hosts.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    signal.alarm(WATCHDOG_SECONDS)
    try:
        metrics = measure(run)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for host in run.hosts:
            host.close()
        shutil.rmtree(run.workdir, ignore_errors=True)
    units = PER_LAYER if run.trace else END_TO_END
    print("provenance " + json.dumps(run.provenance, sort_keys=True))
    for line in run.lines:
        print(line)
    for failure in run.failures:
        print("FAILED: " + failure)
    print(f"failed_share {run.failed / max(run.attempted, 1):.6f} "
          f"({run.failed} of {run.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    result = {
        "correct": run.failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
