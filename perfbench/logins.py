"""The serving workloads: ``login-storm`` and ``login-cluster``.

Both are closed loops: the generator (this process) opens
:data:`streams.CONNECTIONS` connections, each keeping :data:`WINDOW`
requests in flight, and plays the seeded streams of :mod:`streams`.

``login-storm``
    One ``LoginServer`` process over a sqlite store at the deployed
    defaults (WAL, group commit), bulk-enrolled by the server at start.
    Half the attempts are wrong, against a hot population the warm-up has
    touched once, so the throttle group commit and the device writes do
    the most work and no router runs.
``login-cluster``
    ``ServingCluster(shard_uris=...)``: a router plus two workers over two
    sqlite shards the benchmark bulk-enrolls first.  One attempt in ten is
    wrong and one in :data:`streams.FIRST_TOUCH_EVERY` touches an account
    for the first time since its shard opened, so the router hop and the
    storage reads do the most work.

An untraced run reports throughput and CPU per login as medians over
:data:`ROUNDS` rounds, latency quantiles over every timed request, and
the median of :data:`SETUPS` set-up times (the last set-up is the one
measured).  A traced run measures one untraced phase and one
traced phase of half the run each and reports the per-layer metrics of
the traced phase.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Dict, List, Optional

import common
import loadgen
import streams

WINDOW = 32
ROUNDS = 20
#: Set-ups per untraced run (the median is reported); the cluster's are
#: longer and steadier, so it needs fewer.
SETUPS = {"login-storm": 5, "login-cluster": 3}
STORM_ACCOUNTS = 2048
STORM_CYCLE = 20_000
#: Logins per second the cluster stream is sized for (about 1.5x what a
#: 2-CPU host sustains); a faster system ends its run early rather than
#: reuse accounts, which would change the first-touch share.
CLUSTER_RATE_CAP = 12_000
CLUSTER_WARMUP = 1_000
SHARDS = 2
REPLICAS = 64
#: Generator CPU share above which a run is refused as generator-bound.
GENERATOR_LIMIT = 0.9
STATUS = {True: b"accept", False: b"reject"}


class Workload:
    """Population, streams and expected decisions of one login workload."""

    def __init__(self, name: str, seed: int, seconds: int) -> None:
        self.name = name
        if name == "login-storm":
            self.population = streams.Population(seed, STORM_ACCOUNTS)
            self.streams = streams.storm_streams(seed, STORM_ACCOUNTS, STORM_CYCLE)
        else:
            per_connection = CLUSTER_WARMUP + CLUSTER_RATE_CAP * seconds // streams.CONNECTIONS
            self.streams, count = streams.cluster_streams(seed, per_connection, CLUSTER_WARMUP)
            self.population = streams.Population(seed, count)
        self.decisions = streams.reference_decisions(self.population)
        self.lines = [stream.encode(self.population) for stream in self.streams]
        self.expected = [
            [STATUS[bool(ok)] for ok in self.decisions[s.accounts, s.variants].tolist()]
            for s in self.streams
        ]
        self.mix = streams.mix_of(
            self.streams, [len(s) for s in self.streams], self.decisions
        )


# -- deployments ------------------------------------------------------------------


class Deployment:
    """The program's server processes for one phase of a run."""

    def __init__(self, run, workload: Workload, tag: str, traced: bool) -> None:
        self.run = run
        self.workload = workload
        self.tag = tag
        self.traced = traced
        self.hosts: List[common.Host] = []
        self.server_pids: List[int] = []
        self.router_pids: List[int] = []
        self.port = 0
        self.setup_s = 0.0
        self.enroll_s = 0.0
        self.info: dict = {}
        self.layers: List[dict] = []
        self.traced_hosts: List[common.Host] = []

    def _host(self, args, tag) -> common.Host:
        host = common.Host(self.run.root, self.run.workdir, args, tag)
        self.hosts.append(host)
        self.run.hosts.append(host)
        return host

    def _spans(self, tag: str) -> str:
        return os.path.join(self.run.trace_dir, f"{self.workload.name}-{tag}.spans.jsonl")

    def mark(self) -> None:
        """Start the traced phase in every traced host."""
        for host in self.traced_hosts:
            host.send("mark")
            host.read(30)

    def stop(self) -> None:
        """Stop every host, router first; keep the layer summaries."""
        for host in reversed(self.hosts):
            message = host.stop()
            if "layers" in message:
                self.layers.append(message["layers"])


class Storm(Deployment):
    """``serve.py storm``: the server enrolls its own sqlite store."""

    def start(self) -> None:
        self.db = os.path.join(self.run.workdir, f"{self.tag}.db")
        args = ["storm", "--db", self.db, "--seed", str(self.run.seed),
                "--accounts", str(STORM_ACCOUNTS), "--fault", self.run.fault]
        if self.traced:
            args += ["--trace", "--spans", self._spans(self.tag)]
        host = self._host(args, self.tag)
        if self.traced:
            self.traced_hosts.append(host)
        self.info = host.wait_ready()
        self.setup_s = time.perf_counter() - host.started
        self.enroll_s = self.info["enroll_s"]
        self.port = self.info["port"]
        self.server_pids = list(host.pids)

    def durable_throttles(self) -> Dict[str, Optional[dict]]:
        from repro.passwords.storage import SQLiteBackend

        backend = SQLiteBackend(self.db)
        try:
            return {name: backend.get_throttle(name) for name in self.workload.population.names}
        finally:
            backend.close()


class Cluster(Deployment):
    """Two sqlite shards, enrolled here, served by the cluster."""

    def _enroll(self) -> None:
        from repro.obs import NULL_REGISTRY
        from repro.passwords.defense import DefenseConfig
        from repro.passwords.passpoints import PassPointsSystem
        from repro.passwords.storage import SQLiteBackend, ShardedBackend
        from repro.passwords.store import PasswordStore, scheme_named
        from repro.study.image import cars_image

        defense = DefenseConfig.from_spec("lockout=none")
        backend = ShardedBackend(
            [SQLiteBackend(path) for path in self.paths], replicas=REPLICAS
        )
        backend.put_meta("scheme", "centered")
        backend.put_meta("tolerance_px", str(streams.TOLERANCE_PX))
        backend.put_meta("image", streams.IMAGE)
        backend.put_meta("defense", defense.to_spec())
        store = PasswordStore(
            system=PassPointsSystem(
                image=cars_image(), scheme=scheme_named("centered", streams.TOLERANCE_PX)
            ),
            backend=backend,
            defense=defense,
            registry=NULL_REGISTRY,
        )
        store.enroll_many(self.workload.population.accounts())
        backend.close()

    def start(self) -> None:
        self.paths = [
            os.path.join(self.run.workdir, f"{self.tag}-shard{k}.db") for k in range(SHARDS)
        ]
        started = time.perf_counter()
        self._enroll()
        self.enroll_s = time.perf_counter() - started
        uris = [f"sqlite:{path}" for path in self.paths]
        if not self.traced:
            host = self._host(["cluster", "--shards", ",".join(uris)], self.tag)
            self.info = host.wait_ready()
            self.router_pids = [host.pid]
            self.server_pids = [pid for pid in host.pids if pid != host.pid]
        else:
            workers = [
                self._host(
                    ["worker", "--uri", uri, "--trace", "--spans", self._spans(f"worker{k}")],
                    f"worker{k}-{self.tag}",
                )
                for k, uri in enumerate(uris)
            ]
            self.traced_hosts = workers
            ports = [worker.wait_ready()["port"] for worker in workers]
            front = self._host(
                ["router", "--workers", ",".join(f"127.0.0.1:{port}" for port in ports)],
                f"router-{self.tag}",
            )
            self.info = front.wait_ready()
            self.router_pids = [front.pid]
            self.server_pids = [pid for worker in workers for pid in worker.pids]
        self.setup_s = time.perf_counter() - started
        self.port = self.info["port"]

    def durable_throttles(self) -> Dict[str, Optional[dict]]:
        from repro.passwords.storage import SQLiteBackend, ShardedBackend

        backend = ShardedBackend(
            [SQLiteBackend(path) for path in self.paths], replicas=REPLICAS
        )
        self.info.setdefault("journal_mode", backend.shards[0].journal_mode)
        try:
            return {name: backend.get_throttle(name) for name in self.workload.population.names}
        finally:
            backend.close()


# -- one measured phase ----------------------------------------------------------------


def scrape(port: int) -> dict:
    """The program's ``{"op": "metrics"}`` snapshot (merged by a router)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b'{"op":"metrics","id":0}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            data += chunk
    return json.loads(data)["metrics"]


class Phase:
    """Everything one timed phase measured."""

    def __init__(self) -> None:
        self.rates: List[float] = []
        self.p50 = self.p95 = self.p99 = 0.0
        self.cpu_per: List[float] = []
        self.samples = 0
        self.decided = 0
        self.attempted = 0
        self.errors = 0
        self.failures: List[str] = []
        self.wall = self.gen_cpu_share = self.rss_mb = 0.0
        self.server_cpu = self.router_cpu = 0.0
        self.write_bytes = self.syscw = self.bytes = self.changes = 0
        self.sent: List[int] = []
        self.warm_sent: List[int] = []
        self.sent_mix: Dict[str, float] = {}
        self.before: Optional[dict] = None
        self.after: Optional[dict] = None


def measure(run, deployment: Deployment, seconds: float, traced: bool = False) -> Phase:
    """Warm up, then drive the deployment for *seconds* in :data:`ROUNDS`."""
    workload = deployment.workload
    phase = Phase()
    connections = [
        loadgen.Connection(("127.0.0.1", deployment.port), lines, stream, expected)
        for lines, stream, expected in zip(workload.lines, workload.streams, workload.expected)
    ]
    try:
        loadgen.run_phase(
            connections, WINDOW, lambda now: all(c.sent >= c.stream.warmup for c in connections)
        )
        phase.warm_sent = [c.sent for c in connections]
        before = scrape(deployment.port) if traced else None
        if traced:
            deployment.mark()
        pids = deployment.server_pids + deployment.router_pids
        round_seconds = seconds / ROUNDS
        bytes_before = sum(c.bytes_sent + c.bytes_received for c in connections)
        samples = [common.ProcSample(pids)]
        start = samples[0].when
        recorder = loadgen.Recorder(start, round_seconds, ROUNDS)
        boundaries = [start + round_seconds * (r + 1) for r in range(ROUNDS)]

        def tick(now: float) -> None:
            while len(samples) <= ROUNDS and now >= boundaries[len(samples) - 1]:
                samples.append(common.ProcSample(pids))

        gen_cpu = time.process_time()
        loadgen.run_phase(
            connections, WINDOW, lambda now: now >= start + seconds, recorder, tick
        )
        end = common.ProcSample(pids)
        gen_cpu = time.process_time() - gen_cpu
        wall = end.when - start
        phase.rss_mb = sum(common.vm_hwm_kb(pid) for pid in pids) / 1024
        after = scrape(deployment.port) if traced else None
    finally:
        for connection in connections:
            connection.sock.close()
    latencies = []
    for index in range(min(ROUNDS, len(samples) - 1)):
        decided = recorder.decided[index]
        if decided == 0:
            continue
        latencies += recorder.latencies[index]
        phase.rates.append(decided / (samples[index + 1].when - samples[index].when))
        phase.cpu_per.append(
            samples[index + 1].cpu_since(samples[index], deployment.server_pids + deployment.router_pids)
            / decided * 1e6
        )
    if latencies:
        phase.p50 = common.quantile(latencies, 0.50) * 1e3
        phase.p95 = common.quantile(latencies, 0.95) * 1e3
        phase.p99 = common.quantile(latencies, 0.99) * 1e3
    phase.samples = len(latencies)
    phase.decided = sum(recorder.decided) + recorder.extra
    phase.wall = wall
    phase.gen_cpu_share = gen_cpu / wall
    phase.sent = [c.sent for c in connections]
    phase.attempted = sum(phase.sent)
    phase.bytes = sum(c.bytes_sent + c.bytes_received for c in connections) - bytes_before
    errors = sum(c.errors for c in connections)
    mismatches = sum(c.mismatches for c in connections)
    dropped = loadgen.dropped(connections)
    phase.errors = errors + mismatches + dropped
    if errors:
        phase.failures.append(f"{errors} error responses")
    if mismatches:
        examples = [e for c in connections for e in c.mismatch_examples][:3]
        phase.failures.append(f"{mismatches} decisions differ from the reference: {examples}")
    if dropped:
        phase.failures.append(f"{dropped} requests never answered")
    if not phase.rates:
        raise RuntimeError("no round completed: the stream ran out or nothing was answered")
    if phase.gen_cpu_share > GENERATOR_LIMIT:
        raise RuntimeError(
            f"generator-bound: the load generator used {phase.gen_cpu_share:.0%} of a core, "
            "so the figures measure the generator, not the server"
        )
    phase.server_cpu = end.cpu_since(samples[0], deployment.server_pids)
    phase.router_cpu = end.cpu_since(samples[0], deployment.router_pids)
    phase.write_bytes, phase.syscw = end.writes_since(samples[0], deployment.server_pids)
    phase.before, phase.after = before, after
    return phase


def verify(deployment: Deployment, phase: Phase) -> int:
    """Compare every account's durable throttle with the reference replay.

    Returns the failed checks: the accounts whose persisted state differs,
    plus one when the cluster's sent mix drifted from its design.  The
    server must already be stopped.
    """
    workload = deployment.workload
    states, untouched, phase.changes = streams.expected_throttles(
        workload.streams, phase.sent, workload.decisions, phase.warm_sent
    )
    durable = deployment.durable_throttles()
    wrong = [
        (name, durable.get(name), states.get(index, untouched))
        for index, name in enumerate(workload.population.names)
        if durable.get(name) != states.get(index, untouched)
    ]
    if wrong:
        name, persisted, expected = wrong[0]
        phase.failures.append(
            f"{len(wrong)} persisted throttles differ from the reference, e.g. "
            f"{name}: {persisted} vs {expected}"
        )
    failed = len(wrong)
    sent_mix = streams.mix_of(workload.streams, phase.sent, workload.decisions)
    if workload.name == "login-cluster":
        drift = max(abs(sent_mix[k] - workload.mix[k]) for k in workload.mix)
        if drift > 0.02:
            phase.failures.append(f"mix drifted {drift:.3f} from the design: {sent_mix}")
            failed += 1
    phase.sent_mix = sent_mix
    return failed


def run_phase(run, workload: Workload, tag: str, seconds: float, traced: bool):
    """Start a deployment, measure it, stop it and check its durable state."""
    kind = Storm if workload.name == "login-storm" else Cluster
    deployment = kind(run, workload, tag, traced)
    deployment.start()
    try:
        phase = measure(run, deployment, seconds, traced)
    finally:
        deployment.stop()
    phase.errors += verify(deployment, phase)
    return deployment, phase


def setups(run, workload: Workload, count: int) -> List[float]:
    """Set the deployment up *count* times; stop each at once."""
    kind = Storm if workload.name == "login-storm" else Cluster
    times = []
    for index in range(count):
        deployment = kind(run, workload, f"setup{index}", False)
        deployment.start()
        deployment.stop()
        times.append(deployment.setup_s)
    return times


# -- metrics ---------------------------------------------------------------------------


def _counter(snapshot: dict, name: str) -> float:
    return sum(
        value for key, value in snapshot["counters"].items() if key.split("{")[0] == name
    )


def _hist(snapshot: dict, name: str) -> dict:
    return snapshot["histograms"].get(name) or {"count": 0, "sum": 0.0}


def _delta(phase: Phase, name: str, field: str) -> float:
    return (_hist(phase.after, name).get(field) or 0) - (_hist(phase.before, name).get(field) or 0)


def _record_deployment(run, workload: Workload, deployment: Deployment) -> None:
    """Provenance from the hosts, and the designed mix (same at one seed)."""
    info = deployment.info
    run.provenance.update(
        {
            "journal_mode": info.get("journal_mode"),
            "commit_mode": info.get("commit_mode"),
            "telemetry": "on" if info.get("telemetry") else "off",
            "window_per_connection": WINDOW,
            "connections": streams.CONNECTIONS,
        }
    )
    run.note(f"mix (design, seed {run.seed}): {json.dumps(workload.mix, sort_keys=True)}")


def end_to_end(run, workload: Workload) -> dict:
    """Untraced run: :data:`SETUPS` set-ups, then one measured phase."""
    setup_times = setups(run, workload, SETUPS[workload.name] - 1)
    deployment, phase = run_phase(run, workload, "measured", run.seconds, False)
    setup_times.append(deployment.setup_s)
    run.attempted += phase.attempted
    run.failed += phase.errors
    run.failures += phase.failures
    run.note(
        f"{workload.name}: {phase.decided} logins in {phase.wall:.2f}s; {phase.samples} "
        f"latency samples; p99 {phase.p99:.3f} ms ({phase.samples // 100} samples beyond it)"
    )
    run.note(f"per-round logins/s: {', '.join(f'{r:.0f}' for r in phase.rates)}")
    run.note(f"set-up times (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    run.note(f"generator CPU share {phase.gen_cpu_share:.2f}")
    run.note(f"timed mix sent: {json.dumps(phase.sent_mix)}")
    _record_deployment(run, workload, deployment)
    return {
        "setup_s": common.median(setup_times),
        "decisions_per_s": common.median(phase.rates),
        "latency_p50_ms": phase.p50,
        "latency_p95_ms": phase.p95,
        "cpu_us_per_decision": common.median(phase.cpu_per),
        "peak_rss_mb": phase.rss_mb,
    }


def per_layer(run, workload: Workload) -> dict:
    """Traced run: an untraced half, then a traced half on a fresh deployment."""
    half = run.seconds / 2
    cluster = workload.name == "login-cluster"
    _, plain = run_phase(run, workload, "plain", half, False)
    deployment, phase = run_phase(run, workload, "traced", half, True)
    for measured in (plain, phase):
        run.attempted += measured.attempted
        run.failed += measured.errors
        run.failures += measured.failures
    logins = phase.decided
    layers: Dict[str, dict] = {}
    for summary in deployment.layers:
        for name, entry in summary.items():
            total = layers.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
    empty = {"calls": 0, "rows": 0, "wall": 0.0, "cpu": 0.0, "self_cpu": 0.0,
             "in_flush_wall": 0.0, "in_flush_cpu": 0.0}
    flush = layers.get("flush", empty)
    kernel = layers.get("kernel", empty)
    commit = layers.get("commit", empty)
    reads = layers.get("read", empty)
    per = 1e6 / logins
    hash_wall = _delta(phase, "service_hash_seconds", "sum") - reads["in_flush_wall"]
    reads_outside_cpu = reads["cpu"] - reads["in_flush_cpu"]
    unattributed = phase.server_cpu - flush["cpu"] - reads_outside_cpu
    flushes = _counter(phase.after, "serving_flushes_total") - _counter(phase.before, "serving_flushes_total")
    batch_count = _delta(phase, "serving_batch_size", "count")
    queue = _hist(phase.after, "serving_queue_wait_seconds")
    metrics = {
        "gen.cpu_share": phase.gen_cpu_share,
        "wire.bytes_per_login": phase.bytes / logins,
        "router.cpu_us_per_login": phase.router_cpu * per,
        "router.share": phase.router_cpu / (phase.router_cpu + phase.server_cpu),
        "server.cpu_us_per_login": phase.server_cpu * per,
        "server.unattributed_us_per_login": unattributed * per,
        "queue.wait_p50_ms": (queue.get("p50") or 0.0) * 1e3,
        "queue.wait_p99_ms": (queue.get("p99") or 0.0) * 1e3,
        "queue.batch_mean": _delta(phase, "serving_batch_size", "sum") / max(batch_count, 1),
        "queue.flushes_per_1k_logins": flushes / logins * 1e3,
        "flush.us_per_login": flush["cpu"] * per,
        "kernel.us_per_login": kernel["cpu"] * per,
        "kernel.rows_per_call": kernel["rows"] / max(kernel["calls"], 1),
        "hash.us_per_login": hash_wall * per,
        "commit.us_per_login": commit["wall"] * per,
        "commit.rows_per_commit": commit["rows"] / max(commit["calls"], 1),
        "commit.per_1k_logins": commit["calls"] / logins * 1e3,
        "commit.write_share": commit["rows"] / logins,
        "io.write_kb_per_login": phase.write_bytes / 1024 / logins,
        "io.write_syscalls_per_login": phase.syscw / logins,
        "storage.reads_per_login": reads["calls"] / logins,
        "storage.read_us_per_login": reads["wall"] * per,
        "enroll.us_per_account": deployment.enroll_s / workload.population.count * 1e6,
        "start.s": deployment.setup_s - deployment.enroll_s,
        "tail.latency_p99_ms": plain.p99,
        "trace.overhead_share": 1 - common.median(phase.rates) / common.median(plain.rates),
        "trace.unattributed_share": unattributed / (phase.server_cpu + phase.router_cpu),
        "mix.accept_share": workload.mix["accept_share"],
        "mix.reject_share": workload.mix["reject_share"],
        "mix.locked_share": workload.mix["locked_share"],
        "mix.first_touch_share": workload.mix["first_touch_share"],
    }
    server_cpu = (phase.server_cpu + phase.router_cpu) * per
    budget = [
        ("router (serving.cluster)", phase.router_cpu * per, "cpu"),
        ("framing/JSON/event loop (serving.server)", unattributed * per, "cpu"),
        ("flush other (passwords.service)", (flush["self_cpu"] - hash_wall) * per, "cpu"),
        ("kernel locate (core.batch)", kernel["cpu"] * per, "cpu"),
        ("hash + decide loop", hash_wall * per, "wall"),
        ("group commit (passwords.store)", commit["cpu"] * per, "cpu"),
        ("storage reads (passwords.storage)", reads["cpu"] * per, "cpu"),
    ]
    run.note(f"layer budget, traced {workload.name} ({logins} logins, "
             f"server-side CPU {server_cpu:.1f} us/login):")
    for label, micros, clock in budget:
        if label.startswith("router") and not cluster:
            continue
        run.note(f"  {label:<44} {micros:8.2f} us/login  {micros / server_cpu:7.1%} of server-side CPU  [{clock}]")
    timed = phase.attempted - sum(phase.warm_sent)
    run.note(f"  commit rows/login {metrics['commit.write_share']:.3f}; the reference predicts "
             f"{phase.changes / timed:.3f} throttle changes/login (rows <= changes: "
             "one row per account per flush)")
    run.note(f"  registry: flush {_delta(phase, 'service_flush_seconds', 'sum') * per:.2f} us/login, "
             f"kernel {_delta(phase, 'service_kernel_seconds', 'sum') * per:.2f} us/login, "
             f"group commit {_delta(phase, 'store_write_batch_seconds', 'sum') * per:.2f} us/login (wall)")
    run.note(f"  trace.overhead_share {metrics['trace.overhead_share']:+.3f} "
             f"(traced {common.median(phase.rates):.0f} vs untraced {common.median(plain.rates):.0f} logins/s); "
             f"trace.unattributed_share {metrics['trace.unattributed_share']:.3f}")
    _record_deployment(run, workload, deployment)
    return metrics
