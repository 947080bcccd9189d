"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

* ``repro list`` — show available experiments;
* ``repro run table1 figure8 …`` — run selected experiments (or ``all``)
  and print their reports;
* ``repro study --out study.json`` — generate and save the simulated field
  study;
* ``repro demo`` — the quickstart: enroll and verify a password under both
  schemes;
* ``repro attack`` — the §5.1 known-identifier dictionary attack on the
  simulated field study, sharded across worker processes (``--workers``);
* ``repro store create/login/dump/attack`` — operate a persistent
  password store on a backend URI (``memory:``, ``sqlite:PATH``,
  ``shards:sqlite:PREFIX{0..N}.db``): enroll a simulated population
  (resuming if already enrolled), run throttled logins, steal the password
  file, and grind the stolen file offline;
* ``repro serve`` — expose a store over TCP through the asyncio JSONL
  login protocol (micro-batched verification under the hood);
* ``repro flood`` — self-hosted load generation: start a server on an
  ephemeral port, flood it with concurrent clients, report throughput and
  p50/p95 latency; ``--trace`` additionally records per-flush span trees
  and prints the queue-wait vs. kernel-time breakdown;
* ``repro metrics`` — scrape a running ``repro serve`` process's metrics
  registry over the JSONL protocol (``--json`` snapshot or ``--prom``
  Prometheus text exposition);
* ``repro defense-matrix`` — sweep every DefenseConfig cell against the
  online attack and the stolen-file grind, pricing attacker cost per
  cracked account against defender verification cost.

Deployments take a ``--defense`` spec (``store create``, ``serve``) of the
form ``hash_cost=K,pepper=hex:HEX,captcha_after=N,rate_limit=WINDOW:MAX,
lockout=N|none``; ``store create`` persists it in backend meta (which
``dump`` — the stolen artifact — never includes), so reopened stores
verify under the deployment they enrolled with.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Centered Discretization with Application to "
            "Graphical Passwords' (Chiasson et al., UPSEC 2008)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run experiments and print reports")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'repro list'), or 'all'",
    )

    study_parser = sub.add_parser(
        "study", help="generate the simulated field study"
    )
    study_parser.add_argument(
        "--out", required=True, help="output JSON path"
    )
    study_parser.add_argument(
        "--seed", type=int, default=2008, help="simulation seed"
    )

    report_parser = sub.add_parser(
        "report",
        help="run experiments and export JSON/CSV artifacts",
    )
    report_parser.add_argument(
        "--out", required=True, help="output directory"
    )
    report_parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiment ids (default: all)",
    )

    sub.add_parser("demo", help="enroll/verify a password under both schemes")

    attack_top = sub.add_parser(
        "attack",
        help="known-identifier dictionary attack, sharded across processes",
    )
    attack_top.add_argument(
        "--scheme",
        choices=["centered", "robust", "static"],
        default="centered",
        help="discretization scheme (default: centered)",
    )
    attack_top.add_argument(
        "--image",
        choices=["cars", "pool"],
        default="cars",
        help="canonical study image (default: cars)",
    )
    attack_top.add_argument(
        "--tolerance", type=int, default=9, help="pixel tolerance r (default: 9)"
    )
    attack_top.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: one per schedulable CPU)",
    )
    attack_top.add_argument(
        "--victims",
        type=int,
        default=None,
        help="attack only the first N dataset passwords (default: all)",
    )
    attack_top.add_argument(
        "--mode",
        choices=("static", "queue"),
        default="queue",
        help=(
            "scheduling mode: 'queue' streams small tasks to idle workers "
            "(robust to skewed per-target cost), 'static' pins one "
            "contiguous shard per worker (default: queue)"
        ),
    )
    attack_top.add_argument(
        "--task-size",
        type=int,
        default=None,
        help="targets per queue task (default: auto, ~8 tasks per worker)",
    )

    store_parser = sub.add_parser(
        "store", help="operate a password store on a backend URI"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    create_parser = store_sub.add_parser(
        "create", help="enroll a simulated population (resumes if present)"
    )
    create_parser.add_argument(
        "uri", help="backend URI (memory:, sqlite:PATH, shards:TEMPLATE)"
    )
    create_parser.add_argument(
        "--scheme",
        choices=["centered", "robust", "static"],
        default="centered",
        help="discretization scheme (default: centered)",
    )
    create_parser.add_argument(
        "--tolerance", type=int, default=9, help="pixel tolerance r (default: 9)"
    )
    create_parser.add_argument(
        "--image",
        choices=["cars", "pool"],
        default="cars",
        help="canonical study image (default: cars)",
    )
    create_parser.add_argument(
        "--users", type=int, default=10, help="accounts to enroll (default: 10)"
    )
    create_parser.add_argument(
        "--defense",
        default=None,
        help=(
            "defense spec, e.g. 'hash_cost=16,pepper=hex:a1b2,captcha_after=3,"
            "rate_limit=30:5,lockout=10' (default: none; persisted in backend "
            "meta and re-applied on every reopen)"
        ),
    )

    login_parser = store_sub.add_parser(
        "login", help="one throttled login attempt against a store"
    )
    login_parser.add_argument("uri", help="backend URI")
    login_parser.add_argument("--user", required=True, help="account name")
    login_parser.add_argument(
        "--points",
        required=True,
        help="click-points as 'x,y;x,y;...' (5 for classic PassPoints)",
    )

    dump_parser = store_sub.add_parser(
        "dump", help="print the password file (what an attacker steals)"
    )
    dump_parser.add_argument("uri", help="backend URI")

    attack_parser = store_sub.add_parser(
        "attack", help="steal the password file and grind it offline"
    )
    attack_parser.add_argument("uri", help="backend URI")
    attack_parser.add_argument(
        "--budget",
        type=int,
        default=500,
        help="hash-guess budget per account (default: 500)",
    )
    attack_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: one per schedulable CPU)",
    )
    attack_parser.add_argument(
        "--mode",
        choices=("static", "queue"),
        default="queue",
        help=(
            "scheduling mode: 'queue' streams small tasks to idle workers "
            "(robust to early-stopped accounts), 'static' pins one "
            "contiguous shard per worker (default: queue)"
        ),
    )
    attack_parser.add_argument(
        "--task-size",
        type=int,
        default=None,
        help="accounts per queue task (default: auto, ~8 tasks per worker)",
    )
    attack_parser.add_argument(
        "--pepper",
        default=None,
        help=(
            "hex-encoded server pepper, if the attacker stole the server "
            "config too (default: file-only theft — a peppered store then "
            "fails closed and nothing cracks)"
        ),
    )

    serve_parser = sub.add_parser(
        "serve", help="serve a store over TCP (asyncio JSONL protocol)"
    )
    serve_parser.add_argument("uri", help="backend URI (run 'store create' first)")
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind host")
    serve_parser.add_argument(
        "--port", type=int, default=7411, help="bind port (default: 7411)"
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=256,
        help="flush when this many attempts are pending (default: 256)",
    )
    serve_parser.add_argument(
        "--flush-interval", type=float, default=0.0,
        help="flush deadline in seconds; 0 = next event-loop pass (default)",
    )
    serve_parser.add_argument(
        "--defense",
        default=None,
        help=(
            "override the store's persisted defense spec for this serving "
            "run (same syntax as 'store create --defense')"
        ),
    )

    cluster_parser = sub.add_parser(
        "cluster",
        help="serve a shards: store as one worker process per shard",
    )
    cluster_parser.add_argument(
        "uri",
        help="shards: URI over durable children (run 'store create' first)",
    )
    cluster_parser.add_argument("--host", default="127.0.0.1", help="bind host")
    cluster_parser.add_argument(
        "--port", type=int, default=7411, help="router port (default: 7411)"
    )
    cluster_parser.add_argument(
        "--max-batch", type=int, default=256,
        help="per-worker flush size (default: 256)",
    )
    cluster_parser.add_argument(
        "--flush-interval", type=float, default=0.0,
        help="per-worker flush deadline in seconds (default: 0)",
    )
    cluster_parser.add_argument(
        "--max-pipeline", type=int, default=128,
        help="in-flight requests allowed per connection (default: 128)",
    )
    cluster_parser.add_argument(
        "--max-request-bytes", type=int, default=64 * 1024,
        help="request line size limit in bytes (default: 65536)",
    )

    flood_parser = sub.add_parser(
        "flood", help="flood a self-hosted server and report throughput/latency"
    )
    flood_parser.add_argument(
        "uri", help="backend URI (enrolled on the fly when empty)"
    )
    flood_parser.add_argument(
        "--users", type=int, default=25, help="accounts to enroll (default: 25)"
    )
    flood_parser.add_argument(
        "--attempts", type=int, default=2000,
        help="total login attempts (default: 2000)",
    )
    flood_parser.add_argument(
        "--clients", type=int, default=16,
        help="concurrent TCP client connections (default: 16)",
    )
    flood_parser.add_argument(
        "--connections", type=int, default=None,
        help="alias for --clients that wins when both are given",
    )
    flood_parser.add_argument(
        "--pipeline-depth", type=int, default=1,
        help=(
            "login requests each client keeps in flight per write burst "
            "(default: 1 = strict request/response)"
        ),
    )
    flood_parser.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "self-host a shard-per-process ServingCluster instead of a "
            "single in-process server (requires a shards: URI over "
            "durable children)"
        ),
    )
    flood_parser.add_argument(
        "--wrong-fraction", type=float, default=0.25,
        help="fraction of attacker (wrong-password) attempts (default: 0.25)",
    )
    flood_parser.add_argument(
        "--seed", type=int, default=2008, help="stream seed (default: 2008)"
    )
    flood_parser.add_argument(
        "--scheme",
        choices=["centered", "robust", "static"],
        default="centered",
        help="scheme when enrolling a fresh backend (default: centered)",
    )
    flood_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record per-flush span trees on the self-hosted server and "
            "print the queue-wait vs. kernel-time breakdown"
        ),
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="scrape a running server's metrics registry over the wire",
    )
    metrics_parser.add_argument(
        "--host", default="127.0.0.1", help="server host (default: 127.0.0.1)"
    )
    metrics_parser.add_argument(
        "--port", type=int, default=7411, help="server port (default: 7411)"
    )
    metrics_format = metrics_parser.add_mutually_exclusive_group()
    metrics_format.add_argument(
        "--json",
        action="store_true",
        help="emit the raw registry snapshot as JSON (the default)",
    )
    metrics_format.add_argument(
        "--prom",
        action="store_true",
        help="emit Prometheus text exposition instead of JSON",
    )

    matrix_parser = sub.add_parser(
        "defense-matrix",
        help="sweep defense cells against online and stolen-file attacks",
    )
    matrix_parser.add_argument(
        "--scheme",
        choices=["centered", "robust", "static"],
        default="centered",
        help="discretization scheme (default: centered)",
    )
    matrix_parser.add_argument(
        "--tolerance", type=int, default=9, help="pixel tolerance r (default: 9)"
    )
    matrix_parser.add_argument(
        "--online-budget", type=int, default=30,
        help="online guesses per account (default: 30)",
    )
    matrix_parser.add_argument(
        "--offline-budget", type=int, default=200,
        help="offline grind guesses per record (default: 200)",
    )
    matrix_parser.add_argument(
        "--captcha-solve-seconds", type=float, default=None,
        help=(
            "price the attacker pays a CAPTCHA-solving service per "
            "challenge (default: unsolvable — challenges wall the attack)"
        ),
    )
    matrix_parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    matrix_parser.add_argument(
        "--out", default=None, help="also write the JSON report to this path"
    )
    return parser


def _cmd_list() -> int:
    from repro.experiments.runner import EXPERIMENTS

    for experiment_id in EXPERIMENTS:
        print(experiment_id)
    return 0


def _cmd_run(experiment_ids: Sequence[str]) -> int:
    from repro.experiments.runner import EXPERIMENTS, run_all

    if list(experiment_ids) == ["all"]:
        selected = list(EXPERIMENTS)
    else:
        unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiments: {', '.join(unknown)} "
                f"(try 'repro list')",
                file=sys.stderr,
            )
            return 2
        selected = list(experiment_ids)
    results = run_all(selected)
    for index, result in enumerate(results.values()):
        if index:
            print()
        print(result.rendered())
    return 0


def _cmd_study(out_path: str, seed: int) -> int:
    from repro.study.fieldstudy import PAPER_STUDY, generate_field_study

    dataset = generate_field_study(PAPER_STUDY.with_seed(seed))
    dataset.save(out_path)
    summary = dataset.summary()
    print(
        f"wrote {out_path}: {summary['participants']} participants, "
        f"{summary['passwords']} passwords, {summary['logins']} logins"
    )
    return 0


def _cmd_report(out_dir: str, experiment_ids: Sequence[str]) -> int:
    from repro.experiments.export import write_reports
    from repro.experiments.runner import EXPERIMENTS, run_all

    selected = list(experiment_ids) if experiment_ids else list(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiments: {', '.join(unknown)} (try 'repro list')",
            file=sys.stderr,
        )
        return 2
    results = run_all(selected)
    summary = write_reports(results.values(), out_dir)
    print(f"wrote {len(results)} experiment artifacts; summary: {summary}")
    return 0


def _cmd_demo() -> int:
    from repro.core.centered import CenteredDiscretization
    from repro.core.robust import RobustDiscretization
    from repro.geometry.point import Point
    from repro.passwords.passpoints import PassPointsSystem
    from repro.study.image import cars_image

    image = cars_image()
    points = [
        Point.xy(42, 61),
        Point.xy(130, 88),
        Point.xy(227, 154),
        Point.xy(318, 222),
        Point.xy(401, 290),
    ]
    retry_ok = [Point.xy(int(p.x) + 4, int(p.y) - 3) for p in points]
    retry_bad = [Point.xy(int(p.x) + 14, int(p.y)) for p in points]
    for scheme in (
        CenteredDiscretization.for_pixel_tolerance(2, 9),
        RobustDiscretization.for_pixel_tolerance(2, 9),
    ):
        system = PassPointsSystem(image=image, scheme=scheme)
        stored = system.enroll(points)
        print(
            f"{scheme.name}: cell {scheme.cell_size}px | "
            f"exact login: {system.verify(stored, points)} | "
            f"4px-off login: {system.verify(stored, retry_ok)} | "
            f"14px-off login: {system.verify(stored, retry_bad)}"
        )
    return 0


def _scheme_named(name: str, tolerance: int):
    """Construct a 2-D scheme from its CLI name and pixel tolerance."""
    from repro.passwords.store import scheme_named

    return scheme_named(name, tolerance)


def _store_for_backend(backend, defense_spec: Optional[str] = None):
    """Reconstruct the deployed store from a backend's persisted meta.

    Thin CLI wrapper over :func:`repro.passwords.store.deployed_store`
    (shared with the cluster workers, which resume shards the same way).
    """
    from repro.passwords.store import deployed_store

    return deployed_store(backend, defense_spec=defense_spec)


def _cmd_store_create(
    uri: str,
    scheme_name: str,
    tolerance: int,
    image_name: str,
    users: int,
    defense_spec: Optional[str] = None,
) -> int:
    from repro.errors import ReproError
    from repro.experiments.common import default_dataset
    from repro.passwords.defense import DefenseConfig
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.storage import backend_from_uri
    from repro.passwords.store import PasswordStore
    from repro.study.image import cars_image, pool_image

    try:
        defense = DefenseConfig.from_spec(defense_spec or "")
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A reopened backend must be resumed under the deployment it was
    # created with: records enrolled under one scheme (or one defense's
    # pepper / hash-cost) are unverifiable under another, so a mismatch
    # is refused rather than overwritten.
    existing = backend.get_meta("scheme")
    if existing is not None:
        requested = (scheme_name, str(tolerance), image_name, defense.to_spec())
        persisted = (
            existing,
            backend.get_meta("tolerance_px"),
            backend.get_meta("image"),
            backend.get_meta("defense") or "",
        )
        if requested != persisted:
            print(
                f"{backend.uri} was created with scheme={persisted[0]} "
                f"tolerance={persisted[1]} image={persisted[2]} "
                f"defense={persisted[3] or 'none'!r}; refusing to "
                f"re-create it as scheme={scheme_name} tolerance={tolerance} "
                f"image={image_name} defense={defense.to_spec() or 'none'!r}",
                file=sys.stderr,
            )
            backend.close()
            return 2
    else:
        backend.put_meta("scheme", scheme_name)
        backend.put_meta("tolerance_px", str(tolerance))
        backend.put_meta("image", image_name)
        if not defense.is_neutral:
            backend.put_meta("defense", defense.to_spec())
    image = {"cars": cars_image, "pool": pool_image}[image_name]()
    system = PassPointsSystem(image=image, scheme=_scheme_named(scheme_name, tolerance))
    store = PasswordStore(system=system, backend=backend, defense=defense)
    samples = default_dataset().passwords_on(image_name)[:users]
    to_enroll = []
    skipped = 0
    for sample in samples:
        username = f"user{sample.password_id}"
        if username in backend:
            skipped += 1
            continue
        to_enroll.append((username, list(sample.points)))
    # Bulk enrollment: every new record and initial throttle state lands
    # in one group commit (a single transaction on sqlite backends).
    enrolled = store.enroll_many(to_enroll) if to_enroll else 0
    defended = "" if defense.is_neutral else f", defense {defense.to_spec()!r}"
    print(
        f"{backend.uri}: enrolled {enrolled} new accounts under "
        f"{system.scheme.name} ({skipped} already present, "
        f"{len(backend)} total{defended})"
    )
    backend.close()
    return 0


def _cmd_store_login(uri: str, username: str, points_arg: str) -> int:
    from repro.errors import LockoutError, ReproError
    from repro.geometry.point import Point
    from repro.passwords.storage import backend_from_uri

    try:
        points = [
            Point.xy(int(x), int(y))
            for x, y in (pair.split(",") for pair in points_arg.split(";"))
        ]
    except ValueError:
        print(f"malformed --points {points_arg!r} (want 'x,y;x,y;...')", file=sys.stderr)
        return 2
    try:
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        store = _store_for_backend(backend)
        ok = store.login(username, points)
    except LockoutError:
        print(f"{username}: locked")
        return 3
    except ReproError as exc:
        print(f"{username}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    print(f"{username}: {'accepted' if ok else 'rejected'}")
    return 0 if ok else 1


def _cmd_store_dump(uri: str) -> int:
    from repro.errors import ReproError
    from repro.passwords.storage import backend_from_uri

    try:
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(backend.dump())
    finally:
        backend.close()
    return 0


def _cmd_attack(
    scheme_name: str,
    image: str,
    tolerance: int,
    workers: Optional[int],
    victims: Optional[int],
    mode: str = "queue",
    task_size: Optional[int] = None,
) -> int:
    from repro.attacks.parallel import ShardedAttackRunner
    from repro.errors import ReproError
    from repro.experiments.common import default_dataset, default_dictionary

    if victims is not None and victims < 1:
        print(f"error: --victims must be >= 1, got {victims}", file=sys.stderr)
        return 2
    try:
        scheme = _scheme_named(scheme_name, tolerance)
        passwords = default_dataset().passwords_on(image)
        if victims is not None:
            passwords = passwords[:victims]
        dictionary = default_dictionary(image)
        runner = ShardedAttackRunner(workers=workers, mode=mode, task_size=task_size)
        result = runner.run_known_identifiers(scheme, passwords, dictionary)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    used = min(runner.effective_workers, result.attacked)
    print(
        f"known-identifier attack on {image!r} under {result.scheme_name}: "
        f"{result.attacked} passwords, {result.dictionary_bits:.1f}-bit "
        f"dictionary, {used} worker(s)"
    )
    print(
        f"cracked {result.cracked}/{result.attacked} "
        f"({result.cracked_fraction:.1%}), mean matching entries "
        f"{result.mean_matching_entries:.1f}, modeled hashes "
        f"{result.hash_operations_modeled:,}"
    )
    return 0


def _cmd_store_attack(
    uri: str,
    budget: int,
    workers: Optional[int],
    pepper_hex: Optional[str] = None,
    mode: str = "queue",
    task_size: Optional[int] = None,
) -> int:
    from repro.attacks.parallel import ShardedAttackRunner
    from repro.errors import ReproError
    from repro.experiments.common import default_dictionary
    from repro.passwords.storage import backend_from_uri

    try:
        pepper = bytes.fromhex(pepper_hex) if pepper_hex else b""
    except ValueError:
        print(f"error: --pepper {pepper_hex!r} is not valid hex", file=sys.stderr)
        return 2
    try:
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        store = _store_for_backend(backend)
        payload = backend.dump()  # the theft: any backend, same artifact
        dictionary = default_dictionary(backend.get_meta("image"))
        runner = ShardedAttackRunner(workers=workers, mode=mode, task_size=task_size)
        result = runner.run_stolen_file(
            store.system.scheme, payload, dictionary, guess_budget=budget, pepper=pepper
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    print(
        f"stolen file from {uri}: {result.attacked} records, "
        f"budget {budget} guesses/record under {result.scheme_name}, "
        f"{min(runner.effective_workers, result.attacked)} worker(s)"
    )
    for outcome in result.outcomes:
        status = "CRACKED" if outcome.cracked else "survived"
        print(f"  {outcome.username:<12} {status:>9} ({outcome.guesses_hashed} hashes)")
    print(
        f"cracked {result.cracked}/{result.attacked} "
        f"({result.cracked_fraction:.0%}) with {result.hash_operations} hashes"
    )
    if result.cracked == 0 and store.defense.pepper and not pepper:
        print(
            "note: store records are peppered; without --pepper the grind "
            "fails closed"
        )
    return 0


def _cmd_serve(
    uri: str,
    host: str,
    port: int,
    max_batch: int,
    flush_interval: float,
    defense_spec: Optional[str] = None,
) -> int:
    import asyncio

    from repro.errors import ReproError
    from repro.passwords.storage import backend_from_uri
    from repro.serving import LoginServer

    try:
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        store = _store_for_backend(backend, defense_spec=defense_spec)
        server = LoginServer(
            store,
            host=host,
            port=port,
            max_batch=max_batch,
            flush_interval=flush_interval,
        )

        async def run() -> None:
            await server.start()
            bound_host, bound_port = server.address
            print(
                f"serving {backend.uri} on {bound_host}:{bound_port} "
                f"(JSONL ops: login/enroll/stats/metrics/trace/ping; "
                f"defense: {store.defense.describe()}; Ctrl-C to stop)",
                flush=True,
            )
            await server.serve_forever()

        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    return 0


def _cmd_cluster(
    uri: str,
    host: str,
    port: int,
    max_batch: int,
    flush_interval: float,
    max_pipeline: int,
    max_request_bytes: int,
) -> int:
    import asyncio

    from repro.errors import ReproError
    from repro.passwords.storage import backend_from_uri
    from repro.serving.cluster import ServingCluster

    try:
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        shard_uris = _cluster_shard_uris(backend)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        backend.close()
        return 2
    backend.close()
    cluster = ServingCluster(
        shard_uris=shard_uris,
        host=host,
        port=port,
        max_batch=max_batch,
        flush_interval=flush_interval,
        max_pipeline=max_pipeline,
        max_request_bytes=max_request_bytes,
    )

    async def run() -> None:
        await cluster.start()
        bound_host, bound_port = cluster.address
        print(
            f"cluster: {cluster.worker_count} shard worker(s) behind "
            f"router {bound_host}:{bound_port} (JSONL ops: "
            f"login/enroll/stats/metrics/trace/ping; Ctrl-C to stop)",
            flush=True,
        )
        try:
            while True:
                await asyncio.sleep(3600)
        finally:
            await cluster.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cluster_shard_uris(backend) -> "list[str]":
    """Validate that *backend* can back a worker-per-shard cluster.

    Returns the child shard URIs.  Raises :class:`~repro.errors.ClusterError`
    when the backend is not sharded, when any shard is process-private
    (``memory:``), or when the store was never deployed — each worker
    process re-opens its shard by URI, so all three are fatal before a
    single child is spawned.
    """
    from repro.errors import ClusterError
    from repro.passwords.storage import ShardedBackend

    if not isinstance(backend, ShardedBackend):
        raise ClusterError(
            f"cluster serving needs a shards: URI, got {backend.uri!r}"
        )
    shard_uris = [shard.uri for shard in backend.shards]
    private = [u for u in shard_uris if u.partition(":")[0] == "memory"]
    if private:
        raise ClusterError(
            "cluster workers re-open shards by URI, so every shard must be "
            f"durable; {len(private)} memory: shard(s) found"
        )
    if backend.get_meta("scheme") is None:
        raise ClusterError(
            f"{backend.uri} has no deployment metadata; "
            "run 'repro store create' first"
        )
    return shard_uris


def _cmd_metrics(host: str, port: int, as_prom: bool) -> int:
    import json
    import socket

    fmt = "prom" if as_prom else "snapshot"
    request = json.dumps(
        {"op": "metrics", "id": 1, "format": fmt}, separators=(",", ":")
    ).encode() + b"\n"
    try:
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(request)
            handle = sock.makefile("rb")
            line = handle.readline()
    except OSError as exc:
        print(f"error: cannot scrape {host}:{port}: {exc}", file=sys.stderr)
        return 2
    if not line:
        print(f"error: {host}:{port} closed the connection", file=sys.stderr)
        return 2
    try:
        response = json.loads(line)
    except json.JSONDecodeError as exc:
        print(f"error: malformed response: {exc}", file=sys.stderr)
        return 2
    if not response.get("ok"):
        print(
            f"error: server refused metrics: {response.get('message')}",
            file=sys.stderr,
        )
        return 2
    if as_prom:
        sys.stdout.write(response.get("prom", ""))
    else:
        print(json.dumps(response.get("metrics", {}), indent=2, sort_keys=True))
    return 0


def _cmd_flood(
    uri: str,
    users: int,
    attempts: int,
    clients: int,
    wrong_fraction: float,
    seed: int,
    scheme_name: str,
    trace: bool = False,
    pipeline_depth: int = 1,
    cluster: bool = False,
) -> int:
    import asyncio

    from repro.errors import ReproError
    from repro.experiments.common import default_dataset
    from repro.obs import MetricsRegistry, SpanTracer
    from repro.passwords.storage import backend_from_uri
    from repro.serving import LoginServer, flood_server, mixed_stream

    try:
        backend = backend_from_uri(uri)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # A fresh backend is deployed on the spot (the flood's point is
        # serving-layer load, not enrollment ceremony); an existing one is
        # resumed under its persisted deployment, exactly like store create.
        if backend.get_meta("scheme") is None:
            backend.put_meta("scheme", scheme_name)
            backend.put_meta("tolerance_px", "9")
            backend.put_meta("image", "cars")
        store = _store_for_backend(backend)
        samples = default_dataset().passwords_on(backend.get_meta("image"))[:users]
        accounts = {}
        for sample in samples:
            username = f"user{sample.password_id}"
            if username not in backend:
                store.create_account(username, list(sample.points))
            accounts[username] = list(sample.points)
        image = store.system.image
        stream = mixed_stream(
            accounts,
            attempts,
            wrong_fraction=wrong_fraction,
            seed=seed,
            bounds=(image.width, image.height),
        )

        if cluster:
            return _flood_cluster(
                backend, stream, attempts, clients, pipeline_depth,
                len(accounts), trace,
            )

        # --trace runs against a dedicated registry/tracer so the span
        # trees and serving series describe this flood alone, not
        # whatever else the process published before.
        tracer = SpanTracer(capacity=1024) if trace else None
        registry = MetricsRegistry() if trace else None

        async def run():
            server = await LoginServer(
                store, port=0, registry=registry, tracer=tracer
            ).start()
            bound_host, bound_port = server.address
            print(
                f"flooding {backend.uri} via {bound_host}:{bound_port} — "
                f"{attempts:,} attempts, {clients} clients, "
                f"{len(accounts)} accounts, pipeline depth {pipeline_depth}"
            )
            report = await flood_server(
                bound_host, bound_port, stream, clients,
                pipeline_depth=pipeline_depth,
            )
            stats = server.service.stats
            await server.aclose()
            return report, stats

        report, stats = asyncio.run(run())
        if tracer is not None:
            report.trace = tracer.recent()
        locked = sum(1 for username in accounts if store.is_locked(username))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    print(report.summary())
    print(
        f"batching: {stats.flushes} flushes, mean batch {stats.mean_batch:.1f}, "
        f"largest {stats.largest_batch}; {locked} account(s) locked out"
    )
    if trace:
        print(report.trace_summary())
    return 0


def _flood_cluster(
    backend,
    stream,
    attempts: int,
    clients: int,
    pipeline_depth: int,
    account_count: int,
    trace: bool,
) -> int:
    """Flood a self-hosted :class:`ServingCluster` built over *backend*.

    The caller has already enrolled accounts through the parent process;
    this helper closes the parent's backend handle (each worker re-opens
    its shard by URI), spawns the cluster, drives the prepared attempt
    *stream* through the router, and prints the flood report plus the
    cross-worker merged batching stats.
    """
    import asyncio
    import json

    from repro.serving import flood_server
    from repro.serving.cluster import ServingCluster

    shard_uris = _cluster_shard_uris(backend)
    backend.close()
    if trace:
        print(
            "note: --trace is per-process; the cluster flood reports "
            "merged stats instead of span trees",
            file=sys.stderr,
        )

    async def run():
        serving = ServingCluster(shard_uris=shard_uris)
        try:
            await serving.start()
            host, port = serving.address
            print(
                f"flooding {len(shard_uris)} shard(s) via cluster router "
                f"{host}:{port} — {attempts:,} attempts, {clients} clients, "
                f"{account_count} accounts, pipeline depth {pipeline_depth}"
            )
            report = await flood_server(
                host, port, stream, clients, pipeline_depth=pipeline_depth
            )
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op":"stats","id":0}\n')
                await writer.drain()
                merged = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await serving.aclose()
        return report, merged

    report, merged = asyncio.run(run())
    print(report.summary())
    print(
        f"cluster batching: {merged['workers']} workers, "
        f"{merged['flushes']} flushes, mean batch {merged['mean_batch']}, "
        f"largest {merged['largest_batch']}; "
        f"{merged['throttled']} attempt(s) throttled"
    )
    return 0


def _cmd_defense_matrix(
    scheme_name: Optional[str],
    tolerance: int,
    online_budget: int,
    offline_budget: int,
    captcha_solve_seconds: Optional[float],
    as_json: bool,
    out_path: Optional[str],
) -> int:
    import json

    from repro.attacks.economics import defense_matrix_sweep, render_defense_matrix
    from repro.errors import ReproError

    try:
        scheme = (
            _scheme_named(scheme_name, tolerance) if scheme_name is not None else None
        )
        report = defense_matrix_sweep(
            scheme=scheme,
            online_guess_budget=online_budget,
            offline_guess_budget=offline_budget,
            captcha_solve_seconds=captcha_solve_seconds,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(render_defense_matrix(report))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {out_path}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiments)
    if args.command == "study":
        return _cmd_study(args.out, args.seed)
    if args.command == "report":
        return _cmd_report(args.out, args.experiments)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "attack":
        return _cmd_attack(
            args.scheme,
            args.image,
            args.tolerance,
            args.workers,
            args.victims,
            args.mode,
            args.task_size,
        )
    if args.command == "store":
        if args.store_command == "create":
            return _cmd_store_create(
                args.uri,
                args.scheme,
                args.tolerance,
                args.image,
                args.users,
                args.defense,
            )
        if args.store_command == "login":
            return _cmd_store_login(args.uri, args.user, args.points)
        if args.store_command == "dump":
            return _cmd_store_dump(args.uri)
        if args.store_command == "attack":
            return _cmd_store_attack(
                args.uri,
                args.budget,
                args.workers,
                args.pepper,
                args.mode,
                args.task_size,
            )
    if args.command == "serve":
        return _cmd_serve(
            args.uri,
            args.host,
            args.port,
            args.max_batch,
            args.flush_interval,
            args.defense,
        )
    if args.command == "defense-matrix":
        return _cmd_defense_matrix(
            args.scheme,
            args.tolerance,
            args.online_budget,
            args.offline_budget,
            args.captcha_solve_seconds,
            args.json,
            args.out,
        )
    if args.command == "cluster":
        return _cmd_cluster(
            args.uri,
            args.host,
            args.port,
            args.max_batch,
            args.flush_interval,
            args.max_pipeline,
            args.max_request_bytes,
        )
    if args.command == "flood":
        return _cmd_flood(
            args.uri,
            args.users,
            args.attempts,
            args.connections if args.connections is not None else args.clients,
            args.wrong_fraction,
            args.seed,
            args.scheme,
            args.trace,
            args.pipeline_depth,
            args.cluster,
        )
    if args.command == "metrics":
        return _cmd_metrics(args.host, args.port, args.prom)
    parser.error(f"unhandled command {args.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
