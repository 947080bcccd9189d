"""Program hosts: the processes the benchmark starts around the program.

Usage (from the checkout root, with ``src`` and this directory on
``PYTHONPATH``; ``run.py`` does this)::

    serve.py storm   --db PATH --seed N --accounts N [--trace] [--fault F]
    serve.py cluster --shards URI,URI
    serve.py worker  --uri URI [--trace]
    serve.py router  --workers HOST:PORT,HOST:PORT
    serve.py grind   --seed N --accounts N [--trace]

Every mode prints one JSON line ``{"ready": true, ...}`` on stdout once it
can serve, then reads commands from stdin, one per line, answering each
with one JSON line:

``mark``
    Forget the spans recorded so far (the traced phase starts now).
``grind SECONDS``
    (grind only) grind waves of the stolen file for SECONDS.
``slice``
    (grind only) the traced serial slice.
``stop``
    Shut down cleanly and answer ``{"stopped": true, ...}``; EOF on stdin
    means the same.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading
import time


def emit(message: dict) -> None:
    """Write one protocol line to stdout."""
    sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _stdin_commands(loop: asyncio.AbstractEventLoop, queue: asyncio.Queue) -> None:
    """Thread body: forward stdin lines to the event loop (EOF = stop)."""
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line.strip())
    loop.call_soon_threadsafe(queue.put_nowait, "stop")


async def _command_loop(on_mark=None) -> None:
    """Answer ``mark`` until ``stop`` (or SIGTERM) arrives."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    loop.add_signal_handler(signal.SIGTERM, queue.put_nowait, "stop")
    threading.Thread(target=_stdin_commands, args=(loop, queue), daemon=True).start()
    while True:
        command = await queue.get()
        if command == "stop":
            return
        if command == "mark":
            if on_mark is not None:
                on_mark()
            emit({"marked": True})
        elif command:
            emit({"error": f"unknown command {command!r}"})


def _deployment() -> dict:
    """What every ready line reports: telemetry and the commit mode."""
    from repro.obs import get_registry
    from repro.passwords.storage import commit_mode

    return {"telemetry": get_registry().enabled, "commit_mode": commit_mode()}


def _tracer(opts):
    """A :class:`tracing.Tracer` wrapping the layers, or ``None`` untraced."""
    import tracing

    return tracing.Tracer().install() if opts.trace else None


def _stopped(tracer, spans_path: str) -> dict:
    message = {"stopped": True}
    if tracer is not None:
        message["layers"] = tracer.summary()
        tracer.dump(spans_path)
    return message


# -- faults (self-test only) ---------------------------------------------------


def _install_fault(fault: str) -> None:
    """Break the program on purpose so the self-test can see the checks fire.

    ``decision``: the first rejected attempt is answered ``accept``.
    ``throttle``: the last durable throttle write of one account is lost
    (its row always lags one write behind the in-memory state).
    """
    from repro.passwords.service import LoginOutcome, VerificationService
    from repro.passwords.store import PasswordStore

    if fault == "decision":
        original = VerificationService.flush
        state = {"done": False}

        def flush(self):
            outcomes = original(self)
            if not state["done"]:
                for index, outcome in enumerate(outcomes):
                    if outcome.status == "reject":
                        outcomes[index] = LoginOutcome(outcome.username, "accept")
                        state["done"] = True
                        break
            return outcomes

        VerificationService.flush = flush
    elif fault == "throttle":
        original = PasswordStore.persist_throttles
        state = {"victim": None, "held": None}

        def persist_throttles(self, usernames):
            usernames = list(usernames)
            if state["victim"] is None and usernames:
                state["victim"] = usernames[0]
            victim = state["victim"]
            if victim in usernames:
                usernames.remove(victim)
                held, state["held"] = state["held"], dict(self.throttle_for(victim).state())
                if held is not None:
                    self.backend.put_throttle(victim, held)
            original(self, usernames)

        PasswordStore.persist_throttles = persist_throttles
    elif fault != "none":
        raise SystemExit(f"unknown fault {fault!r}")


# -- serving hosts ----------------------------------------------------------------


async def storm(opts) -> None:
    """One ``LoginServer`` over a sqlite store it bulk-enrolls itself."""
    import streams
    from repro.core.centered import CenteredDiscretization
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.policy import LockoutPolicy
    from repro.passwords.storage import SQLiteBackend
    from repro.passwords.store import PasswordStore
    from repro.serving import LoginServer
    from repro.study.image import cars_image

    tracer = _tracer(opts)
    _install_fault(opts.fault)
    population = streams.Population(opts.seed, opts.accounts)
    backend = SQLiteBackend(opts.db)
    store = PasswordStore(
        system=PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, streams.TOLERANCE_PX),
        ),
        policy=LockoutPolicy(max_failures=None),
        backend=backend,
    )
    started = time.perf_counter()
    store.enroll_many(population.accounts())
    enroll_s = time.perf_counter() - started
    server = LoginServer(store)
    await server.start()
    emit(
        {
            "ready": True,
            "port": server.address[1],
            "enroll_s": enroll_s,
            "journal_mode": backend.journal_mode,
            "group_commit": store.batched_writes,
            **_deployment(),
        }
    )
    await _command_loop(tracer.reset if tracer else None)
    await server.aclose()
    backend.close()
    emit(_stopped(tracer, opts.spans))


async def cluster(opts) -> None:
    """``ServingCluster(shard_uris=...)`` exactly as the program ships it."""
    from repro.serving import ServingCluster

    serving = ServingCluster(shard_uris=opts.shards.split(","))
    await serving.start()
    emit({"ready": True, "port": serving.address[1], **_deployment()})
    await _command_loop()
    await serving.aclose()
    emit({"stopped": True})


async def worker(opts) -> None:
    """A shard worker built from public pieces, so it can be traced."""
    from repro.passwords.storage import backend_from_uri
    from repro.passwords.store import deployed_store
    from repro.serving import LoginServer

    tracer = _tracer(opts)
    backend = backend_from_uri(opts.uri)
    server = LoginServer(deployed_store(backend))
    await server.start()
    emit({"ready": True, "port": server.address[1], "journal_mode": backend.journal_mode,
          **_deployment()})
    await _command_loop(tracer.reset if tracer else None)
    await server.aclose()
    backend.close()
    emit(_stopped(tracer, opts.spans))


async def router(opts) -> None:
    """``ClusterRouter.start(addresses)`` over already-running workers."""
    from repro.serving import ClusterRouter

    addresses = []
    for item in opts.workers.split(","):
        host, _, port = item.rpartition(":")
        addresses.append((host, int(port)))
    front = ClusterRouter()
    await front.start(addresses)
    emit({"ready": True, "port": front.address[1], **_deployment()})
    await _command_loop()
    await front.aclose()
    emit({"stopped": True})


# -- grind host ---------------------------------------------------------------------


def grind(opts) -> None:
    """Build the stolen file, start the attack pool, grind on command."""
    import grindfile

    started = time.perf_counter()
    attack = grindfile.Attack(opts.seed, opts.accounts)
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    attack.warm_up()
    pool_start_s = time.perf_counter() - started
    emit({"ready": True, "build_s": build_s, "pool_start_s": pool_start_s, **_deployment()})
    try:
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            if words[0] == "stop":
                break
            if words[0] == "grind":
                emit(attack.grind(float(words[1]), opts.results))
            elif words[0] == "slice":
                emit(attack.traced_slice())
            else:
                emit({"error": f"unknown command {words[0]!r}"})
    finally:
        attack.close()
    emit({"stopped": True})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["storm", "cluster", "worker", "router", "grind"])
    parser.add_argument("--db")
    parser.add_argument("--uri")
    parser.add_argument("--shards")
    parser.add_argument("--workers")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--accounts", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    parser.add_argument("--results", default="")
    parser.add_argument("--fault", default="none")
    opts = parser.parse_args()
    # Spawned cluster workers re-import this file as __mp_main__; only the
    # real entry point reaches here.
    if opts.mode == "grind":
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
        grind(opts)
        return
    handler = {"storm": storm, "cluster": cluster, "worker": worker, "router": router}
    try:
        asyncio.run(handler[opts.mode](opts))
    except Exception as exc:  # report start-up failures on the protocol
        emit({"error": f"{type(exc).__name__}: {exc}"})
        raise


if __name__ == "__main__":
    main()
