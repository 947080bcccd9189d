"""Async authentication front-end over the sharded password store.

The serving layer is the deployment shape of the paper's §5.1 server: a
flood of independent online login attempts, amortized into vectorized
verification batches while per-account throttling stays bit-for-bit
scalar-equivalent.

* :class:`~repro.serving.service.AsyncVerificationService` — concurrent
  login coroutines park on futures; a size-or-deadline trigger flushes the
  shared :class:`~repro.passwords.service.VerificationService` batch;
* :class:`~repro.serving.server.LoginServer` — asyncio TCP server speaking
  a JSON-lines protocol (``repro serve``) on the shared connection core
  :class:`~repro.serving.server.JsonLinesServer` (request-size limits,
  bounded pipelining, slow-client backpressure, one reply per frame);
* :mod:`~repro.serving.cluster` — shard-per-process cluster: one worker
  process per shard behind a ring-routing :class:`ClusterRouter`, with
  online resharding (``repro cluster``, ``make cluster-bench``);
* :mod:`~repro.serving.flood` — load generation with throughput and
  p50/p95 latency reporting (``repro flood``,
  ``benchmarks/test_bench_serving.py``).

See the "Serving layer" section of ``docs/architecture.md`` for the
queue → flush trigger → kernel batch → futures pipeline and the
router → ring → worker-process diagram.
"""

from repro.serving.cluster import (
    ClusterRouter,
    ReshardReport,
    ServingCluster,
    WorkerSpec,
    cluster_username,
    default_cluster_workers,
    merge_stats,
    synthetic_points,
)
from repro.serving.flood import (
    FloodReport,
    flood_server,
    flood_service,
    mixed_stream,
)
from repro.serving.server import LineReader, LoginServer, OVERSIZE, parse_points
from repro.serving.service import AsyncVerificationService, ServiceStats

__all__ = [
    "AsyncVerificationService",
    "ClusterRouter",
    "FloodReport",
    "LineReader",
    "LoginServer",
    "OVERSIZE",
    "ReshardReport",
    "ServiceStats",
    "ServingCluster",
    "WorkerSpec",
    "cluster_username",
    "default_cluster_workers",
    "flood_server",
    "flood_service",
    "merge_stats",
    "mixed_stream",
    "parse_points",
    "synthetic_points",
]
