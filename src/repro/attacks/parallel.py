"""Work-stealing parallel attack engine (ROADMAP: accelerator scale-out).

The offline attacks of §5.1 are embarrassingly parallel: every target
password (known-identifier attack) and every stolen record (password-file
grind) is decided independently of the others.  This module spreads those
workloads across ``concurrent.futures.ProcessPoolExecutor`` workers in one
of two modes and merges per-task results deterministically, so scaling out
never changes a single bit of the answer:

* ``mode="queue"`` (the default) splits the work into many small tasks —
  contiguous runs of :data:`task_size <ShardedAttackRunner.task_size>`
  targets, auto-sized from the workload and worker count — and pushes them
  through the executor's shared queue.  Idle workers pull the next task,
  so one expensive straggler (an uncracked account grinding the full
  budget while its neighbors early-stop at rank 3) no longer bounds the
  whole run the way a static contiguous shard does.  When there are too
  few accounts to go around, the grind additionally splits the *guess
  budget* into rank windows processed wave by wave — cracked accounts
  drop out of later waves, so early stopping skips whole tasks.
* ``mode="static"`` preserves the original shard-per-worker model
  (:func:`partition_evenly`): one contiguous task per worker, no guess
  windows.  It remains useful when per-target cost really is uniform and
  task-dispatch overhead is the dominant term.

Both modes reassemble results **by task index** — tasks are contiguous
runs of the serial iteration order, and a stolen account's outcome is
fully determined by the first matching global guess rank — so any worker
count and any task size is bit-identical to the serial attack
(property-tested in ``tests/test_attacks_parallel.py``).

Workers never receive live kernels, schemes or numpy arrays.  The run's
configuration travels **once per pool**, not per task: a pickled
:class:`SchemeSpec`/:class:`DictionarySpec` payload is installed by the
pool initializer, and each worker lazily builds (and caches, keyed by the
payload's hash) its scheme, batch kernel, dictionary and precomputed
guess-batch arrays.  Task submissions then carry only the target records
and a ``(task_index, rank window)`` — a few hundred bytes — which is what
makes small tasks affordable.

Worker failures are surfaced eagerly: any exception raised in a worker
(or a broken pool) is re-raised in the caller as
:class:`~repro.errors.AttackError` instead of hanging the merge.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.attacks.dictionary import HumanSeededDictionary
from repro.attacks.offline import (
    GUESS_CHUNK,
    GuessBatch,
    OfflineAttackResult,
    StolenAccountOutcome,
    StolenFileAttackResult,
    _grind_account,
    _validate_known_identifier_targets,
    _validate_stolen_records,
    offline_attack_known_identifiers,
    offline_attack_stolen_file,
    parse_password_file,
    prepare_guess_batch,
)
from repro.core.scheme import DiscretizationScheme
from repro.crypto.encoding import scalar_from_json, scalar_to_json
from repro.errors import AttackError
from repro.geometry.point import Point
from repro.obs import MetricsRegistry, get_registry
from repro.passwords.system import StoredPassword
from repro.study.dataset import PasswordSample

__all__ = [
    "AttackRunStats",
    "DictionarySpec",
    "SchemeSpec",
    "ShardedAttackRunner",
    "auto_task_size",
    "default_workers",
    "merge_offline_results",
    "merge_stolen_results",
    "partition_evenly",
]

_Item = TypeVar("_Item")


def default_workers() -> int:
    """CPU-aware default worker count.

    The schedulable CPU count (``os.sched_getaffinity``) where the
    platform provides it — a container pinned to 2 of 64 cores should
    default to 2 workers — and ``os.cpu_count()`` elsewhere (macOS and
    Windows have no affinity call, so the attribute is looked up rather
    than assumed); never less than 1.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # affinity exists but is unreadable for this process
            pass
    return max(1, os.cpu_count() or 1)


def partition_evenly(items: Sequence[_Item], shards: int) -> List[List[_Item]]:
    """Split *items* into *shards* contiguous, near-even, non-empty runs.

    The first ``len(items) % shards`` shards get one extra item.  Order is
    preserved, so concatenating the shards reproduces *items* exactly —
    the property the deterministic merge relies on.  *shards* must not
    exceed ``len(items)``.
    """
    if shards < 1:
        raise AttackError(f"shards must be >= 1, got {shards}")
    if shards > len(items):
        raise AttackError(
            f"cannot split {len(items)} item(s) into {shards} non-empty shards"
        )
    base, extra = divmod(len(items), shards)
    result: List[List[_Item]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        result.append(list(items[start : start + size]))
        start += size
    return result


def auto_task_size(items: int, workers: int) -> int:
    """Task size giving each worker ~8 tasks to steal from the queue.

    Eight tasks per worker is enough granularity that an unlucky worker
    stuck with the most expensive targets sheds the rest of its backlog
    to idle peers, while per-task dispatch overhead (one pickle of the
    target records, one future) stays amortized.  Clamped to
    ``[1, 8192]`` so degenerate workloads neither explode the task count
    nor collapse to one task.
    """
    if items < 1 or workers < 1:
        raise AttackError(
            f"need positive items and workers, got {items}, {workers}"
        )
    return max(1, min(math.ceil(items / (8 * workers)), 8192))


def _plan_guess_windows(
    guess_budget: int, account_tasks: int, workers: int
) -> List[Tuple[int, int]]:
    """Split the guess budget into rank windows when accounts are scarce.

    With plenty of account tasks (>= 4 per worker) the queue already
    balances itself and the grind runs each account's full budget in one
    task.  With few accounts — the 5-account file ground over a 2¹⁶
    budget — per-account cost dominates, so the budget is cut into
    :data:`~repro.attacks.offline.GUESS_CHUNK`-aligned rank windows
    processed as sequential waves: every (account task × window) is a
    queue task, and accounts cracked in wave *w* never enqueue wave
    *w + 1* — early stop skips whole tasks, exactly like the serial
    chunk-level early stop but across processes.
    """
    if account_tasks >= 4 * workers or guess_budget <= GUESS_CHUNK:
        return [(0, guess_budget)]
    wanted = max(1, math.ceil((4 * workers) / max(1, account_tasks)))
    size = max(GUESS_CHUNK, math.ceil(guess_budget / wanted))
    size = ((size + GUESS_CHUNK - 1) // GUESS_CHUNK) * GUESS_CHUNK
    return [
        (start, min(start + size, guess_budget))
        for start in range(0, guess_budget, size)
    ]


@dataclass(frozen=True)
class SchemeSpec:
    """Picklable recipe for rebuilding a scheme inside a worker process.

    Holds only primitive values (scheme kind, dimension, JSON-encoded
    rational parameters) — never kernels, grids or numpy state — so the
    pickled payload is a few hundred bytes and works under any
    multiprocessing start method.

    Attributes
    ----------
    kind:
        ``"centered"``, ``"robust"`` or ``"static"``.
    dim:
        Scheme dimensionality.
    r:
        JSON-encoded exact tolerance (centered/robust); ``None`` for static.
    cell_size, offset:
        JSON-encoded static-grid geometry; ``None`` otherwise.
    selection:
        Robust grid-selection policy value; ``None`` otherwise.
    """

    kind: str
    dim: int
    r: Optional[object] = None
    cell_size: Optional[object] = None
    offset: Optional[object] = None
    selection: Optional[str] = None

    @classmethod
    def from_scheme(
        cls, scheme: DiscretizationScheme, for_enrollment: bool = True
    ) -> "SchemeSpec":
        """Describe *scheme* as primitives, or raise :class:`AttackError`.

        With *for_enrollment* (the default), ``RANDOM_SAFE`` Robust
        schemes are rejected: their rng is live process-local state, so
        sharded enrollment could neither transport nor deterministically
        replay it.  Locate-only workloads (the stolen-file grind never
        enrolls) pass ``for_enrollment=False``, which normalizes
        ``RANDOM_SAFE`` to ``MOST_CENTERED`` — ``locate`` is
        selection-independent, so the rebuilt scheme behaves identically.
        """
        from repro.core.centered import CenteredDiscretization
        from repro.core.robust import GridSelection, RobustDiscretization
        from repro.core.static import StaticGridScheme

        if isinstance(scheme, CenteredDiscretization):
            return cls(kind="centered", dim=scheme.dim, r=scalar_to_json(scheme.r))
        if isinstance(scheme, RobustDiscretization):
            selection = scheme.selection
            if selection is GridSelection.RANDOM_SAFE:
                if for_enrollment:
                    raise AttackError(
                        "cannot shard a RANDOM_SAFE robust scheme: its rng is "
                        "process-local state and cannot be replayed "
                        "deterministically across workers"
                    )
                selection = GridSelection.MOST_CENTERED
            return cls(
                kind="robust",
                dim=scheme.dim,
                r=scalar_to_json(scheme.r),
                selection=selection.value,
            )
        if isinstance(scheme, StaticGridScheme):
            return cls(
                kind="static",
                dim=scheme.dim,
                cell_size=scalar_to_json(scheme.cell_size),
                offset=scalar_to_json(scheme.grid.offsets[0]),
            )
        raise AttackError(
            f"cannot build a worker spec for scheme type {type(scheme).__name__}"
        )

    def build(self) -> DiscretizationScheme:
        """Rebuild the scheme (workers call this once per run payload)."""
        from repro.core.centered import CenteredDiscretization
        from repro.core.robust import GridSelection, RobustDiscretization
        from repro.core.static import StaticGridScheme

        if self.kind == "centered":
            return CenteredDiscretization(self.dim, scalar_from_json(self.r))
        if self.kind == "robust":
            return RobustDiscretization(
                self.dim,
                scalar_from_json(self.r),
                selection=GridSelection(self.selection),
            )
        if self.kind == "static":
            return StaticGridScheme(
                self.dim,
                scalar_from_json(self.cell_size),
                offset=scalar_from_json(self.offset),
            )
        raise AttackError(f"unknown scheme spec kind {self.kind!r}")


@dataclass(frozen=True)
class DictionarySpec:
    """Picklable recipe for rebuilding the attack dictionary in a worker.

    Carries the seed pool as JSON-encoded coordinate tuples (exact through
    :func:`~repro.crypto.encoding.scalar_to_json`), not as
    :class:`~repro.geometry.point.Point` objects or the dictionary's cached
    numpy seed array — workers rebuild those themselves.
    """

    seed_points: Tuple[Tuple[object, ...], ...]
    tuple_length: int
    image_name: str

    @classmethod
    def from_dictionary(cls, dictionary: HumanSeededDictionary) -> "DictionarySpec":
        """Describe *dictionary* as primitives."""
        return cls(
            seed_points=tuple(
                tuple(scalar_to_json(coord) for coord in point)
                for point in dictionary.seed_points
            ),
            tuple_length=dictionary.tuple_length,
            image_name=dictionary.image_name,
        )

    def build(self) -> HumanSeededDictionary:
        """Rebuild the dictionary (workers call this once per run payload)."""
        return HumanSeededDictionary(
            seed_points=tuple(
                Point.of(*(scalar_from_json(coord) for coord in coords))
                for coords in self.seed_points
            ),
            tuple_length=self.tuple_length,
            image_name=self.image_name,
        )


@dataclass(frozen=True)
class _RunPayload:
    """Everything a worker must build exactly once for one run config.

    Pickled and shipped through the pool initializer (not per task);
    hashed to key both the parent's pool reuse and the worker's runtime
    cache.  ``guess_budget`` is ``None`` for known-identifier runs, which
    skips the guess-batch precompute.  The defense pepper deliberately
    travels per *task*, not here: it is a few bytes, and keeping it out
    of the payload lets the defense-matrix sweep reuse one pool (and one
    worker-side guess batch) across all 17 cells.
    """

    scheme_spec: SchemeSpec
    dictionary_spec: DictionarySpec
    guess_budget: Optional[int] = None
    count_entries: bool = True


class _WorkerRuntime:
    """Per-worker cache of live objects rebuilt from a :class:`_RunPayload`.

    Built lazily on the first task a worker pulls and reused for every
    later task with the same payload key: the scheme, its numpy batch
    kernel, the dictionary (whose prioritized-entry heap and seed array
    memoize internally) and — for stolen-file grinds — the
    :class:`~repro.attacks.offline.GuessBatch` arrays shared zero-copy
    across all of the worker's tasks.
    """

    def __init__(self, payload: _RunPayload) -> None:
        self.payload = payload
        self.scheme = payload.scheme_spec.build()
        self.dictionary = payload.dictionary_spec.build()
        self.kernel = self.scheme.batch()
        self.guesses: Optional[GuessBatch] = (
            prepare_guess_batch(
                self.dictionary, payload.guess_budget, self.scheme.dim
            )
            if payload.guess_budget is not None
            else None
        )


#: Worker-process store of pickled run payloads, installed by the pool
#: initializer before any task runs (keyed by the payload's sha256).
_RUN_PAYLOADS: Dict[str, bytes] = {}

#: Worker-process cache of built runtimes, same keys as ``_RUN_PAYLOADS``.
_BUILT_RUNTIMES: Dict[str, _WorkerRuntime] = {}


def _install_run_payload(key: str, blob: bytes) -> None:
    """Pool initializer: stage the run payload in this worker process."""
    _RUN_PAYLOADS[key] = blob


def _runtime(key: str) -> _WorkerRuntime:
    """The worker's cached runtime for *key*, building it on first use."""
    runtime = _BUILT_RUNTIMES.get(key)
    if runtime is None:
        blob = _RUN_PAYLOADS.get(key)
        if blob is None:
            raise AttackError(
                "worker has no staged payload for this run "
                "(pool initializer did not run?)"
            )
        runtime = _WorkerRuntime(pickle.loads(blob))
        _BUILT_RUNTIMES[key] = runtime
    return runtime


def _known_identifiers_task(
    key: str, task_index: int, password_payloads: Tuple[dict, ...]
) -> Tuple[int, OfflineAttackResult, int, float]:
    """Worker: known-identifier attack on one contiguous run of targets.

    Returns ``(task_index, result, pid, busy_seconds)`` — the index drives
    the parent's deterministic merge, the pid/seconds feed the straggler
    telemetry.
    """
    started = time.perf_counter()
    runtime = _runtime(key)
    passwords = [PasswordSample.from_json(payload) for payload in password_payloads]
    result = offline_attack_known_identifiers(
        runtime.scheme,
        passwords,
        runtime.dictionary,
        count_entries=runtime.payload.count_entries,
    )
    return task_index, result, os.getpid(), time.perf_counter() - started


def _stolen_file_task(
    key: str,
    task_index: int,
    record_payloads: Tuple[Tuple[str, dict], ...],
    start_rank: int,
    stop_rank: int,
    pepper: bytes,
) -> Tuple[int, Tuple[Tuple[str, Optional[int], int], ...], int, float]:
    """Worker: grind a run of stolen records over one guess-rank window.

    Returns ``(task_index, rows, pid, busy_seconds)`` where each row is
    ``(username, first_matching_global_rank_or_None, guesses_hashed)``
    for ranks in ``[start_rank, stop_rank)`` — exactly the quantities the
    parent needs to reassemble the serial outcome bit for bit.
    """
    started = time.perf_counter()
    runtime = _runtime(key)
    rows = []
    for username, payload in record_payloads:
        stored = StoredPassword.from_json(payload)
        rank, hashed = _grind_account(
            runtime.kernel, stored, runtime.guesses, start_rank, stop_rank, pepper
        )
        rows.append((username, rank, hashed))
    return task_index, tuple(rows), os.getpid(), time.perf_counter() - started


@dataclass(frozen=True)
class AttackRunStats:
    """Telemetry for one parallel attack run (results stay untouched).

    Exposed via :attr:`ShardedAttackRunner.last_stats` so benchmarks can
    report scheduling quality without perturbing the deterministic attack
    results themselves.

    Attributes
    ----------
    mode:
        ``"serial"``, ``"static"`` or ``"queue"`` — what actually ran
        (small workloads collapse to serial regardless of configuration).
    workers:
        Worker processes used (1 for serial).
    tasks:
        Queue tasks dispatched (1 for serial).
    task_size:
        Targets per task (the largest shard, for static mode).
    waves:
        Guess-window waves executed (1 unless the stolen-file grind
        split its budget into rank windows).
    worker_busy:
        Seconds each worker pid spent inside task bodies.
    """

    mode: str
    workers: int
    tasks: int
    task_size: int
    waves: int
    worker_busy: Mapping[int, float] = field(default_factory=dict)

    @property
    def straggler_ratio(self) -> float:
        """Max/mean worker busy time: 1.0 is perfect balance.

        A static shard run whose one unlucky worker ground full-budget
        accounts while the rest early-stopped shows up here as a ratio
        near the worker count; the queue mode's whole purpose is to push
        this back toward 1.
        """
        busy = list(self.worker_busy.values())
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        if mean <= 0.0:
            return 1.0
        return max(busy) / mean


def merge_offline_results(
    shards: Sequence[OfflineAttackResult],
) -> OfflineAttackResult:
    """Merge per-task known-identifier results deterministically.

    Outcomes are concatenated in task-index order — tasks are contiguous
    runs of the target list, so this reproduces the serial dataset order —
    and the modeled hash counters are summed.
    """
    if not shards:
        raise AttackError("no shard results to merge")
    first = shards[0]
    return OfflineAttackResult(
        scheme_name=first.scheme_name,
        image_name=first.image_name,
        outcomes=tuple(
            outcome for shard in shards for outcome in shard.outcomes
        ),
        dictionary_bits=first.dictionary_bits,
        hash_operations_modeled=sum(s.hash_operations_modeled for s in shards),
    )


def merge_stolen_results(
    shards: Sequence[StolenFileAttackResult],
) -> StolenFileAttackResult:
    """Merge per-task stolen-file results deterministically.

    Tasks are contiguous runs of the sorted username list, so task-order
    concatenation reproduces the serial (sorted) account order;
    ``hash_operations`` is a derived sum and needs no merging.
    """
    if not shards:
        raise AttackError("no shard results to merge")
    first = shards[0]
    return StolenFileAttackResult(
        scheme_name=first.scheme_name,
        guess_budget=first.guess_budget,
        outcomes=tuple(
            outcome for shard in shards for outcome in shard.outcomes
        ),
    )


@dataclass(frozen=True)
class ShardedAttackRunner:
    """Offline attacks spread across worker processes.

    Parameters
    ----------
    workers:
        Worker process count; ``None`` (the default) resolves to
        :func:`default_workers`.  With an effective count of 1 — or a
        workload smaller than the worker count collapsing to 1 task —
        the serial attack function is called directly in-process, making
        ``workers=1`` bit-identical to the serial path by construction.
    mode:
        ``"queue"`` (default): many small tasks through the executor's
        shared queue, pulled by idle workers — robust to skewed
        per-target cost (early-stopped accounts).  ``"static"``: one
        contiguous shard per worker, the pre-queue behavior — marginally
        less dispatch overhead when per-target cost is uniform.
    task_size:
        Targets per queue task; ``None`` auto-sizes via
        :func:`auto_task_size` (~8 tasks per worker).  Ignored in static
        mode.
    registry:
        Telemetry sink: every ``run_*`` call folds its
        :class:`AttackRunStats` into ``attack_*`` metrics there (run
        counters by mode, task/wave totals, worker-busy histogram,
        straggler-ratio gauge).  ``None`` uses the process default
        registry; a disabled registry skips publication entirely.

    Every mode/size/worker combination produces bit-identical results;
    only wall-clock and the :attr:`last_stats` telemetry differ.

    The worker pool is created on the first parallel call and reused by
    later calls **with the same run payload** (scheme, dictionary, guess
    budget — the defense-matrix sweep's 17 cells share one pool); a
    payload change rebuilds the pool so the initializer can stage the new
    payload.  Use the runner as a context manager, or call :meth:`close`,
    to tear it down deterministically.

    >>> runner = ShardedAttackRunner(workers=1)
    >>> runner.effective_workers
    1
    """

    workers: Optional[int] = None
    mode: str = "queue"
    task_size: Optional[int] = None
    registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise AttackError(f"workers must be >= 1, got {self.workers}")
        if self.mode not in ("static", "queue"):
            raise AttackError(
                f"mode must be 'static' or 'queue', got {self.mode!r}"
            )
        if self.task_size is not None and self.task_size < 1:
            raise AttackError(f"task_size must be >= 1, got {self.task_size}")

    @property
    def effective_workers(self) -> int:
        """The resolved worker count (CPU-aware when ``workers`` is None)."""
        return self.workers if self.workers is not None else default_workers()

    @property
    def last_stats(self) -> Optional[AttackRunStats]:
        """Scheduling telemetry from the most recent ``run_*`` call.

        ``None`` before the first call.  Purely observational — the
        attack results themselves are identical across modes.
        """
        return self.__dict__.get("_last_stats")

    def _publish_stats(self, stats: AttackRunStats) -> None:
        """Stash *stats* as :attr:`last_stats` and fold it into metrics.

        Publishes to the runner's registry (or the process default) under
        the ``attack_*`` vocabulary: ``attack_runs_total{mode=...}``,
        ``attack_tasks_total`` / ``attack_waves_total`` counters, the
        ``attack_worker_busy_seconds`` histogram (one observation per
        worker pid) and ``attack_workers`` / ``attack_task_size`` /
        ``attack_straggler_ratio`` gauges describing the latest run.  A
        disabled registry makes this a stash-only no-op.
        """
        self.__dict__["_last_stats"] = stats
        registry = self.registry if self.registry is not None else get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "attack_runs_total",
            help="parallel attack runs by executed mode",
            mode=stats.mode,
        ).inc()
        registry.counter(
            "attack_tasks_total", help="attack tasks dispatched"
        ).inc(stats.tasks)
        registry.counter(
            "attack_waves_total", help="guess-window waves executed"
        ).inc(stats.waves)
        registry.gauge(
            "attack_workers", help="workers used by the latest attack run"
        ).set(stats.workers)
        registry.gauge(
            "attack_task_size", help="targets per task in the latest run"
        ).set(stats.task_size)
        registry.gauge(
            "attack_straggler_ratio",
            help="max/mean worker busy seconds of the latest run",
        ).set(stats.straggler_ratio)
        busy = registry.histogram(
            "attack_worker_busy_seconds",
            help="seconds each worker spent inside task bodies",
        )
        for seconds in stats.worker_busy.values():
            busy.observe(seconds)

    # -- attacks -----------------------------------------------------------

    def run_known_identifiers(
        self,
        scheme: DiscretizationScheme,
        passwords: Sequence[PasswordSample],
        dictionary: HumanSeededDictionary,
        count_entries: bool = True,
    ) -> OfflineAttackResult:
        """Parallel :func:`~repro.attacks.offline.offline_attack_known_identifiers`.

        Identical inputs produce identical results at every worker count —
        which is also why ``RANDOM_SAFE`` Robust schemes are rejected here
        *regardless* of worker count (their rng-driven enrollment cannot be
        replayed across shards; accepting them only when the task count
        happens to collapse to 1 would make success host-dependent).  Use
        the serial :func:`~repro.attacks.offline.offline_attack_known_identifiers`
        directly for RANDOM_SAFE ablations.
        """
        self._reject_random_safe(scheme)
        passwords = list(passwords)
        _validate_known_identifier_targets(scheme, passwords, dictionary)
        workers = min(self.effective_workers, len(passwords))
        if workers <= 1:
            started = time.perf_counter()
            result = offline_attack_known_identifiers(
                scheme, passwords, dictionary, count_entries=count_entries
            )
            self._record_serial_stats(len(passwords), started)
            return result
        payload = _RunPayload(
            scheme_spec=SchemeSpec.from_scheme(scheme),
            dictionary_spec=DictionarySpec.from_dictionary(dictionary),
            count_entries=count_entries,
        )
        if self.mode == "static":
            chunks = partition_evenly(passwords, workers)
        else:
            size = self.task_size or auto_task_size(len(passwords), workers)
            chunks = [
                passwords[start : start + size]
                for start in range(0, len(passwords), size)
            ]
        calls = [
            (index, tuple(password.to_json() for password in chunk))
            for index, chunk in enumerate(chunks)
        ]
        busy: Dict[int, float] = {}
        results = self._run_tasks(payload, _known_identifiers_task, calls, busy)
        self._publish_stats(
            AttackRunStats(
                mode=self.mode,
                workers=workers,
                tasks=len(calls),
                task_size=max(len(chunk) for chunk in chunks),
                waves=1,
                worker_busy=busy,
            )
        )
        return merge_offline_results([result for _, result in results])

    def run_stolen_file(
        self,
        scheme: DiscretizationScheme,
        stolen: Union[str, Mapping[str, StoredPassword]],
        dictionary: HumanSeededDictionary,
        guess_budget: int = 1000,
        pepper: bytes = b"",
    ) -> StolenFileAttackResult:
        """Parallel :func:`~repro.attacks.offline.offline_attack_stolen_file`.

        Tasks are contiguous runs of the sorted username list — the serial
        iteration order — optionally crossed with guess-rank windows when
        accounts are scarce (see :func:`_plan_guess_windows`).  A stolen
        account's serial outcome is fully determined by the first matching
        global guess rank, so reassembling ``first match at rank r →
        guesses_hashed = r + 1`` from per-window partial grinds is
        bit-identical to the serial early-stop at any task split.  The
        grind never enrolls, so even ``RANDOM_SAFE`` Robust schemes run
        fine (``locate`` is selection-independent).  *pepper* (a
        compromised server secret, if any) is forwarded verbatim to every
        task.
        """
        records = (
            parse_password_file(stolen) if isinstance(stolen, str) else dict(stolen)
        )
        _validate_stolen_records(records, dictionary, guess_budget)
        usernames = sorted(records)
        workers = min(self.effective_workers, len(usernames))
        if workers <= 1:
            started = time.perf_counter()
            result = offline_attack_stolen_file(
                scheme, records, dictionary, guess_budget=guess_budget, pepper=pepper
            )
            self._record_serial_stats(len(usernames), started)
            return result
        payload = _RunPayload(
            scheme_spec=SchemeSpec.from_scheme(scheme, for_enrollment=False),
            dictionary_spec=DictionarySpec.from_dictionary(dictionary),
            guess_budget=guess_budget,
        )
        if self.mode == "static":
            task_size = math.ceil(len(usernames) / workers)
            windows = [(0, guess_budget)]
        else:
            task_size = self.task_size or auto_task_size(len(usernames), workers)
            account_tasks = math.ceil(len(usernames) / task_size)
            windows = _plan_guess_windows(guess_budget, account_tasks, workers)

        hashed_by_user = {username: 0 for username in usernames}
        rank_by_user: Dict[str, int] = {}
        pending = usernames
        busy: Dict[int, float] = {}
        total_tasks = 0
        waves_run = 0
        for start_rank, stop_rank in windows:
            if not pending:
                break  # every account cracked — skip the remaining waves
            waves_run += 1
            if self.mode == "static":
                chunks = partition_evenly(pending, min(workers, len(pending)))
            else:
                chunks = [
                    pending[start : start + task_size]
                    for start in range(0, len(pending), task_size)
                ]
            calls = [
                (
                    index,
                    tuple(
                        (username, records[username].to_json())
                        for username in chunk
                    ),
                    start_rank,
                    stop_rank,
                    pepper,
                )
                for index, chunk in enumerate(chunks)
            ]
            total_tasks += len(calls)
            for _, rows in self._run_tasks(
                payload, _stolen_file_task, calls, busy
            ):
                for username, rank, hashed in rows:
                    hashed_by_user[username] += hashed
                    if rank is not None:
                        rank_by_user[username] = rank
            pending = [
                username for username in pending if username not in rank_by_user
            ]
        self._publish_stats(
            AttackRunStats(
                mode=self.mode,
                workers=workers,
                tasks=total_tasks,
                task_size=task_size,
                waves=waves_run,
                worker_busy=busy,
            )
        )
        outcomes = tuple(
            StolenAccountOutcome(
                username=username,
                cracked=username in rank_by_user,
                guesses_hashed=hashed_by_user[username],
                hash_units=hashed_by_user[username]
                * records[username].record.hasher.iterations,
            )
            for username in usernames
        )
        return StolenFileAttackResult(
            scheme_name=scheme.name,
            guess_budget=guess_budget,
            outcomes=outcomes,
        )

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _reject_random_safe(scheme: DiscretizationScheme) -> None:
        """Reject rng-driven enrollment consistently, at every worker count."""
        from repro.core.robust import GridSelection, RobustDiscretization

        if (
            isinstance(scheme, RobustDiscretization)
            and scheme.selection is GridSelection.RANDOM_SAFE
        ):
            raise AttackError(
                "cannot shard a RANDOM_SAFE robust scheme: its rng is "
                "process-local state and cannot be replayed deterministically "
                "across workers (use the serial attack for RANDOM_SAFE)"
            )

    def _record_serial_stats(self, targets: int, started: float) -> None:
        """Publish :class:`AttackRunStats` for an in-process serial run."""
        self._publish_stats(
            AttackRunStats(
                mode="serial",
                workers=1,
                tasks=1,
                task_size=targets,
                waves=1,
                worker_busy={os.getpid(): time.perf_counter() - started},
            )
        )

    def _pool_for(self, payload: _RunPayload) -> Tuple[ProcessPoolExecutor, str]:
        """The reusable pool whose workers have *payload* staged.

        The pool is keyed by the payload's hash (stashed in ``__dict__``
        of the frozen dataclass, the ``seed_array`` cache idiom): calls
        with the same scheme/dictionary/budget reuse both the processes
        and every worker-side cached runtime, so experiment sweeps pay
        startup and guess-batch precompute once.  A different payload
        tears the pool down and spawns a fresh one, because the payload
        travels via the pool *initializer* — the one channel that runs
        exactly once per worker regardless of start method.
        """
        blob = pickle.dumps(payload)
        key = hashlib.sha256(blob).hexdigest()
        pool = self.__dict__.get("_pool")
        if pool is not None and self.__dict__.get("_pool_key") == key:
            return pool, key
        self.close()
        pool = ProcessPoolExecutor(
            max_workers=self.effective_workers,
            initializer=_install_run_payload,
            initargs=(key, blob),
        )
        self.__dict__["_pool"] = pool
        self.__dict__["_pool_key"] = key
        return pool, key

    def _run_tasks(self, payload, task_fn, calls, busy):
        """Submit one future per call; gather in deterministic task order.

        Every worker return value is ``(task_index, data, pid, seconds)``;
        results are sorted by task index before the merge (futures may
        complete in any order — that is the whole point of the queue) and
        per-pid busy seconds are accumulated into *busy*.  Worker
        exceptions re-raise in the caller as :class:`AttackError`, so a
        dying worker (or a broken pool) fails the whole attack immediately
        rather than hanging the merge; a broken pool is discarded so the
        next call starts fresh.
        """
        pool, key = self._pool_for(payload)
        try:
            futures = [pool.submit(task_fn, key, *args) for args in calls]
            results = [future.result() for future in futures]
        except AttackError:
            raise
        except Exception as exc:
            if isinstance(exc, BrokenExecutor):
                self.close()
            raise AttackError(f"parallel attack worker failed: {exc}") from exc
        results.sort(key=lambda item: item[0])
        for _, _, pid, seconds in results:
            busy[pid] = busy.get(pid, 0.0) + seconds
        return [(index, data) for index, data, _, _ in results]

    def close(self) -> None:
        """Shut down the reused worker pool (safe to call repeatedly).

        Without an explicit close the pool is torn down when the runner is
        garbage-collected; ``with ShardedAttackRunner(...) as runner:``
        scopes it deterministically.
        """
        pool = self.__dict__.pop("_pool", None)
        self.__dict__.pop("_pool_key", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardedAttackRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
