"""Dependency-free metrics registry: counters, gauges, latency histograms.

The stack's components each grew private telemetry — ``ServiceStats`` on
the async service, ``AttackRunStats`` on the attack runner, a hand-rolled
``stats`` op on the TCP server.  This module gives them one vocabulary: a
:class:`MetricsRegistry` hands out named, label-tagged instruments that
are

* **thread-safe** — every mutation takes the instrument's own lock, so
  the sync service (driven from any thread) and the attack runner's
  parent process can share a registry;
* **snapshot-able** — :meth:`MetricsRegistry.snapshot` returns plain
  JSON-safe dicts (the ``{"op": "metrics"}`` server response, and the
  artifact the future ablation harness diffs via
  :func:`repro.obs.export_snapshot`);
* **pay-for-what-you-touch** — a registry constructed with
  ``enabled=False`` hands out shared no-op instruments whose ``inc`` /
  ``set`` / ``observe`` are empty methods, so an uninstrumented
  deployment's hot path does no locking, no timing and no allocation
  (``benchmarks/test_bench_obs.py`` gates the enabled path within 5% of
  this no-op path).

:class:`Histogram` keeps **fixed bucket counts** (the Prometheus
exposition shape) *plus* a bounded ring of raw samples, so its
p50/p95/p99 are **exact** nearest-rank quantiles over the retained
window (default: the last 8192 observations) rather than bucket
interpolations.

Metric naming follows the Prometheus convention documented in
``docs/architecture.md``: ``<component>_<quantity>[_<unit>]`` with
``_total`` for counters (``service_kernel_seconds``,
``serving_flushes_total{trigger="size"}``, ``attack_tasks_total``).

The process-wide default registry (:func:`get_registry`) is enabled
unless the ``REPRO_OBS_DISABLED`` environment variable is set to a
truthy value; components take an explicit ``registry=`` for isolation
(benchmarks, property tests) and fall back to the default otherwise.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "export_snapshot",
    "quantile",
]

#: Default bucket upper bounds (seconds) for latency histograms — the
#: Prometheus classic ladder, widened to cover a 10µs kernel call and a
#: 10s straggler alike.  ``+Inf`` is implicit.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for size-shaped histograms (batch sizes,
#: task counts): powers of two up to 4096.
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: Exact-quantile retention window per histogram (ring of raw samples).
DEFAULT_SAMPLE_WINDOW = 8192

#: Label-set type: instruments are keyed by name plus sorted label pairs.
LabelItems = Tuple[Tuple[str, str], ...]


def quantile(samples: Iterable[float], q: float) -> Optional[float]:
    """The nearest-rank *q*-quantile (0..1) of *samples*, over a sorted copy.

    ``None`` for an empty sample set (callers render it as ``n/a`` rather
    than formatting a NaN); a *q* outside ``[0, 1]`` raises
    :class:`~repro.errors.ParameterError`.  The one quantile rule of the
    library: histogram snapshots and flood reports both use it.

    >>> quantile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.0
    >>> quantile([], 0.5) is None
    True
    """
    if not 0 <= q <= 1:
        raise ParameterError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    if not ordered:
        return None
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _labels_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonical sorted ``((key, value), ...)`` form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    """The flat snapshot key: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


#: One ``key="value"`` label pair inside a rendered metric key.  Values
#: were produced by ``str()`` at labelling time and never contain quotes
#: in this codebase's vocabulary (op names, trigger names, shard ids).
_LABEL_PAIR = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="([^"]*)"')


def _parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`_render_key`: ``'name{k="v"}'`` → ``("name", {"k": "v"})``.

    The inverse exists because snapshots flatten ``(name, labels)`` into
    one rendered string; :meth:`MetricsRegistry.merge` needs the parts
    back to re-register the instrument locally.
    """
    name, brace, inner = key.partition("{")
    if not brace:
        return key, {}
    if not inner.endswith("}"):
        raise ParameterError(f"malformed metric key {key!r}")
    return name, {label: value for label, value in _LABEL_PAIR.findall(inner[:-1])}


def _valid_name(name: str) -> bool:
    """Prometheus-compatible metric/label name check."""
    if not name or not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


class Counter:
    """A monotonically increasing counter.

    >>> c = Counter("logins_total", ())
    >>> c.inc(); c.inc(3); c.value
    4
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ParameterError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value


class Gauge:
    """A point-in-time value that can move both ways (or track a max)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if larger (high-water-mark shape)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current gauge reading."""
        return self._value


class Histogram:
    """Fixed-bucket histogram with exact quantiles over a sample window.

    Two structures per histogram:

    * cumulative **bucket counts** over the configured upper bounds —
      cheap (one ``bisect``-style scan per observe), never-lossy for the
      Prometheus exposition;
    * a bounded **ring of raw samples** (``sample_window`` most recent
      observations) from which :meth:`quantile` computes *exact*
      nearest-rank percentiles — the p50/p95/p99 a live ``repro
      metrics`` scrape reports.

    >>> h = Histogram("t_seconds", (), buckets=(0.1, 1.0))
    >>> for v in (0.05, 0.2, 0.3, 5.0): h.observe(v)
    >>> h.count, h.quantile(0.5)
    (4, 0.2)
    """

    __slots__ = (
        "name", "labels", "buckets", "_bucket_counts", "_samples",
        "_count", "_sum", "_min", "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ParameterError(
                f"histogram {name}: buckets must be a sorted non-empty sequence"
            )
        if sample_window < 1:
            raise ParameterError(
                f"histogram {name}: sample_window must be >= 1, got {sample_window}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._samples: deque = deque(maxlen=sample_window)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # Linear scan beats bisect for the short ladders used here, and
        # most latency observations land in the first few buckets.
        index = 0
        buckets = self.buckets
        while index < len(buckets) and value > buckets[index]:
            index += 1
        with self._lock:
            self._bucket_counts[index] += 1
            self._samples.append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations under one lock acquisition.

        Bucket indices are resolved outside the lock; the critical
        section is pure list/deque mutation.  Hot batching call-sites
        (per-flush queue-wait publication) use this so telemetry cost
        scales with flushes, not with individual waiters.
        """
        values = [float(v) for v in values]
        if not values:
            return
        buckets = self.buckets
        size = len(buckets)
        indexed = []
        for value in values:
            index = 0
            while index < size and value > buckets[index]:
                index += 1
            indexed.append((index, value))
        lo = min(values)
        hi = max(values)
        with self._lock:
            counts = self._bucket_counts
            append = self._samples.append
            for index, value in indexed:
                counts[index] += 1
                append(value)
            self._count += len(values)
            self._sum += sum(values)
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi

    @property
    def count(self) -> int:
        """Total observations ever recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations ever recorded."""
        return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Exact nearest-rank *q*-quantile over the retained sample window.

        ``None`` before the first observation.  Exact because it sorts
        the raw retained samples — no bucket interpolation — but scoped
        to the window when more than ``sample_window`` observations have
        been recorded.
        """
        with self._lock:
            samples = list(self._samples)
        return quantile(samples, q)

    def snapshot(self, include_samples: bool = False) -> dict:
        """JSON-safe state: count/sum/min/max, exact p50/p95/p99, buckets.

        With ``include_samples=True`` the dict also carries the retained
        raw sample ring (oldest→newest) under ``"samples"`` — the extra
        payload :meth:`merge` needs to reconstitute exact quantiles on the
        receiving side.  The cluster router's upstream fan-out asks for it
        (``{"op": "metrics", "samples": true}``); plain scrapes stay
        compact.
        """
        with self._lock:
            raw = list(self._samples)
            counts = list(self._bucket_counts)
            count, total = self._count, self._sum
            lo = self._min if self._count else None
            hi = self._max if self._count else None
        # Sorting once makes the three quantile() calls linear re-sorts.
        ordered = sorted(raw)
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.buckets, counts):
            running += bucket_count
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = running + counts[-1]
        snap = {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "p50": quantile(ordered, 0.50),
            "p95": quantile(ordered, 0.95),
            "p99": quantile(ordered, 0.99),
            "window": len(ordered),
            "buckets": cumulative,
        }
        if include_samples:
            snap["samples"] = raw
        return snap

    def merge(self, snap: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket counts add, ``count``/``sum`` add, ``min``/``max`` extend,
        and the incoming ``"samples"`` ring (when present) appends to this
        histogram's ring — the ``deque`` re-applies the window cap, so the
        merged quantiles are exact over the most recently appended
        ``sample_window`` observations.  The snapshot's bucket bounds must
        match this histogram's bounds exactly (cross-process merges only
        make sense between instruments created from the same code path).
        """
        if not snap:
            return
        expected = [f"{bound:g}" for bound in self.buckets] + ["+Inf"]
        cumulative = snap.get("buckets") or {}
        if list(cumulative) != expected:
            raise ParameterError(
                f"histogram {self.name}: cannot merge snapshot with bucket "
                f"bounds {list(cumulative)} into bounds {expected}"
            )
        per_bucket: List[int] = []
        previous = 0
        for key in expected:
            value = int(cumulative[key])
            per_bucket.append(value - previous)
            previous = value
        count = int(snap.get("count") or 0)
        total = float(snap.get("sum") or 0.0)
        lo = snap.get("min")
        hi = snap.get("max")
        samples = snap.get("samples") or ()
        with self._lock:
            for index, bucket_count in enumerate(per_bucket):
                self._bucket_counts[index] += bucket_count
            for value in samples:
                self._samples.append(float(value))
            self._count += count
            self._sum += total
            if lo is not None and float(lo) < self._min:
                self._min = float(lo)
            if hi is not None and float(hi) > self._max:
                self._max = float(hi)


class _NullInstrument:
    """Shared no-op instrument handed out by a disabled registry.

    Every mutator is an empty method and every reading is a constant, so
    ``registry.counter(...).inc()`` on the disabled path costs two
    dict-free attribute lookups and an empty call — the no-op baseline
    the overhead gate compares against.
    """

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def set_max(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""

    def observe_many(self, values: Iterable[float]) -> None:
        """No-op."""

    def quantile(self, q: float) -> Optional[float]:
        """Always ``None`` — a disabled histogram retains nothing."""
        return None

    @property
    def value(self) -> int:
        """Always 0."""
        return 0

    @property
    def count(self) -> int:
        """Always 0."""
        return 0

    @property
    def sum(self) -> float:
        """Always 0.0."""
        return 0.0

    def snapshot(self, include_samples: bool = False) -> dict:
        """An empty snapshot."""
        return {}

    def merge(self, snap: Mapping[str, object]) -> None:
        """No-op."""


#: The single shared no-op instrument (stateless, so one suffices).
NULL_INSTRUMENT = _NullInstrument()

#: Any instrument a registry can hand out.
Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """Named, label-tagged instruments behind one snapshot/exposition.

    Parameters
    ----------
    enabled:
        ``False`` builds a permanently disabled registry: every
        ``counter`` / ``gauge`` / ``histogram`` call returns the shared
        no-op instrument and :meth:`snapshot` stays empty.  Components
        cache the returned instruments, so toggling happens at
        construction time, not per operation — the pay-for-what-you-touch
        contract.

    Asking twice for the same ``(name, labels)`` returns the same
    instrument; asking for an existing name with a different instrument
    kind raises :class:`~repro.errors.ParameterError`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._metrics: Dict[Tuple[str, LabelItems], Instrument] = {}
        self._kinds: Dict[str, type] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether this registry records anything at all."""
        return self._enabled

    # -- instrument access ---------------------------------------------------

    def _get(
        self,
        kind: type,
        name: str,
        labels: Mapping[str, object],
        help: str,
        **kwargs,
    ) -> Instrument:
        if not self._enabled:
            return NULL_INSTRUMENT
        if not _valid_name(name):
            raise ParameterError(f"invalid metric name {name!r}")
        for label in labels:
            if not _valid_name(label):
                raise ParameterError(f"invalid label name {label!r} on {name}")
        key = (name, _labels_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            registered_kind = self._kinds.get(name)
            if registered_kind is not None and registered_kind is not kind:
                raise ParameterError(
                    f"metric {name!r} already registered as "
                    f"{registered_kind.__name__}, not {kind.__name__}"
                )
            instrument = kind(name, key[1], **kwargs)
            self._metrics[key] = instrument
            self._kinds[name] = kind
            if help and name not in self._help:
                self._help[name] = help
            return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter registered under ``name`` + *labels* (created once)."""
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge registered under ``name`` + *labels* (created once)."""
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
        **labels,
    ) -> Histogram:
        """The histogram registered under ``name`` + *labels* (created once).

        *buckets* / *sample_window* apply on first registration only;
        later calls return the existing instrument unchanged.
        """
        return self._get(
            Histogram, name, labels, help,
            buckets=buckets, sample_window=sample_window,
        )

    # -- export --------------------------------------------------------------

    def _sorted_items(self) -> List[Tuple[Tuple[str, LabelItems], Instrument]]:
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self, include_samples: bool = False) -> dict:
        """Plain-dict view of every instrument (JSON-safe, diff-friendly).

        Shape::

            {"enabled": true,
             "counters":   {"serving_flushes_total{trigger=\\"size\\"}": 12, ...},
             "gauges":     {"attack_straggler_ratio": 1.07, ...},
             "histograms": {"service_kernel_seconds": {"count": ..,
                            "p50": .., "p95": .., "p99": .., "buckets": {..}}}}

        This is the payload of the server's ``{"op": "metrics"}`` response
        and the unit the ablation harness diffs (see
        :func:`repro.obs.export_snapshot`).  ``include_samples=True``
        additionally ships each histogram's raw sample ring so the
        receiving side can :meth:`merge` with exact quantiles — the wire
        format the cluster router uses to fan ``metrics`` out across
        worker processes.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for (name, labels), instrument in self._sorted_items():
            key = _render_key(name, labels)
            if isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[key] = instrument.snapshot(include_samples=include_samples)
        return {
            "enabled": self._enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` from another registry into this one.

        The cross-process aggregation primitive: the cluster router asks
        every worker for ``snapshot(include_samples=True)``, merges them
        into one fresh registry, and answers the client with a single
        coherent view.  Semantics per kind:

        * **counters** — sum;
        * **gauges** — last write wins (merge order decides ties, which
          is the only coherent answer for point-in-time readings);
        * **histograms** — bucket counts add and sample rings
          concatenate, with the window cap re-applied by the ring itself
          (see :meth:`Histogram.merge`).  Snapshots without ``"samples"``
          still merge bucket-exactly; only window quantiles degrade.

        Instruments are (re-)registered locally on first sight, so merge
        is associative over counters and histograms and the result of
        merging N worker snapshots is independent of grouping.  Merging
        into a disabled registry is a no-op.  Returns ``self`` so calls
        chain: ``MetricsRegistry().merge(a).merge(b)``.
        """
        if not self._enabled or not snapshot:
            return self
        for key, value in (snapshot.get("counters") or {}).items():
            name, labels = _parse_key(key)
            self.counter(name, **labels).inc(int(value))
        for key, value in (snapshot.get("gauges") or {}).items():
            name, labels = _parse_key(key)
            self.gauge(name, **labels).set(float(value))
        for key, hist_snap in (snapshot.get("histograms") or {}).items():
            if not hist_snap:
                continue
            name, labels = _parse_key(key)
            bounds = [
                float(bound)
                for bound in (hist_snap.get("buckets") or {})
                if bound != "+Inf"
            ]
            histogram = self.histogram(name, buckets=bounds or LATENCY_BUCKETS, **labels)
            histogram.merge(hist_snap)
        return self

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every instrument.

        Counters and gauges render as single samples; histograms render
        the classic ``_bucket`` / ``_sum`` / ``_count`` triplet plus
        ``_p50`` / ``_p95`` / ``_p99`` gauge lines carrying the exact
        window quantiles (nearest-rank, see :meth:`Histogram.quantile`).
        """
        by_name: Dict[str, List[Tuple[LabelItems, Instrument]]] = {}
        for (name, labels), instrument in self._sorted_items():
            by_name.setdefault(name, []).append((labels, instrument))
        lines: List[str] = []
        for name in sorted(by_name):
            series = by_name[name]
            kind = type(series[0][1])
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            if kind is Counter:
                lines.append(f"# TYPE {name} counter")
                for labels, instrument in series:
                    lines.append(f"{_render_key(name, labels)} {instrument.value}")
            elif kind is Gauge:
                lines.append(f"# TYPE {name} gauge")
                for labels, instrument in series:
                    lines.append(f"{_render_key(name, labels)} {instrument.value:g}")
            else:
                lines.append(f"# TYPE {name} histogram")
                for labels, instrument in series:
                    snap = instrument.snapshot()
                    for bound, cumulative in snap["buckets"].items():
                        bucket_labels = labels + (("le", bound),)
                        lines.append(
                            f"{_render_key(name + '_bucket', bucket_labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{_render_key(name + '_sum', labels)} {snap['sum']:g}"
                    )
                    lines.append(
                        f"{_render_key(name + '_count', labels)} {snap['count']}"
                    )
                    for q_name in ("p50", "p95", "p99"):
                        value = snap[q_name]
                        if value is not None:
                            lines.append(
                                f"{_render_key(name + '_' + q_name, labels)} "
                                f"{value:g}"
                            )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every registered instrument (tests and fresh bench runs)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._help.clear()


#: A shared, permanently disabled registry — the explicit way to opt a
#: component out of telemetry (`registry=NULL_REGISTRY`).
NULL_REGISTRY = MetricsRegistry(enabled=False)

#: Process-default registry, disabled via the REPRO_OBS_DISABLED env var.
_default_registry = MetricsRegistry(
    enabled=os.environ.get("REPRO_OBS_DISABLED", "") not in ("1", "true", "yes")
)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented components fall back to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default registry; returns the previous one.

    Components cache instruments at construction, so swap the default
    *before* building the services that should publish into it.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def export_snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """One JSON-safe dict of every metric — the ablation harness's unit.

    The documented stable surface for diffing two runs: take a snapshot
    before and after toggling a component, subtract counters, compare
    histogram quantiles.  Defaults to the process registry; pass an
    explicit *registry* to export an isolated one.
    """
    return (registry if registry is not None else get_registry()).snapshot()
