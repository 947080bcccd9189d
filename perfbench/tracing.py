"""Timing wrappers the benchmark installs around the program's layers.

:meth:`Tracer.install` patches the public entry points of each layer *from the
outside*, in a process the benchmark started itself:

* ``VerificationService.flush`` (``passwords.service`` flush),
* ``CenteredBatchKernel.locate`` (``core.batch`` kernel),
* ``PasswordStore.persist_throttles`` (``passwords.store`` group commit),
* ``SQLiteBackend.get`` / ``get_throttle`` (``passwords.storage`` reads).

Each call records a span ``(name, start, end, parent, cpu, rows)``: wall
times from ``perf_counter``, ``cpu`` from the thread's CPU clock, and the
parent the innermost open span.  Spans stay in memory;
:meth:`Tracer.dump` writes them out when the host stops and
:meth:`Tracer.summary` folds them into per-layer totals, including self
time (duration minus children).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

class Tracer:
    """Span recorder for one process; :meth:`install` patches the layers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _wrap(self, owner, attribute: str, name: str, rows=None) -> None:
        original = getattr(owner, attribute)
        perf = time.perf_counter
        cpu = time.thread_time
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf(), 0.0, parent, cpu(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = cpu() - span[4]
                span[2] = perf()
                if rows is not None:
                    span[5] = rows(args)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attribute)
        setattr(owner, attribute, wrapper)

    def install(self) -> "Tracer":
        """Wrap every traced layer; call once per process."""
        from repro.core.batch import CenteredBatchKernel
        from repro.passwords.service import VerificationService
        from repro.passwords.storage import SQLiteBackend
        from repro.passwords.store import PasswordStore

        self._wrap(VerificationService, "flush", "flush")
        self._wrap(CenteredBatchKernel, "locate", "kernel", rows=lambda a: len(a[1]))
        self._wrap(PasswordStore, "persist_throttles", "commit", rows=lambda a: len(a[1]))
        self._wrap(SQLiteBackend, "get", "read")
        self._wrap(SQLiteBackend, "get_throttle", "read")
        return self

    def reset(self) -> None:
        """Forget every recorded span (start of the timed phase)."""
        self.spans.clear()

    def summary(self) -> Dict[str, dict]:
        """Per-name totals: calls, rows, wall, CPU, self CPU, and the part of
        each that ran inside a ``flush`` span."""
        spans = self.spans
        child_cpu = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_cpu[span[3]] += span[4]
        totals: Dict[str, dict] = {}
        for index, (name, start, end, parent, cpu, rows) in enumerate(spans):
            entry = totals.setdefault(
                name,
                {"calls": 0, "rows": 0, "wall": 0.0, "cpu": 0.0, "self_cpu": 0.0,
                 "in_flush_wall": 0.0, "in_flush_cpu": 0.0},
            )
            entry["calls"] += 1
            entry["rows"] += rows
            entry["wall"] += end - start
            entry["cpu"] += cpu
            entry["self_cpu"] += cpu - child_cpu[index]
            if self._inside(parent, "flush"):
                entry["in_flush_wall"] += end - start
                entry["in_flush_cpu"] += cpu
        return totals

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line ``[name, start, end, parent, cpu, rows]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
