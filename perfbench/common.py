"""Shared plumbing: /proc readers, the host canary, quantiles, provenance
and the program-host subprocess handle.

Everything here is benchmark code; nothing under ``src/`` is imported at
module level, so ``run.py`` can report a missing checkout before touching
the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: Directory holding this file; program hosts run ``serve.py`` from here.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Scratch space inside the checkout (listed in the root ``.gitignore``).
WORK_ROOT = ".perfbench-work"

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- checkout ---------------------------------------------------------------


def checkout_root() -> str:
    """The checkout the benchmark runs in: the current working directory."""
    return os.getcwd()


def program_present(root: str) -> bool:
    """Whether *root* holds the program's sources (``src/repro``)."""
    return os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))


def child_env(root: str) -> Dict[str, str]:
    """Environment for program hosts: the checkout's ``src`` on the path.

    ``REPRO_STORE_COMMIT`` and ``REPRO_ARRAY_BACKEND`` are removed so every
    host runs the deployed defaults whatever the caller's shell exports.
    """
    env = dict(os.environ)
    env.pop("REPRO_STORE_COMMIT", None)
    env.pop("REPRO_ARRAY_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH_DIR])
    return env


# -- /proc ------------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of *pid* (all threads), from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def io_counters(pid: int) -> Dict[str, int]:
    """``/proc/<pid>/io`` as a dict (``write_bytes``, ``syscw``, ...)."""
    counters = {}
    with open(f"/proc/{pid}/io") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            counters[key.strip()] = int(value)
    return counters


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of *pid* in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of *pid*, found by walking ``/proc`` ppids."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


class ProcSample:
    """CPU and I/O counters of a process set at one instant."""

    def __init__(self, pids: Sequence[int]) -> None:
        self.when = time.perf_counter()
        self.cpu: Dict[int, float] = {}
        self.write_bytes: Dict[int, int] = {}
        self.syscw: Dict[int, int] = {}
        for pid in pids:
            try:
                self.cpu[pid] = cpu_seconds(pid)
                io = io_counters(pid)
            except OSError:
                continue
            self.write_bytes[pid] = io.get("write_bytes", 0)
            self.syscw[pid] = io.get("syscw", 0)

    def cpu_since(self, earlier: "ProcSample", pids: Sequence[int]) -> float:
        """CPU seconds *pids* burned between *earlier* and this sample."""
        return sum(self.cpu.get(p, 0.0) - earlier.cpu.get(p, 0.0) for p in pids)

    def writes_since(self, earlier: "ProcSample", pids: Sequence[int]):
        """``(write_bytes, syscw)`` deltas of *pids* since *earlier*."""
        return (
            sum(self.write_bytes.get(p, 0) - earlier.write_bytes.get(p, 0) for p in pids),
            sum(self.syscw.get(p, 0) - earlier.syscw.get(p, 0) for p in pids),
        )


# -- statistics -------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the sample at rank ``ceil(q * n)``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


# -- host canary and provenance ---------------------------------------------

#: sha256 calls per canary repetition (about 30 ms on a 2020s core).
CANARY_HASHES = 60_000


def canary_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed sha256 loop: a slow host shows here."""
    block = bytes(range(64))
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        digest = block
        for _ in range(CANARY_HASHES):
            digest = hashlib.sha256(digest).digest()
        timings.append((time.perf_counter() - started) * 1e3)
    return median(timings)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """The checkout's commit read from ``.git`` files (no git process)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref:"):
        return head
    ref = head.split(None, 1)[1]
    try:
        with open(os.path.join(root, ".git", ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, **extra) -> dict:
    """Host fingerprint, program versions and the run's configuration."""
    import sqlite3

    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_commit": _git_commit(root),
    }
    info.update(extra)
    return info


# -- program hosts ------------------------------------------------------------


class HostError(RuntimeError):
    """A program host failed to start, answer or stop."""


class Host:
    """One ``serve.py`` subprocess speaking a line protocol on stdin/stdout.

    The host prints one JSON object per line: ``{"ready": ...}`` once it
    can serve, a reply per command, and ``{"stopped": ...}`` after the
    ``stop`` command.  Its stderr goes to a log file in the run's work
    directory and is quoted in any :class:`HostError`.
    """

    def __init__(self, root: str, workdir: str, args: Sequence[str], tag: str) -> None:
        self.tag = tag
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "serve.py"), *args],
            cwd=root,
            env=child_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self._buffer = b""
        self.pids: List[int] = [self.process.pid]

    @property
    def pid(self) -> int:
        """The host process id."""
        return self.process.pid

    def _log_tail(self) -> str:
        self._log.flush()
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def read(self, timeout: float) -> dict:
        """The next JSON line from the host (raises on EOF or timeout)."""
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HostError(f"{self.tag}: no reply within {timeout:.0f}s")
            ready, _, _ = select.select([stream], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 65536)
            if not chunk:
                raise HostError(
                    f"{self.tag} exited (code {self.process.poll()}):\n{self._log_tail()}"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = json.loads(line)
        if "error" in message:
            raise HostError(f"{self.tag}: {message['error']}\n{self._log_tail()}")
        return message

    def send(self, command: str) -> None:
        """Write one command line to the host's stdin."""
        self.process.stdin.write(command.encode() + b"\n")
        self.process.stdin.flush()

    def wait_ready(self, timeout: float = 120.0) -> dict:
        """Block until the host reports ready; records its descendants."""
        message = self.read(timeout)
        if not message.get("ready"):
            raise HostError(f"{self.tag}: expected ready, got {message}")
        self.pids = [self.process.pid] + descendants(self.process.pid)
        return message

    def stop(self, timeout: float = 60.0) -> dict:
        """Ask the host to shut down cleanly and reap it and its children."""
        try:
            self.send("stop")
            message = self.read(timeout)
        finally:
            self.close()
        return message

    def close(self) -> None:
        """Reap the host; SIGTERM, then SIGKILL, anything still running."""
        tracked = [pid for pid in self.pids if pid != self.process.pid]
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        for pid in tracked:
            deadline = time.monotonic() + 10
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
