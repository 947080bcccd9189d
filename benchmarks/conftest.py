"""Shared benchmark fixtures.

The experiment benches time the *analysis* (the paper's measurement), not
dataset generation, so the shared simulated study and dictionaries are
warmed once per session.  Each bench prints its paper-vs-measured report
through the ``report`` fixture (bypassing capture so the rows land in
``bench_output.txt``) and archives it under ``benchmarks/reports/``.
"""

from __future__ import annotations

import json
import os

import pytest


def pytest_report_header(config):
    """Bench-run context line: workers, scheduling mode, array backend.

    Archived reports quote throughput numbers; this header (and the
    matching lines inside ``attack_throughput.txt``) makes every bench run
    self-describing about the hardware, the attack-engine scheduling
    configuration (``REPRO_ATTACK_MODE`` / ``REPRO_ATTACK_TASK_SIZE``
    environment overrides included), the storage commit mode
    (``$REPRO_STORE_COMMIT``) and the backend that produced it.
    """
    from repro.attacks.parallel import default_workers
    from repro.obs import get_registry
    from repro.passwords.storage import commit_mode
    from repro.serving.cluster import default_cluster_workers

    mode = os.environ.get("REPRO_ATTACK_MODE", "queue")
    task_size = os.environ.get("REPRO_ATTACK_TASK_SIZE", "auto")
    obs = "enabled" if get_registry().enabled else "disabled (REPRO_OBS_DISABLED)"
    return (
        f"attack engine: {default_workers()} worker(s) schedulable, "
        f"mode={mode}, task size={task_size}; "
        f"serving cluster: {default_cluster_workers()} shard worker(s) "
        f"($CLUSTER_WORKERS); "
        "array backend: numpy; "
        f"obs registry: {obs}; "
        f"storage commit mode: {commit_mode()} ($REPRO_STORE_COMMIT)"
    )


@pytest.fixture(scope="session", autouse=True)
def warm_shared_data():
    """Generate the shared dataset/dictionaries before any timing runs."""
    from repro.experiments.common import default_dataset, default_dictionary

    default_dataset()
    default_dictionary("cars")
    default_dictionary("pool")


@pytest.fixture(scope="session")
def reports_dir():
    path = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def json_report(reports_dir):
    """Write the machine-readable companion of a ``.txt`` bench report.

    Each gated bench calls ``json_report(name, entries)`` with one entry
    per gated (or report-only) metric: ``{"metric": ..., "value": ...,
    "gate": floor-or-None, "skipped": reason-or-None}``.  The file lands
    as ``benchmarks/reports/<name>.json`` next to the human-readable
    ``.txt``, so the perf trajectory is diffable across PRs without
    parsing prose.
    """

    def _write(name: str, entries, **extra):
        payload = {
            "name": name,
            "entries": [
                {
                    "metric": entry["metric"],
                    "value": entry["value"],
                    "gate": entry.get("gate"),
                    "skipped": entry.get("skipped"),
                }
                for entry in entries
            ],
        }
        payload.update(extra)
        path = os.path.join(reports_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    return _write


@pytest.fixture()
def report(capsys, reports_dir):
    """Print an ExperimentResult's report uncaptured and archive it."""

    def _report(result):
        text = result.rendered()
        with capsys.disabled():
            print()
            print(text)
        path = os.path.join(reports_dir, f"{result.experiment_id}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return result

    return _report
