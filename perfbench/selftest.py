"""Self-test of the benchmark's own checks.

Run from the checkout root::

    python3 perfbench/selftest.py

It shows that the correctness gate fires: a short ``login-storm`` run is
repeated with one fault injected into the server host (see
``serve._install_fault``), and each faulty run must report
``failed > 0`` and ``correct: false`` while the clean run reports 0.
The three runs share a seed, so their designed mix lines must be equal.
It also checks that ``BENCHMARK.json`` names exactly the metrics
``run.py`` prints and that a directory holding only the benchmark (no
``src``) makes ``run.py`` exit non-zero without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import common
import run

SECONDS = 2


def _run(*extra: str, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
         "--workload", "login-storm", "--seed", "7", "--seconds", str(SECONDS), "--trace", "0",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    if process.returncode != 0:
        raise AssertionError(f"run failed ({process.returncode}):\n{process.stderr[-3000:]}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def check_manifest(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(run.PER_LAYER)
    for metric in manifest["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]], metric
    for metric in manifest["per_layer"]:
        assert metric["unit"] == run.PER_LAYER[metric["name"]], metric
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    print("manifest matches run.py")


def check_bare_directory(root: str) -> None:
    bare = os.path.join(root, common.WORK_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(common.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = _run(cwd=bare)
        assert process.returncode != 0, "run.py succeeded without the program"
        assert '"correct"' not in process.stdout, "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit code {process.returncode}, no result line")


def _mix_line(process: subprocess.CompletedProcess) -> str:
    return next(line for line in process.stdout.splitlines() if line.startswith("mix (design"))


def check_faults() -> None:
    """A clean run fails nothing; each injected fault fails something.

    All three runs share one seed, so their designed mix must read the same.
    """
    process = _run()
    clean = _result(process)
    mixes = {_mix_line(process)}
    assert clean["correct"] and clean["failed"] == 0, clean
    print(f"clean run: failed {clean['failed']} of {clean['attempted']}")
    for fault in ("decision", "throttle"):
        process = _run("--fault", fault)
        result = _result(process)
        mixes.add(_mix_line(process))
        assert result["failed"] > 0 and not result["correct"], (fault, result)
        print(f"fault {fault}: failed {result['failed']} of {result['attempted']}, "
              f"failed_share {result['failed'] / result['attempted']:.2e}")
    assert len(mixes) == 1, mixes
    print(f"mix identical across the three runs at one seed: {mixes.pop()}")


def main() -> int:
    root = common.checkout_root()
    check_manifest(root)
    check_bare_directory(root)
    check_faults()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
